//! Equivalence of the lock-free [`ConcurrentDsu`] with the sequential
//! [`Dsu`], as properties and as multi-threaded stress runs.
//!
//! The property: after applying the same union sequence, both structures
//! induce the same partition (checked pairwise through `same`/`find`),
//! and the concurrent forest's roots are each component's minimum id —
//! the determinism the parallel sweep builds on. The stress tests
//! hammer one forest from many threads (run them under `--release` with
//! `cargo test --release -p cpm --test dsu` for the CI stress target —
//! more iterations race harder there).

use cpm::{ConcurrentDsu, Dsu};
use proptest::prelude::*;

/// Applies `edges` to both structures and checks they induce the same
/// partition, with concurrent roots at component minima.
fn assert_equivalent(n: usize, edges: &[(u32, u32)]) {
    let mut seq = Dsu::new(n);
    let conc = ConcurrentDsu::new(n);
    for &(a, b) in edges {
        // Merge decisions agree union-by-union, not just at the end.
        assert_eq!(seq.union(a, b), conc.union(a, b), "union ({a}, {b})");
    }
    assert_eq!(seq.set_count(), conc.set_count());
    // Same partition: element pairs agree on connectivity; and the
    // concurrent root is the component minimum (seq roots are
    // rank-dependent, so compare semantics rather than root ids).
    let mut min_of_root = vec![u32::MAX; n];
    for x in 0..n as u32 {
        let r = conc.find(x) as usize;
        min_of_root[r] = min_of_root[r].min(x);
    }
    for x in 0..n as u32 {
        let r = conc.find(x);
        assert_eq!(r, min_of_root[r as usize], "root of {x} is not the minimum");
        assert_eq!(
            seq.find(x),
            seq.find(r),
            "{x} and its concurrent root {r} disagree sequentially"
        );
        if x > 0 {
            assert_eq!(
                seq.same(x - 1, x),
                conc.same(x - 1, x),
                "connectivity of ({}, {x}) differs",
                x - 1
            );
        }
    }
}

proptest! {
    /// Any union sequence produces the same partition in both
    /// structures.
    #[test]
    fn concurrent_matches_sequential(
        n in 1usize..64,
        raw in prop::collection::vec((0u32..64, 0u32..64), 0..200),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        assert_equivalent(n, &edges);
    }
}

#[test]
fn equivalent_on_structured_shapes() {
    // Chain, star, two blobs bridged late, and self-unions.
    let chain: Vec<(u32, u32)> = (0..99).map(|i| (i, i + 1)).collect();
    assert_equivalent(100, &chain);
    let star: Vec<(u32, u32)> = (1..100).map(|i| (0, i)).collect();
    assert_equivalent(100, &star);
    let mut blobs: Vec<(u32, u32)> = (0..49).map(|i| (i, i + 1)).collect();
    blobs.extend((50..99).map(|i| (i, i + 1)));
    blobs.push((25, 75));
    blobs.push((25, 25));
    assert_equivalent(100, &blobs);
}

/// The high-thread-count stress target: many workers race disjoint
/// slices of one union ladder; the final partition must match the
/// sequential result exactly, every time.
#[test]
fn stress_concurrent_unions_many_threads() {
    let n: u32 = 20_000;
    let threads = 16;
    // Repeat to give the race different interleavings; release builds
    // (the CI stress job) iterate much faster and race harder.
    let repeats = if cfg!(debug_assertions) { 4 } else { 32 };
    let edges: Vec<(u32, u32)> = (0..n - 1)
        .map(|i| ((i * 7919) % n, ((i * 7919) % n + 1) % n))
        .collect();
    let mut seq = Dsu::new(n as usize);
    for &(a, b) in &edges {
        seq.union(a, b);
    }
    for round in 0..repeats {
        let conc = ConcurrentDsu::new(n as usize);
        let chunk = edges.len() / threads + 1;
        std::thread::scope(|scope| {
            for slice in edges.chunks(chunk) {
                let conc = &conc;
                scope.spawn(move || {
                    for &(a, b) in slice {
                        conc.union(a, b);
                    }
                });
            }
        });
        assert_eq!(seq.set_count(), conc.set_count(), "round {round}");
        for x in 0..n {
            let r = conc.find(x);
            assert!(r <= x, "round {round}: root above element");
            assert!(
                seq.same(x, r),
                "round {round}: {x} grouped with {r} only concurrently"
            );
        }
    }
}

/// Unions racing *overlapping* ranges (maximum CAS contention on the
/// same hot roots) still converge to the right partition.
#[test]
fn stress_overlapping_ranges() {
    let n: u32 = 4096;
    let conc = ConcurrentDsu::new(n as usize);
    std::thread::scope(|scope| {
        for t in 0..8u32 {
            let conc = &conc;
            scope.spawn(move || {
                // Every worker walks the same ladder, offset differently.
                for i in 0..n - 1 {
                    let a = (i + t * 512) % (n - 1);
                    conc.union(a, a + 1);
                }
            });
        }
    });
    assert_eq!(conc.set_count(), 1);
    for x in 0..n {
        assert_eq!(conc.find(x), 0);
    }
}
