//! Percolation-engine invariance: the fused engine must agree with the
//! literal definition on every cover, be bit-identical to itself at
//! every worker count and kernel, and leave the run resumable after a
//! cancellation mid-enumeration or mid-finish. The pool's thread census
//! after those cancellations is asserted in `tests/pool_census.rs`,
//! alone in its binary, where no sibling test can grow the pool.

use cliques::Kernel;
use cpm::naive::naive_communities;
use cpm::{FusedPercolator, Mode};
use exec::CancelToken;
use proptest::prelude::*;

fn random_graph(n: u32, p: f64, seed: u64) -> asgraph::Graph {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = asgraph::GraphBuilder::with_nodes(n as usize);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// The parallel driver reassembles work-stolen chunks in order, so the
/// result is *strictly equal* — ordinals, parents, everything — to the
/// sequential run at 1, 2, 4, and 7 workers, for both modes and every
/// kernel; and every level equals the literal definition.
#[test]
fn fused_parallel_is_bit_identical_at_every_worker_count() {
    let g = random_graph(70, 0.12, 23);
    for mode in [Mode::Exact, Mode::Almost] {
        let sequential = consumed(&g, mode).finish();
        for k in 2..=sequential.k_max().unwrap_or(1) as usize + 1 {
            assert_eq!(
                sequential.cover(k as u32),
                naive_communities(&g, k),
                "{mode}: k = {k}"
            );
        }
        for threads in [1usize, 2, 4, 7] {
            assert_eq!(
                sequential,
                cpm::percolate_parallel(&g, threads, mode),
                "{mode} threads {threads}"
            );
            for kernel in [Kernel::Bitset, Kernel::Merge] {
                let token = CancelToken::new();
                let got = cpm::percolate_fused_cancellable(&g, threads, kernel, &token, mode)
                    .expect("live token never cancels");
                assert_eq!(sequential, got, "{mode} threads {threads} kernel {kernel}");
            }
        }
    }
    assert_eq!(cpm::percolate(&g), consumed(&g, Mode::Exact).finish());
}

/// A run cancelled mid-enumeration drains through the normal job
/// protocol, and an immediate retry with a live token produces the
/// full, bit-identical answer — the pipeline is resumable by rerunning.
#[test]
fn fused_cancellation_leaves_the_pool_reusable_and_the_run_resumable() {
    let g = random_graph(60, 0.15, 47);
    let reference = consumed(&g, Mode::Almost).finish();
    let tripped = CancelToken::new();
    tripped.cancel();
    for threads in [1usize, 2, 4] {
        for mode in [Mode::Exact, Mode::Almost] {
            assert!(
                cpm::percolate_fused_cancellable(&g, threads, Kernel::Auto, &tripped, mode)
                    .is_err(),
                "{mode} threads {threads}: tripped token must cancel"
            );
        }
        // Immediately after each cancelled run the pool must do full
        // correct work again.
        let again = cpm::percolate_parallel(&g, threads, Mode::Almost);
        assert_eq!(again, reference, "threads {threads}");
    }
}

/// `m` triangles sharing one common edge — every pair of the `m`
/// maximal cliques overlaps in exactly 2 vertices, so the k = 3 stratum
/// holds `m·(m−1)/2` pairs. `m = 150` gives 11 175, crossing the
/// parallel sweep's `PAR_UNION_MIN` (8 192) so the chunk-queue drain
/// path runs, not just the leader-inline one.
fn book_graph(m: u32) -> asgraph::Graph {
    let mut b = asgraph::GraphBuilder::with_nodes(m as usize + 2);
    for w in 2..m + 2 {
        b.add_edge(0, 1);
        b.add_edge(0, w);
        b.add_edge(1, w);
    }
    b.build()
}

/// Builds the percolator by the *sequential* sink so the engine state
/// is identical across runs; only the finish's worker count varies.
fn consumed(g: &asgraph::Graph, mode: Mode) -> FusedPercolator {
    let mut p = FusedPercolator::new(g.node_count(), mode);
    cliques::consume_max_cliques(g, 1, Kernel::Auto, &CancelToken::new(), &mut p)
        .expect("a fresh token never trips");
    p
}

/// The finish-time phases (pair detection, sweep, extraction) on the
/// pool are strictly equal — ordinals, parents, members, everything —
/// to the one-worker `finish()` at 1, 2, 4, and 7 workers, plain and
/// cancellable, for both modes, on a substrate whose k = 3 stratum
/// crosses the parallel sweep's chunk-queue threshold.
#[test]
fn parallel_finish_is_bit_identical_to_sequential_finish() {
    for g in [random_graph(70, 0.12, 23), book_graph(150)] {
        for mode in [Mode::Exact, Mode::Almost] {
            let sequential = consumed(&g, mode).finish();
            for threads in [1usize, 2, 4, 7] {
                assert_eq!(
                    sequential,
                    consumed(&g, mode).finish_parallel(threads),
                    "{mode} threads {threads}"
                );
                let token = CancelToken::new();
                let got = consumed(&g, mode)
                    .finish_cancellable(threads, &token)
                    .expect("live token never cancels");
                assert_eq!(sequential, got, "{mode} cancellable threads {threads}");
            }
        }
    }
}

/// A token tripped *between* enumeration and finish interrupts the
/// finish-time phases themselves, and re-consuming with a live token
/// produces the full, bit-identical answer.
#[test]
fn cancellation_mid_finish_leaves_the_pool_reusable() {
    let g = book_graph(150);
    let tripped = CancelToken::new();
    tripped.cancel();
    for mode in [Mode::Exact, Mode::Almost] {
        let reference = consumed(&g, mode).finish();
        for threads in [1usize, 2, 4] {
            assert!(
                consumed(&g, mode)
                    .finish_cancellable(threads, &tripped)
                    .is_err(),
                "{mode} threads {threads}: tripped token must cancel the finish"
            );
            let again = consumed(&g, mode)
                .finish_cancellable(threads, &CancelToken::new())
                .expect("live token never cancels");
            assert_eq!(
                again, reference,
                "{mode} threads {threads}: retry after cancel"
            );
        }
    }
}

fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

proptest! {
    /// Both modes ≡ the literal definition at every level on random
    /// soups (and `percolate_at` projects the same covers), with
    /// the parallel driver strictly equal to the sequential one at
    /// 2/4/7 workers.
    #[test]
    fn fused_equals_naive_across_workers(edges in edge_soup(14, 50)) {
        let g = asgraph::Graph::from_edges(14, edges);
        for mode in [Mode::Exact, Mode::Almost] {
            let fused = consumed(&g, mode).finish();
            prop_assert_eq!(fused.clique_count, cliques::max_cliques(&g).len());
            for k in 2..=fused.k_max().unwrap_or(1) as usize + 1 {
                let expected = naive_communities(&g, k);
                prop_assert_eq!(&fused.cover(k as u32), &expected, "mode {} k {}", mode, k);
                if mode == Mode::Exact {
                    prop_assert_eq!(&cpm::percolate_at(&g, k), &expected, "single k {}", k);
                }
            }
            for threads in [2usize, 4, 7] {
                prop_assert_eq!(
                    &fused,
                    &cpm::percolate_parallel(&g, threads, mode),
                    "mode {} threads {}", mode, threads
                );
            }
        }
    }
}
