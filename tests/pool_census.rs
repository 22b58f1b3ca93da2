//! Thread census of the process-wide worker pool.
//!
//! `exec::Pool::global().spawned_threads()` counts every thread the
//! shared pool has ever spawned, and any test running beside a census
//! can grow the pool mid-count. This binary therefore holds exactly one
//! `#[test]`: every census assertion of the workspace lives here, where
//! nothing else runs concurrently. The sibling suites (`tests/fused.rs`,
//! `tests/cancel.rs`, `crates/cpm/tests/pool.rs`) check that the same
//! runs produce the right answers.

use cliques::Kernel;
use cpm::{FusedPercolator, Mode};
use exec::{CancelToken, Pool};

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

/// `m` triangles sharing one edge: the k = 3 stratum holds
/// `m·(m−1)/2` pairs, so the finish-time sweep drains through the
/// chunk queues rather than leader-inline.
fn book_graph(m: u32) -> asgraph::Graph {
    let mut b = asgraph::GraphBuilder::with_nodes(m as usize + 2);
    for w in 2..m + 2 {
        b.add_edge(0, 1);
        b.add_edge(0, w);
        b.add_edge(1, w);
    }
    b.build()
}

/// A percolator fed by the sequential sink, ready to finish.
fn consumed(g: &asgraph::Graph, mode: Mode) -> FusedPercolator {
    let mut p = FusedPercolator::new(g.node_count(), mode);
    cliques::consume_max_cliques(g, 1, Kernel::Auto, &CancelToken::new(), &mut p)
        .expect("a fresh token never trips");
    p
}

/// Once the largest worker count has been seen, no later run — plain,
/// cancelled mid-enumeration, or cancelled mid-finish, at any smaller
/// or equal worker count — spawns a thread, and every plain run after a
/// cancelled one still returns the full answer.
#[test]
fn the_pool_stops_growing_and_survives_cancellation() {
    let g = random_graph(60, 0.15, 47);
    let book = book_graph(150);
    let reference = cpm::percolate(&g);

    // Touch the largest worker count once, then record the census.
    assert_eq!(cpm::percolate_parallel(&g, 8, Mode::Exact), reference);
    let spawned = Pool::global().spawned_threads();

    let tripped = CancelToken::new();
    tripped.cancel();
    for threads in [1usize, 2, 4, 8, 5] {
        for mode in [Mode::Exact, Mode::Almost] {
            assert!(
                cpm::percolate_fused_cancellable(&g, threads, Kernel::Auto, &tripped, mode)
                    .is_err(),
                "{mode} threads {threads}: a tripped token must cancel enumeration"
            );
            assert!(
                consumed(&book, mode)
                    .finish_cancellable(threads, &tripped)
                    .is_err(),
                "{mode} threads {threads}: a tripped token must cancel the finish"
            );
        }
        assert!(
            cliques::consume_max_cliques(
                &g,
                threads,
                Kernel::Auto,
                &tripped,
                &mut cliques::CliqueSet::new()
            )
            .is_err(),
            "threads {threads}"
        );
        assert_eq!(
            cpm::percolate_parallel(&g, threads, Mode::Exact),
            reference,
            "threads {threads}: retry after cancel"
        );
        assert_eq!(
            Pool::global().spawned_threads(),
            spawned,
            "threads {threads}: the pool spawned threads for an already-seen worker count"
        );
    }
}
