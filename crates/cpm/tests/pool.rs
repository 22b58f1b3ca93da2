//! Stress runs of the full parallel pipeline on the persistent pool.
//!
//! The DSU stress tests (`tests/dsu.rs`) hammer the union–find alone;
//! these hammer the whole pool-backed engine: many successive
//! percolations at shifting worker counts, all through the one global
//! `exec::Pool`, asserting bit-identity with the sequential result
//! every time. (The pool's thread census lives in the root
//! `tests/pool_census.rs`, alone in its binary.) Run under `--release`
//! (`cargo test --release -p cpm --test pool`) for the CI stress
//! target — more repeats race harder there.

use asgraph::{Graph, GraphBuilder};
use cpm::Mode;
use exec::Threads;
use rand::prelude::*;
use rand::rngs::StdRng;

fn random_graph(n: u32, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_nodes(n as usize);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

const REPEATS: usize = if cfg!(debug_assertions) { 3 } else { 16 };

#[test]
fn repeated_percolations_stay_bit_identical() {
    // Dense enough for many levels, small enough to repeat often.
    let graphs: Vec<Graph> = (0..4).map(|s| random_graph(90, 0.25, s)).collect();
    let references: Vec<_> = graphs.iter().map(cpm::percolate).collect();
    for round in 0..REPEATS {
        for (g, reference) in graphs.iter().zip(&references) {
            // Shift the worker count every round so the pool grows,
            // shrinks its active set, and reuses parked threads.
            let threads = [1usize, 2, 4, 8, 3, 7][round % 6];
            let par = cpm::percolate_parallel(g, threads, Mode::Exact);
            assert_eq!(reference, &par, "round {round}, {threads} workers");
        }
    }
}

#[test]
fn mixed_jobs_share_one_pool() {
    // Interleave enumeration-only and full-engine jobs in both modes:
    // the jobs must not corrupt each other's per-worker scratch.
    let g = random_graph(100, 0.2, 5);
    let cliques = cliques::max_cliques(&g);
    let exact = cpm::percolate(&g);
    let almost = cpm::percolate_parallel(&g, 1, Mode::Almost);
    for round in 0..REPEATS {
        let threads = [2usize, 4, 7][round % 3];
        let c = cliques::parallel::max_cliques_parallel(&g, threads);
        assert_eq!(c, cliques, "round {round}");
        let par = cpm::percolate_parallel(&g, threads, Mode::Almost);
        assert_eq!(almost, par, "round {round}");
        let par = cpm::percolate_parallel(&g, threads, Mode::Exact);
        assert_eq!(exact, par, "round {round}");
    }
}

#[test]
fn auto_threads_agree_with_sequential_above_and_below_the_grain() {
    for (n, p, seed) in [(20u32, 0.3, 1u64), (150, 0.12, 2), (60, 0.5, 3)] {
        let g = random_graph(n, p, seed);
        for mode in [Mode::Exact, Mode::Almost] {
            let seq = cpm::percolate_parallel(&g, 1, mode);
            let auto = cpm::percolate_parallel(&g, Threads::Auto, mode);
            assert_eq!(seq, auto, "{mode} n={n}");
        }
    }
}
