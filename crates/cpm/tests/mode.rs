//! Oracle coverage for the almost-exact percolation mode.
//!
//! The almost engine's contract is refinement-only: it may split an
//! exact community (a missed ≥ k−1 overlap between two cliques), never
//! merge two of them. On the substrates this repo targets — random
//! sparse graphs and the synthetic Internet presets — the expected and
//! asserted verdict is stronger: zero divergence, level for level.
//!
//! Heavier presets run in release mode only:
//! `cargo test --release -p cpm --test mode -- --ignored --nocapture`.

use asgraph::{Graph, NodeId};
use cpm::naive::naive_communities;
use cpm::{divergence, CpmResult, Mode};
use proptest::prelude::*;

/// All-k percolation in `mode` on the worker pool.
fn percolate_mode(g: &Graph, mode: Mode) -> CpmResult {
    cpm::percolate_parallel(g, exec::Threads::Auto, mode)
}

/// Single-level percolation in `mode`: the level-`k` projection of
/// the all-k result.
fn cover_in_mode(g: &Graph, k: usize, mode: Mode) -> Vec<Vec<NodeId>> {
    percolate_mode(g, mode).cover(k as u32)
}

fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

fn assert_zero_divergence(g: &Graph, label: &str) {
    let exact = percolate_mode(g, Mode::Exact);
    let almost = percolate_mode(g, Mode::Almost);
    let d = divergence(&exact, &almost);
    assert!(d.is_zero(), "{label}: almost diverged from exact: {d}");
    // Same levels, same covers — member-for-member, every k.
    assert_eq!(exact.levels.len(), almost.levels.len(), "{label}");
    for level in &exact.levels {
        assert_eq!(
            exact.cover(level.k),
            almost.cover(level.k),
            "{label}: k = {}",
            level.k
        );
    }
}

proptest! {
    /// Almost ≡ exact on random sparse graphs, every level. (With 16
    /// vertices and at most 60 edges no clique can cross the engine's
    /// small-clique threshold, so its counting pass is provably
    /// complete here; this pins the wiring, the presets below pin the
    /// big-clique paths.)
    #[test]
    fn almost_matches_exact_on_random_graphs(edges in edge_soup(16, 60)) {
        let g = Graph::from_edges(16, edges);
        let exact = percolate_mode(&g, Mode::Exact);
        let almost = percolate_mode(&g, Mode::Almost);
        let d = divergence(&exact, &almost);
        prop_assert!(d.is_zero(), "almost diverged from exact: {}", d);
        for level in &exact.levels {
            prop_assert_eq!(
                exact.cover(level.k),
                almost.cover(level.k),
                "k = {}", level.k
            );
        }
    }

    /// Three-way oracle at fixed k: the exact engine, the almost
    /// engine, and the literal definition agree on the single-level
    /// cover.
    #[test]
    fn three_way_oracle_at_fixed_k(edges in edge_soup(14, 50), k in 3usize..6) {
        let g = Graph::from_edges(14, edges);
        let exact = cover_in_mode(&g, k, Mode::Exact);
        let almost = cover_in_mode(&g, k, Mode::Almost);
        let naive = naive_communities(&g, k);
        prop_assert_eq!(&exact, &almost, "exact vs almost, k = {}", k);
        prop_assert_eq!(&exact, &naive, "exact vs naive, k = {}", k);
    }
}

/// Zero divergence on the tiny Internet preset across seeds — the
/// substrate family the paper's experiments run on, with its planted
/// crown of large overlapping cliques exercising the big-clique paths.
#[test]
fn almost_matches_exact_on_tiny_internet_presets() {
    for seed in [7, 42, 1001] {
        let topo = topology::generate(&topology::ModelConfig::tiny(seed)).expect("valid preset");
        assert_zero_divergence(&topo.graph, &format!("tiny({seed})"));
    }
}

/// Three-way oracle on a preset substrate at a mid-band k.
#[test]
fn three_way_oracle_on_tiny_internet() {
    let topo = topology::generate(&topology::ModelConfig::tiny(7)).expect("valid preset");
    let g = &topo.graph;
    for k in [3, 4, 6] {
        let exact = cover_in_mode(g, k, Mode::Exact);
        let almost = cover_in_mode(g, k, Mode::Almost);
        let naive = naive_communities(g, k);
        assert_eq!(exact, almost, "exact vs almost, k = {k}");
        assert_eq!(exact, naive, "exact vs naive, k = {k}");
    }
}

/// The parallel almost engine is bit-identical to the sequential one at
/// every worker count — the clique stream reaches the engine in
/// sequential order and the per-level partitions are order-free, so the
/// whole result is thread-count-invariant.
#[test]
fn parallel_almost_is_thread_count_invariant() {
    let topo = topology::generate(&topology::ModelConfig::tiny(42)).expect("valid preset");
    let g = &topo.graph;
    let sequential = cpm::percolate_parallel(g, 1, Mode::Almost);
    for workers in [2usize, 4, 7] {
        let parallel = cpm::percolate_parallel(g, workers, Mode::Almost);
        assert_eq!(
            sequential, parallel,
            "{workers} workers diverged from sequential"
        );
    }
}

/// The small preset (~2,000 ASes): release-profile job, same zero
/// verdict.
#[test]
#[ignore = "experiment-scale; run in release mode"]
fn almost_matches_exact_on_small_internet() {
    let topo = topology::generate(&topology::ModelConfig::small(42)).expect("valid preset");
    assert_zero_divergence(&topo.graph, "small(42)");
}

/// The medium preset (~10,000 ASes) — the substrate of the committed
/// ≥ 5× bench gate; zero divergence is what makes that speedup honest.
#[test]
#[ignore = "experiment-scale; run in release mode"]
fn almost_matches_exact_on_medium_internet() {
    let topo = topology::generate(&topology::ModelConfig::medium(42)).expect("valid preset");
    assert_zero_divergence(&topo.graph, "medium(42)");
}

/// The full preset (~35,000 ASes, the paper's scale), whose big cliques
/// span more than 256 hub vertices: the same zero verdict.
#[test]
#[ignore = "experiment-scale; run in release mode"]
fn almost_matches_exact_on_full_internet() {
    let topo = topology::generate(&topology::ModelConfig::full_scale(7)).expect("valid preset");
    assert_zero_divergence(&topo.graph, "full(7)");
}
