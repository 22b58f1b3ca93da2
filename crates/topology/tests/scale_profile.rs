//! Heavier profile checks at experiment scale. Ignored by default; run
//! with `cargo test --release -p topology --test scale_profile -- --ignored --nocapture`.

use std::time::Instant;
use topology::{generate, ModelConfig};

#[test]
#[ignore = "experiment-scale; run in release mode"]
fn default_scale_profile() {
    let cfg = ModelConfig::default_scale(42);
    let t0 = Instant::now();
    let topo = generate(&cfg).expect("valid config");
    let t_gen = t0.elapsed();
    let t0 = Instant::now();
    let result = cpm::percolate_parallel(&topo.graph, 8, cpm::Mode::Exact);
    let t_cpm = t0.elapsed();
    println!(
        "nodes={} edges={} cliques={} k_max={:?} total_communities={} gen={t_gen:?} cpm={t_cpm:?}",
        topo.graph.node_count(),
        topo.graph.edge_count(),
        result.clique_count,
        result.k_max(),
        result.total_communities()
    );
    for level in &result.levels {
        let max = level
            .communities
            .iter()
            .map(|c| c.size())
            .max()
            .unwrap_or(0);
        println!(
            "k={:2} communities={:4} max_size={max}",
            level.k,
            level.communities.len()
        );
    }
    assert!(result.k_max().unwrap() >= 18);
    assert_eq!(result.level(2).unwrap().communities.len(), 1);

    // Figure 4.1 shape at experiment scale: low-k communities dominate.
    let low: usize = (3..=5)
        .filter_map(|k| result.level(k))
        .map(|l| l.communities.len())
        .sum();
    let k_max = result.k_max().unwrap();
    let high: usize = (k_max - 2..=k_max)
        .filter_map(|k| result.level(k))
        .map(|l| l.communities.len())
        .sum();
    assert!(low > 10 * high, "low-k {low} vs high-k {high}");
}

#[test]
#[ignore = "experiment-scale; run in release mode"]
fn full_scale_profile() {
    // Paper-size run: 35k ASes. The paper's crown/trunk/root dominance
    // ordering must hold here.
    let cfg = ModelConfig::full_scale(42);
    let t0 = Instant::now();
    let topo = generate(&cfg).expect("valid config");
    let t_gen = t0.elapsed();
    let t0 = Instant::now();
    let result = cpm::percolate_parallel(&topo.graph, 8, cpm::Mode::Exact);
    let t_cpm = t0.elapsed();
    println!(
        "full scale: nodes={} edges={} cliques={} k_max={:?} communities={} gen={t_gen:?} cpm={t_cpm:?}",
        topo.graph.node_count(),
        topo.graph.edge_count(),
        result.clique_count,
        result.k_max(),
        result.total_communities()
    );
    assert!(topo.graph.node_count() > 30_000);
    assert!(result.k_max().unwrap() >= 24);
    assert_eq!(result.level(2).unwrap().communities.len(), 1);
}
