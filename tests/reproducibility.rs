//! Determinism guarantees: identical seeds give identical analyses,
//! thread counts never change results, and the measurement pipeline is
//! stable.

use kclique::analysis::analyze;
use kclique::cpm;
use kclique::topology::{generate, ModelConfig};

#[test]
fn same_seed_same_everything() {
    let a = analyze(&ModelConfig::tiny(99), 2).unwrap();
    let b = analyze(&ModelConfig::tiny(99), 2).unwrap();
    assert_eq!(a.topo.graph, b.topo.graph);
    assert_eq!(a.result.total_communities(), b.result.total_communities());
    assert_eq!(a.tree.main_path(), b.tree.main_path());
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.infos, b.infos);
    assert_eq!(a.bounds, b.bounds);
}

#[test]
fn different_seed_different_topology() {
    let a = generate(&ModelConfig::tiny(1)).unwrap();
    let b = generate(&ModelConfig::tiny(2)).unwrap();
    assert_ne!(a.graph, b.graph);
}

#[test]
fn thread_count_is_invisible() {
    let topo = generate(&ModelConfig::tiny(5)).unwrap();
    let seq = cpm::percolate(&topo.graph);
    for threads in [1usize, 2, 3, 5] {
        let par = cpm::percolate_parallel(&topo.graph, threads, cpm::Mode::Exact);
        assert_eq!(seq.levels.len(), par.levels.len(), "threads {threads}");
        for (ls, lp) in seq.levels.iter().zip(par.levels.iter()) {
            assert_eq!(ls.communities, lp.communities, "level {} mismatch", ls.k);
        }
    }
}

#[test]
fn measurement_toggle_only_shrinks_the_graph() {
    let mut with = ModelConfig::tiny(11);
    with.simulate_measurement = true;
    let mut without = with.clone();
    without.simulate_measurement = false;
    let measured = generate(&with).unwrap();
    let truth = generate(&without).unwrap();
    assert!(measured.graph.node_count() <= truth.graph.node_count());
    assert!(
        measured.graph.edge_count() <= truth.graph.edge_count() + truth.graph.edge_count() / 50
    );
    assert!(measured.merge_report.is_some());
    assert!(truth.merge_report.is_none());
}

#[test]
fn edge_list_round_trip_preserves_percolation() {
    // Serialise the topology, read it back, re-run CPM: identical cover.
    let topo = generate(&ModelConfig::tiny(3)).unwrap();
    let text = kclique::graph::io::to_edge_list_string(&topo.graph);
    let reread = kclique::graph::io::parse_edge_list(&text).unwrap();
    let a = cpm::percolate(&topo.graph);
    let b = cpm::percolate(&reread);
    assert_eq!(a.total_communities(), b.total_communities());
    assert_eq!(a.k_max(), b.k_max());
}
