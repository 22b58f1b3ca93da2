//! Integration coverage of the extension subsystems through the facade.

use kclique::baselines::louvain::louvain;
use kclique::cpm;
use kclique::graph::digraph::DiGraph;
use kclique::graph::rewire::rewire;
use kclique::topology::{evolve, generate, EvolveConfig, ModelConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny() -> kclique::topology::AsTopology {
    generate(&ModelConfig::tiny(42)).expect("valid config")
}

#[test]
fn naive_and_reduction_agree_on_the_topology() {
    let topo = tiny();
    for k in [3usize, 4, 5] {
        assert_eq!(
            cpm::naive::naive_communities(&topo.graph, k),
            cpm::percolate(&topo.graph).cover(k as u32),
            "k = {k}"
        );
    }
}

#[test]
fn weighted_with_uniform_weights_matches_unweighted() {
    let topo = tiny();
    let mut b = kclique::graph::weighted::WeightedGraphBuilder::with_nodes(topo.graph.node_count());
    for (u, v) in topo.graph.edges() {
        b.add_edge(u, v, 1.0);
    }
    let wg = b.build();
    assert_eq!(
        cpm::weighted::weighted_communities(&wg, 4, 0.0),
        cpm::percolate(&topo.graph).cover(4)
    );
    // A huge threshold kills everything.
    assert!(cpm::weighted::weighted_communities(&wg, 4, 10.0).is_empty());
}

#[test]
fn directed_cover_is_coarser_or_equal_under_total_order() {
    let topo = tiny();
    let rank: Vec<u64> = topo
        .graph
        .node_ids()
        .map(|v| topo.graph.degree(v) as u64)
        .collect();
    let dig = DiGraph::orient_by_rank(&topo.graph, &rank);
    // Total-order orientation keeps every clique transitive: identical
    // covers.
    assert_eq!(
        cpm::directed::directed_communities(&dig, 3),
        cpm::percolate(&topo.graph).cover(3)
    );
}

#[test]
fn louvain_and_cpm_are_complementary() {
    let topo = tiny();
    let p = louvain(&topo.graph);
    assert!(p.modularity > 0.2);
    // Louvain covers everything exactly once; CPM at k=4 covers a dense
    // subset with overlaps.
    let total: usize = p.members().iter().map(Vec::len).sum();
    assert_eq!(total, topo.graph.node_count());
    let cover = cpm::percolate(&topo.graph).cover(4);
    let covered: usize = cover.iter().map(Vec::len).sum();
    assert!(covered < topo.graph.node_count());
}

#[test]
fn rewiring_preserves_degrees_but_not_communities() {
    let topo = tiny();
    let mut rng = StdRng::seed_from_u64(1);
    let (null, _) = rewire(&topo.graph, 10 * topo.graph.edge_count(), &mut rng);
    for v in topo.graph.node_ids() {
        assert_eq!(topo.graph.degree(v), null.degree(v));
    }
    let orig = cpm::percolate(&topo.graph);
    let nullr = cpm::percolate(&null);
    assert!(nullr.k_max().unwrap_or(0) < orig.k_max().unwrap());
}

#[test]
fn evolution_chain_keeps_analysis_runnable() {
    let mut topo = tiny();
    let mut results = vec![cpm::percolate(&topo.graph)];
    for step in 0..2u64 {
        let (next, churn) = evolve(
            &topo,
            &EvolveConfig {
                seed: step,
                ..Default::default()
            },
        );
        assert!(churn.births > 0);
        results.push(cpm::percolate(&next.graph));
        topo = next;
    }
    let step = kclique::analysis::evolution::match_covers(&results[0], &results[1], 4, 0.3);
    let matched = step.matches.iter().filter(|m| m.new.is_some()).count();
    assert!(matched > 0, "no community survived one churn step");
    let lifetimes = kclique::analysis::evolution::lifetimes(&results, 4, 0.3);
    assert!(!lifetimes.is_empty());
}

#[test]
fn dataset_round_trip_through_facade() {
    let topo = tiny();
    let dir = std::env::temp_dir().join(format!("kclique_ext_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    kclique::topology::io::save_dataset(&topo, &dir).unwrap();
    let loaded = kclique::topology::io::load_dataset(&dir).unwrap();
    assert_eq!(topo.graph, loaded.graph);
    assert_eq!(topo.tag_summary(), loaded.tag_summary());
    std::fs::remove_dir_all(&dir).unwrap();
}
