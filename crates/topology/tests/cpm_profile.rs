//! End-to-end qualitative checks: the generated topology's k-clique
//! community profile must have the paper's shape (run with
//! `-- --nocapture` to see the profile).

use topology::{generate, ModelConfig};

#[test]
fn tiny_topology_has_paper_shaped_profile() {
    let cfg = ModelConfig::tiny(42);
    let topo = generate(&cfg).expect("valid config");
    let result = cpm::percolate(&topo.graph);

    let k_max = result.k_max().expect("graph has edges") as usize;
    println!(
        "nodes={} edges={} cliques={} k_max={k_max}",
        topo.graph.node_count(),
        topo.graph.edge_count(),
        result.clique_count
    );
    for level in &result.levels {
        let sizes: Vec<usize> = level.communities.iter().map(|c| c.size()).collect();
        let max = sizes.iter().max().copied().unwrap_or(0);
        println!(
            "k={:2} communities={:3} max_size={max}",
            level.k,
            level.communities.len()
        );
    }

    // k_max reaches (at least close to) the planted crown band.
    assert!(
        k_max + 2 >= cfg.crown_clique_size.0,
        "k_max {k_max} below crown band {:?}",
        cfg.crown_clique_size
    );

    // Single 2-clique community (the dataset is one connected component).
    assert_eq!(result.level(2).unwrap().communities.len(), 1);

    // Community counts: more at low/mid k than at high k (Figure 4.1's
    // shape; absolute counts scale with n, so stay proportional here).
    let low: usize = (3..=5)
        .map(|k| result.level(k).unwrap().communities.len())
        .sum();
    let high = result.level(k_max as u32).unwrap().communities.len();
    // The paper has 208 parallel communities at k=3 for 35k ASes, i.e.
    // ~0.6% of nodes; proportionally 400 nodes warrant only a handful.
    assert!(low >= 8, "only {low} communities at k in 3..=5");
    assert!(high <= 3, "{high} communities at k_max");

    // The main community at k=3 covers a large share of the graph
    // (the paper: 69%).
    let max3 = result
        .level(3)
        .unwrap()
        .communities
        .iter()
        .map(|c| c.size())
        .max()
        .unwrap();
    assert!(
        max3 * 3 > topo.graph.node_count(),
        "main 3-community covers only {max3}/{}",
        topo.graph.node_count()
    );
}
