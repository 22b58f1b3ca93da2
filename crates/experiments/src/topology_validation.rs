//! Extension experiment: does the synthetic topology look like the
//! Internet?
//!
//! The substitution argument (DESIGN.md §1) claims the generator
//! reproduces the structural statistics that drive the paper's analysis.
//! This experiment checks the classics against their literature values
//! for the AS graph: power-law degree exponent ≈ 2.1 (Faloutsos³),
//! negative degree assortativity (customers attach to hubs), high
//! clustering relative to a degree-matched random graph, and a small
//! dense core (degeneracy far above the mean degree).

use crate::{Analysis, Artifact, Options};
use asgraph::rewire::rewire;
use asgraph::stats;
use kclique_core::report::{f3, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(analysis: &Analysis, opts: &Options) -> Vec<Artifact> {
    let g = &analysis.topo.graph;

    let deg = g.degrees();
    let alpha = stats::power_law_alpha(g, 6);
    let assort = stats::degree_assortativity(g);
    let clustering = stats::average_clustering(g);
    let degeneracy = asgraph::ordering::degeneracy_order(g).degeneracy;

    // Clustering of a degree-matched null model for contrast.
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x7a11);
    let (null, _) = rewire(g, 10 * g.edge_count(), &mut rng);
    let null_clustering = stats::average_clustering(&null);

    let mut table = Table::new(vec!["statistic", "synthetic", "AS-graph literature"]);
    table.row(vec![
        "nodes / edges".into(),
        format!("{} / {}", g.node_count(), g.edge_count()),
        "35,390 / 152,233 (paper)".into(),
    ]);
    table.row(vec![
        "mean / max degree".into(),
        format!("{:.1} / {}", deg.mean, deg.max),
        "8.6 / thousands".into(),
    ]);
    table.row(vec![
        "power-law alpha (k_min=6)".into(),
        alpha.map_or("n/a".into(), f3),
        "~2.1 (Faloutsos et al.)".into(),
    ]);
    table.row(vec![
        "degree assortativity".into(),
        assort.map_or("n/a".into(), f3),
        "~-0.2 (disassortative)".into(),
    ]);
    table.row(vec![
        "avg clustering".into(),
        f3(clustering),
        "0.2-0.4".into(),
    ]);
    table.row(vec![
        "avg clustering, degree-matched null".into(),
        f3(null_clustering),
        "~0 (structure, not degrees)".into(),
    ]);
    table.row(vec![
        "degeneracy (max k-core)".into(),
        degeneracy.to_string(),
        "20-30 (small dense core)".into(),
    ]);
    let hist = stats::degree_histogram(g);
    let stubs_deg_le3 = hist
        .iter()
        .filter(|&&(d, _)| d <= 3)
        .map(|&(_, c)| c)
        .sum::<usize>();
    table.row(vec![
        "share of ASes with degree <= 3".into(),
        f3(stubs_deg_le3 as f64 / g.node_count() as f64),
        "~0.75 (stub-dominated)".into(),
    ]);
    println!("topology realism check (see DESIGN.md §1 for why these matter)\n");
    print!("{}", table.render());

    // Hard checks: fail loudly if the generator drifts.
    let alpha = alpha.expect("heavy tail exists");
    assert!(alpha > 1.6 && alpha < 3.2, "alpha {alpha} out of band");
    let assort = assort.expect("degree variance exists");
    assert!(
        assort < 0.0,
        "AS graph must be disassortative, got {assort}"
    );
    assert!(clustering > 3.0 * null_clustering.max(1e-6) || clustering > 0.1);
    println!("\nall realism checks passed");
    vec![Artifact::new("topology_validation.tsv", table.to_tsv())]
}
