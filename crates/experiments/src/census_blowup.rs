//! The combinatorial census regime (§3's computational story).
//!
//! The 2010 dataset contained 2,730,916 maximal cliques — the reason the
//! paper needed the Lightweight Parallel CPM and 93 hours on 48 cores.
//! That blow-up is combinatorial, not size-driven: a cocktail-party
//! graph K(2×m) (a 2m-clique minus a perfect matching) has exactly 2^m
//! maximal cliques of size m, all pairwise overlapping in >= m-2 nodes,
//! forming a single m-clique community. This experiment sweeps m to show
//! the exponential census and the superlinear percolation cost, then
//! runs one integrated topology with `census_blowup_pairs` planted.
//!
//! The default reproduction deliberately avoids this regime so every
//! figure regenerates in seconds; this experiment demonstrates the regime on
//! demand.

use crate::{Analysis, Artifact, Options};
use asgraph::Graph;
use kclique_core::report::Table;
use std::time::Instant;

pub fn run(analysis: &Analysis, opts: &Options) -> Vec<Artifact> {
    println!("§3 census regime — cocktail-party sweep (2^m maximal cliques of size m)\n");
    let mut table = Table::new(vec![
        "m",
        "nodes",
        "maximal cliques",
        "expected 2^m",
        "enumerate",
        "percolate all k",
        "communities at k=m",
    ]);
    for m in [6usize, 8, 10, 12] {
        let g = Graph::cocktail_party(m);
        let t0 = Instant::now();
        let cliques = cliques::max_cliques(&g);
        let t_enum = t0.elapsed();
        assert_eq!(cliques.len(), 1usize << m, "census formula broke");
        assert!(cliques.iter().all(|c| c.len() == m));

        let t0 = Instant::now();
        let mut percolator = cpm::FusedPercolator::new(g.node_count(), cpm::Mode::Exact);
        for c in cliques.iter() {
            percolator.push(c);
        }
        let result = percolator
            .finish(1, None)
            .expect("uncancellable finish cannot be cancelled");
        let t_perc = t0.elapsed();
        let at_m = result
            .level(m as u32)
            .map(|l| l.communities.len())
            .unwrap_or(0);
        table.row(vec![
            m.to_string(),
            g.node_count().to_string(),
            cliques.len().to_string(),
            (1usize << m).to_string(),
            format!("{t_enum:.2?}"),
            format!("{t_perc:.2?}"),
            at_m.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\nall 2^m cliques overlap pairwise in >= m-2 nodes, so they form a single");
    println!("m-clique community — the cost explodes while the *answer* stays simple,");
    println!("which is exactly why the paper's CPM run took 93 h on 48 cores.\n");

    // Integrated run: plant the structure inside a synthetic topology.
    let mut config = opts.config();
    config.census_blowup_pairs = 10;
    let t0 = Instant::now();
    let topo = topology::generate(&config).expect("preset with blow-up is valid");
    let cliques = cliques::max_cliques(&topo.graph);
    println!(
        "integrated: {} topology + K(2×10) -> {} maximal cliques (baseline ~{}), in {:.2?}",
        opts.scale,
        cliques.len(),
        analysis.result.clique_count,
        t0.elapsed()
    );
    vec![Artifact::new("census_blowup.tsv", table.to_tsv())]
}
