//! §2.1 / §3 dataset summary: the measurement merge pipeline and the
//! maximal-clique census.
//!
//! Paper: 35,390 ASes / 152,233 connections after merging three
//! campaigns; 2,730,916 maximal cliques, 88% with k in 18..=28.

use crate::{Analysis, Artifact, Options};
use kclique_core::report::{pct, Table};

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let topo = &analysis.topo;

    println!("Dataset summary (§2.1 methodology, §3 clique census)\n");

    let mut artifacts = Vec::new();
    if let Some(r) = &topo.merge_report {
        let campaigns = r.campaign_edge_counts.iter().enumerate();
        let mut stages = vec![("ground-truth edges".to_owned(), r.true_edges)];
        stages.extend(campaigns.map(|(i, &c)| (format!("campaign {} observations", i + 1), c)));
        stages.extend(
            [
                ("union (merged) edges", r.union_edges),
                ("spurious injected", r.spurious_injected),
                ("removed by cleanup", r.removed_by_cleanup),
                ("true edges never observed", r.true_edges_missed),
                ("nodes outside largest component", r.nodes_dropped),
                ("final ASes", r.final_nodes),
                ("final connections", r.final_edges),
            ]
            .map(|(stage, value)| (stage.to_owned(), value)),
        );
        let mut table = Table::new(vec!["pipeline stage", "value"]);
        for (stage, value) in stages {
            table.row(vec![stage, value.to_string()]);
        }
        println!("{}", table.render());
        artifacts.push(Artifact::new("dataset_merge.tsv", table.to_tsv()));
    }

    // Maximal clique census (§3): count and dominant band.
    let cliques = cliques::max_cliques(&analysis.topo.graph);
    let hist = cliques.size_histogram();
    let mut table = Table::new(vec!["clique size k", "maximal cliques"]);
    for (size, count) in &hist {
        table.row(vec![size.to_string(), count.to_string()]);
    }
    println!(
        "Maximal cliques: {} total (paper: 2,730,916)",
        cliques.len()
    );
    // Find the densest band covering ~88% the way the paper reports
    // [18:28]: report the tightest band holding >= 80% of cliques.
    let (lo, hi, frac) = dominant_band(&hist, cliques.len());
    println!(
        "dominant band: {frac} of maximal cliques have k in [{lo}:{hi}] (paper: 88% in [18:28])",
        frac = pct(frac)
    );
    // The paper's graph, measured from noisy 2010 campaigns, had a
    // combinatorial blow-up of mid-k cliques (2.7 M — the reason CPM took
    // 93 h on 48 cores). Our synthetic graph keeps the dense zone without
    // the blow-up, so also report the band among non-trivial cliques.
    let nontrivial: Vec<(usize, usize)> = hist.iter().copied().filter(|&(s, _)| s >= 5).collect();
    let nt_total: usize = nontrivial.iter().map(|&(_, c)| c).sum();
    let (nlo, nhi, nfrac) = dominant_band(&nontrivial, nt_total);
    println!(
        "band among cliques of size >= 5: {} in [{nlo}:{nhi}] ({} cliques)\n",
        pct(nfrac),
        nt_total
    );
    print!("{}", table.render());
    artifacts.push(Artifact::new("clique_census.tsv", table.to_tsv()));
    artifacts
}

/// The tightest contiguous size band containing at least 80% of cliques.
fn dominant_band(hist: &[(usize, usize)], total: usize) -> (usize, usize, f64) {
    if hist.is_empty() || total == 0 {
        return (0, 0, 0.0);
    }
    let target = (total as f64 * 0.8).ceil() as usize;
    // (width, lo, hi, covered): `total` is the sum of `hist`, so some
    // band qualifies.
    let mut best = (usize::MAX, 0, 0, 0);
    for i in 0..hist.len() {
        let mut covered = 0;
        for j in i..hist.len() {
            covered += hist[j].1;
            if covered >= target {
                let width = hist[j].0 - hist[i].0;
                if width < best.0 {
                    best = (width, hist[i].0, hist[j].0, covered);
                }
                break;
            }
        }
    }
    (best.1, best.2, best.3 as f64 / total as f64)
}
