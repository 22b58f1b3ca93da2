//! §2.1 / §3 dataset summary: the measurement merge pipeline and the
//! maximal-clique census.
//!
//! Paper: 35,390 ASes / 152,233 connections after merging three
//! campaigns; 2,730,916 maximal cliques, 88% with k in 18..=28.

use experiments::Options;
use kclique_core::report::{pct, Table};

fn main() {
    let opts = Options::from_env();
    let analysis = opts.run_analysis();
    let topo = &analysis.topo;

    println!("Dataset summary (§2.1 methodology, §3 clique census)\n");

    if let Some(r) = &topo.merge_report {
        let mut table = Table::new(vec!["pipeline stage", "value"]);
        table.row(vec!["ground-truth edges".into(), r.true_edges.to_string()]);
        for (i, c) in r.campaign_edge_counts.iter().enumerate() {
            table.row(vec![
                format!("campaign {} observations", i + 1),
                c.to_string(),
            ]);
        }
        table.row(vec![
            "union (merged) edges".into(),
            r.union_edges.to_string(),
        ]);
        table.row(vec![
            "spurious injected".into(),
            r.spurious_injected.to_string(),
        ]);
        table.row(vec![
            "removed by cleanup".into(),
            r.removed_by_cleanup.to_string(),
        ]);
        table.row(vec![
            "true edges never observed".into(),
            r.true_edges_missed.to_string(),
        ]);
        table.row(vec![
            "nodes outside largest component".into(),
            r.nodes_dropped.to_string(),
        ]);
        table.row(vec!["final ASes".into(), r.final_nodes.to_string()]);
        table.row(vec!["final connections".into(), r.final_edges.to_string()]);
        println!("{}", table.render());
        opts.write_artifact("dataset_merge.tsv", &table.to_tsv());
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
    opts.write_artifact("clique_census.tsv", &table.to_tsv());
}

/// The tightest contiguous size band containing at least 80% of cliques.
fn dominant_band(hist: &[(usize, usize)], total: usize) -> (usize, usize, f64) {
    if hist.is_empty() || total == 0 {
        return (0, 0, 0.0);
    }
    let target = (total as f64 * 0.8).ceil() as usize;
    let mut best: Option<(usize, usize, usize)> = None; // (width, lo, hi)
    for i in 0..hist.len() {
        let mut covered = 0;
        for j in i..hist.len() {
            covered += hist[j].1;
            if covered >= target {
                let width = hist[j].0 - hist[i].0;
                if best.is_none_or(|b| width < b.0) {
                    best = Some((width, hist[i].0, hist[j].0));
                }
                break;
            }
        }
    }
    match best {
        Some((_, lo, hi)) => {
            let covered: usize = hist
                .iter()
                .filter(|(s, _)| (lo..=hi).contains(s))
                .map(|(_, c)| c)
                .sum();
            (lo, hi, covered as f64 / total as f64)
        }
        None => {
            let lo = hist.first().map(|h| h.0).unwrap_or(0);
            let hi = hist.last().map(|h| h.0).unwrap_or(0);
            (lo, hi, 1.0)
        }
    }
}
