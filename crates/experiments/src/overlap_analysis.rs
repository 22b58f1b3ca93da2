//! §4 overlap analysis between communities of the same k.
//!
//! Paper: every parallel community shares at least one AS with its main
//! community (6 exceptions); per-k parallel↔main average overlap
//! fraction always > 0.43; mean over k 0.704, variance 0.023;
//! parallel↔parallel too variable to summarise (variance 0.136).

use crate::{Analysis, Artifact, Options};
use kclique_core::report::{f3, Table};

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let report = kclique_core::overlap_report(&analysis.result, &analysis.tree);

    let mut table = Table::new(vec![
        "k",
        "parallel",
        "pm_avg",
        "pm_min",
        "pm_disjoint",
        "pp_avg",
        "pp_disjoint_pairs",
    ]);
    for s in &report.per_k {
        table.row(vec![
            s.k.to_string(),
            s.parallel_count.to_string(),
            s.parallel_main_avg.map_or("-".into(), f3),
            s.parallel_main_min.map_or("-".into(), f3),
            s.parallel_disjoint_from_main.to_string(),
            s.parallel_parallel_avg.map_or("-".into(), f3),
            format!(
                "{}/{}",
                s.parallel_parallel_disjoint, s.parallel_parallel_pairs
            ),
        ]);
    }

    println!("§4 — same-k overlap fractions (pm = parallel vs main, pp = parallel pairs)\n");
    println!(
        "parallel↔main mean over k: {} (paper: 0.704), variance: {} (paper: 0.023)",
        report.parallel_main_mean.map_or("-".into(), f3),
        report.parallel_main_variance.map_or("-".into(), f3),
    );
    println!(
        "parallel↔parallel mean over k: {}, variance: {} (paper: variance 0.136 — too high to summarise)",
        report.parallel_parallel_mean.map_or("-".into(), f3),
        report.parallel_parallel_variance.map_or("-".into(), f3),
    );
    println!(
        "parallel communities disjoint from their main community: {} (paper: 6)\n",
        report.total_disjoint_from_main
    );
    print!("{}", table.render());
    vec![Artifact::new("overlap_analysis.tsv", table.to_tsv())]
}
