//! Figure 4.4 — link density (a) and average Out-Degree Fraction (b) of
//! every community vs k, main and parallel series.
//!
//! Paper's three regimes: main communities with k in 2..=30 are long
//! low-density chains with low ODF; communities with size close to k
//! (main k in 31..=36 and most parallels) are clique-like with high
//! density AND high ODF; small low-k parallels fluctuate.

use crate::{main_vs_parallel_svg, Analysis, Artifact, Options};
use kclique_core::report::{f3, Table};
use kclique_core::split_series;

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let (main, parallel) = split_series(&analysis.rows);

    let mut table = Table::new(vec!["k", "id", "series", "link_density", "avg_odf"]);
    for r in main.iter().chain(&parallel) {
        table.row(vec![
            r.id.k.to_string(),
            r.id.to_string(),
            if r.is_main { "main" } else { "parallel" }.into(),
            f3(r.link_density),
            f3(r.average_odf),
        ]);
    }

    println!("Figure 4.4 — link density (a) and average ODF (b) vs k\n");
    let k_max = analysis.result.k_max().unwrap_or(2);
    let low_band = |r: &&kclique_core::MetricRow| r.id.k >= 3 && r.id.k <= (2 * k_max / 3);
    let main_low: Vec<f64> = main
        .iter()
        .copied()
        .filter(low_band)
        .map(|r| r.link_density)
        .collect();
    let par_dense = parallel.iter().filter(|r| r.link_density > 0.8).count();
    println!(
        "mean link density of main communities below the crown: {} (paper: low, chain-like)",
        f3(mean(&main_low))
    );
    println!(
        "parallel communities with density > 0.8: {}/{} (paper: clique-like parallels)",
        par_dense,
        parallel.len()
    );
    let main_odf_low: Vec<f64> = main
        .iter()
        .copied()
        .filter(low_band)
        .map(|r| r.average_odf)
        .collect();
    let crown_main_odf: Vec<f64> = main
        .iter()
        .filter(|r| r.id.k > 2 * k_max / 3)
        .map(|r| r.average_odf)
        .collect();
    println!(
        "mean main ODF below crown: {} vs in crown: {} (paper: rises toward the crown)\n",
        f3(mean(&main_odf_low)),
        f3(mean(&crown_main_odf))
    );
    print!("{}", table.render());
    let density = main_vs_parallel_svg(
        "Figure 4.4(a) — link density vs k",
        "link density",
        false,
        (&main, &parallel),
        |r| r.link_density,
    );
    let odf = main_vs_parallel_svg(
        "Figure 4.4(b) — average ODF vs k",
        "average ODF",
        false,
        (&main, &parallel),
        |r| r.average_odf,
    );
    vec![
        Artifact::new("fig_4_4.tsv", table.to_tsv()),
        Artifact::new("fig_4_4a.svg", density),
        Artifact::new("fig_4_4b.svg", odf),
    ]
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
