//! Figure 4.3 — size of k-clique communities vs k, split into main and
//! parallel series.
//!
//! Paper: the main community covers all 35,390 ASes at k=2 and shrinks
//! rapidly; parallel communities have sizes close to k.

use crate::{main_vs_parallel_svg, Analysis, Artifact, Options};
use kclique_core::report::{f3, Table};
use kclique_core::split_series;

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let (main, parallel) = split_series(&analysis.rows);

    let mut table = Table::new(vec!["k", "id", "series", "size"]);
    for r in main.iter().chain(&parallel) {
        table.row(vec![
            r.id.k.to_string(),
            r.id.to_string(),
            if r.is_main { "main" } else { "parallel" }.into(),
            r.size.to_string(),
        ]);
    }

    println!("Figure 4.3 — community size vs k (main vs parallel)\n");
    // Headline checks from the paper.
    let n = analysis.topo.graph.node_count();
    let main2 = main.iter().find(|r| r.id.k == 2).map_or(0, |r| r.size);
    let main3 = main.iter().find(|r| r.id.k == 3).map_or(0, |r| r.size);
    println!("main community size at k=2: {main2} of {n} (paper: the whole dataset)");
    println!(
        "main community share at k=3: {} (paper: 69%)",
        f3(main3 as f64 / n as f64)
    );
    let near_k = parallel
        .iter()
        .filter(|r| r.size <= 2 * r.id.k as usize)
        .count();
    println!(
        "parallel communities with size <= 2k: {near_k}/{} (paper: the vast majority are close to k)\n",
        parallel.len()
    );
    print!("{}", table.render());
    let svg = main_vs_parallel_svg(
        "Figure 4.3 — community size vs k",
        "size (ASes)",
        true,
        (&main, &parallel),
        |r| r.size as f64,
    );
    vec![
        Artifact::new("fig_4_3.tsv", table.to_tsv()),
        Artifact::new("fig_4_3.svg", svg),
    ]
}
