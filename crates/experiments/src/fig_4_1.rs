//! Figure 4.1 — number of k-clique communities vs k.
//!
//! Paper: 627 communities in total; hundreds at k=3..5, a handful above
//! k=29, unique communities at k ∈ {2, 21, 22, 25, 36}.

use crate::{Analysis, Artifact, Options};
use kclique_core::report::Table;

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let mut table = Table::new(vec!["k", "communities"]);
    for level in &analysis.result.levels {
        table.row(vec![
            level.k.to_string(),
            level.communities.len().to_string(),
        ]);
    }
    println!("Figure 4.1 — number of k-clique communities vs k");
    println!(
        "total communities: {} (paper: 627); unique levels: {:?} (paper: [2, 21, 22, 25, 36])\n",
        analysis.result.total_communities(),
        analysis.tree.unique_levels(),
    );
    print!("{}", table.render());
    let tsv = Artifact::new("fig_4_1.tsv", table.to_tsv());

    let plot = kclique_core::svg::ScatterPlot {
        title: "Figure 4.1 — number of k-clique communities vs k".into(),
        x_label: "k".into(),
        y_label: "communities".into(),
        log_y: true,
        series: vec![kclique_core::svg::Series {
            name: "communities".into(),
            points: analysis
                .result
                .levels
                .iter()
                .map(|l| (l.k as f64, l.communities.len() as f64))
                .collect(),
            filled: true,
        }],
    };
    vec![tsv, Artifact::new("fig_4_1.svg", plot.to_svg())]
}
