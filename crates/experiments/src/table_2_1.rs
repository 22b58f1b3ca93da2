//! Table 2.1 — on-IXP vs not-on-IXP AS counts.
//!
//! Paper (35,390 ASes, 232 IXPs): on-IXP 4,462 | not-on-IXP 30,928.

use crate::{Analysis, Artifact, Options};
use kclique_core::report::{pct, Table};

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let summary = analysis.topo.tag_summary();
    let n = analysis.topo.graph.node_count();

    let mut table = Table::new(vec!["tag", "ases", "share"]);
    table.row(vec![
        "on-IXP".into(),
        summary.on_ixp.to_string(),
        pct(summary.on_ixp as f64 / n as f64),
    ]);
    table.row(vec![
        "not-on-IXP".into(),
        summary.not_on_ixp.to_string(),
        pct(summary.not_on_ixp as f64 / n as f64),
    ]);
    println!(
        "Table 2.1 — IXP tagging ({} IXPs, {} ASes)",
        analysis.topo.ixps.len(),
        n
    );
    println!("paper: on-IXP 4,462 (12.6%) | not-on-IXP 30,928 (87.4%)\n");
    print!("{}", table.render());
    vec![Artifact::new("table_2_1.tsv", table.to_tsv())]
}
