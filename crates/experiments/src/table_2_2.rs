//! Table 2.2 — geographical tagging census.
//!
//! Paper: national 31,228 | continental 1,115 | worldwide 1,568 |
//! unknown 1,479.

use crate::{Analysis, Artifact, Options};
use kclique_core::report::{pct, Table};

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let s = analysis.topo.tag_summary();
    let n = analysis.topo.graph.node_count();

    let mut table = Table::new(vec!["tag", "ases", "share"]);
    for (name, count) in [
        ("national", s.national),
        ("continental", s.continental),
        ("worldwide", s.worldwide),
        ("unknown", s.unknown),
    ] {
        table.row(vec![
            name.into(),
            count.to_string(),
            pct(count as f64 / n as f64),
        ]);
    }
    println!("Table 2.2 — geographical tagging ({n} ASes)");
    println!("paper: national 31,228 (88.2%) | continental 1,115 (3.2%) | worldwide 1,568 (4.4%) | unknown 1,479 (4.2%)\n");
    print!("{}", table.render());
    vec![Artifact::new("table_2_2.tsv", table.to_tsv())]
}
