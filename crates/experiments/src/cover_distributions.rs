//! Extension experiment: the four Palla cover distributions (community
//! size, membership number, overlap size, community degree) for selected
//! k, the canonical CFinder readouts the ICDCS paper summarises in
//! prose.

use crate::{Analysis, Artifact, Options};
use kclique_core::report::Table;

pub fn run(analysis: &Analysis, _opts: &Options) -> Vec<Artifact> {
    let n = analysis.topo.graph.node_count();

    let k_max = analysis.result.k_max().unwrap_or(2);
    let picks = [3u32, (k_max / 2).max(3), k_max.saturating_sub(2).max(3)];

    let mut artifacts = Vec::new();
    for &k in &picks {
        let Some(level) = analysis.result.level(k) else {
            continue;
        };
        let d = kclique_core::cover_distributions(level, n);

        println!("\n=== k = {k} ===");
        print_table(["community size", "count"], &d.community_size);
        print_table(["memberships per AS", "ASes"], &d.membership_number);

        let overlapping: usize = d
            .membership_number
            .iter()
            .filter(|&&(m, _)| m > 1)
            .map(|&(_, c)| c)
            .sum();
        println!(
            "ASes in more than one {k}-clique community: {overlapping} (covers, not partitions)"
        );

        if !d.overlap_size.is_empty() {
            print_table(["overlap size", "community pairs"], &d.overlap_size);
        }

        let mut tsv = String::from("kind\tx\tcount\n");
        for (kind, rows) in [
            ("size", &d.community_size),
            ("membership", &d.membership_number),
            ("overlap", &d.overlap_size),
            ("degree", &d.community_degree),
        ] {
            for (x, c) in rows {
                tsv.push_str(&format!("{kind}\t{x}\t{c}\n"));
            }
        }
        artifacts.push(Artifact::new(format!("cover_distributions_k{k}.tsv"), tsv));
    }
    artifacts
}

/// Prints a distribution as a two-column table.
fn print_table(headers: [&str; 2], rows: &[(usize, usize)]) {
    let mut t = Table::new(headers.to_vec());
    for (x, c) in rows {
        t.row(vec![x.to_string(), c.to_string()]);
    }
    print!("{}", t.render());
}
