//! Figure 4.2 — the k-clique community tree.
//!
//! Emits the paper's tree (main communities filled black, parallel
//! communities as branches) as Graphviz DOT, plus a branch census.
//! Paper: 34 main communities above the 36-clique community; parallel
//! branches at k in 11..=17, 18..=20, 26..=29, 31..=35.

use crate::{Analysis, Artifact, Options};
use kclique_core::report::Table;

pub fn run(analysis: &Analysis, opts: &Options) -> Vec<Artifact> {
    let tree = &analysis.tree;

    println!("Figure 4.2 — k-clique community tree");
    println!(
        "nodes: {}  main path length: {} (paper: 35 levels, k=2..=36)  parallel: {}\n",
        tree.len(),
        tree.main_path().len(),
        tree.parallel_count()
    );

    let branches = tree.branches();
    let mut table = Table::new(vec!["branch", "k range", "length", "sizes"]);
    for (i, b) in branches.iter().enumerate() {
        let k_lo = b.first().map(|id| id.k).unwrap_or(0);
        let k_hi = b.last().map(|id| id.k).unwrap_or(0);
        let sizes: Vec<String> = b
            .iter()
            .map(|id| tree.node(*id).map_or(0, |n| n.size).to_string())
            .collect();
        table.row(vec![
            i.to_string(),
            format!("[{k_lo}:{k_hi}]"),
            b.len().to_string(),
            sizes.join(","),
        ]);
    }
    println!(
        "parallel branches: {} (paper shows branches at [11:17], [18:20], [26:29], [31:35])",
        branches.len()
    );
    let long_branches = branches.iter().filter(|b| b.len() >= 2).count();
    println!("branches spanning >= 2 levels: {long_branches}");
    if let Some(mean) = tree.mean_absorption_time() {
        println!(
            "mean absorption time: {mean:.2} levels; histogram {:?} (paper §5: parallels are 'rapidly incorporated')\n",
            tree.absorption_histogram()
        );
    }
    print!("{}", table.render());
    if opts.out.is_none() {
        println!("\n(pass --out <dir> to write the Graphviz DOT of the tree)");
    }

    // The DOT rendition, hiding k <= 5 as the paper does for readability.
    vec![
        Artifact::new("fig_4_2.dot", tree.to_dot(6)),
        Artifact::new("fig_4_2_branches.tsv", table.to_tsv()),
    ]
}
