//! Runs the entire reproduction: launches each experiment binary in
//! [`BINARIES`] as a child process with the same flags, one after the
//! other. Each child generates its own topology and percolates it
//! afresh; nothing is shared between them. Writes all artefacts when
//! `--out` is given.
//!
//! This is the binary behind `EXPERIMENTS.md`.

use experiments::Options;
use std::process::Command;

/// Experiment binaries in presentation order: first the paper's own
/// artefacts, then the extension experiments.
const BINARIES: &[&str] = &[
    // paper artefacts
    "dataset_summary",
    "table_2_1",
    "table_2_2",
    "fig_4_1",
    "fig_4_2",
    "fig_4_3",
    "fig_4_4",
    "overlap_analysis",
    "ixp_analysis",
    "crown_trunk_root",
    "baseline_comparison",
    // extensions
    "topology_validation",
    "community_significance",
    "zp_analysis",
    "cover_distributions",
    "evolution",
    "directed_cpm",
    "census_blowup",
];

fn main() {
    // Validate flags once up front (each child re-parses them).
    let _ = Options::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe = std::env::current_exe().expect("current exe path");
    let bin_dir = exe.parent().expect("exe has a directory");

    let mut failures = Vec::new();
    for name in BINARIES {
        println!("\n================================================================");
        println!("== {name}");
        println!("================================================================");
        let path = bin_dir.join(name);
        let status = Command::new(&path)
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        if !status.success() {
            failures.push(*name);
        }
    }
    if !failures.is_empty() {
        eprintln!("\nFAILED experiments: {failures:?}");
        std::process::exit(1);
    }
    println!("\nall {} experiments completed", BINARIES.len());
}
