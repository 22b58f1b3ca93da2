//! Runs the entire reproduction in one process: computes the shared
//! analysis once, then runs every experiment of
//! [`experiments::EXPERIMENTS`] over it in presentation order (or just
//! the one named by `--only`), and writes the artifacts when `--out` is
//! given.
//!
//! This is the binary behind `EXPERIMENTS.md`.

use experiments::{Options, EXPERIMENTS};

fn main() {
    let opts = Options::from_env();
    let analysis = opts.run_analysis();
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| opts.only.as_deref().is_none_or(|only| only == *name))
        .collect();
    for (name, run) in &selected {
        if opts.only.is_none() {
            println!("\n================================================================");
            println!("== {name}");
            println!("================================================================");
        }
        let artifacts = run(&analysis, &opts);
        let Some(dir) = &opts.out else { continue };
        std::fs::create_dir_all(dir).expect("create output dir");
        for artifact in artifacts {
            let path = dir.join(&artifact.name);
            std::fs::write(&path, artifact.contents).expect("write artifact");
            eprintln!("# wrote {}", path.display());
        }
    }
    if opts.only.is_none() {
        println!("\nall {} experiments completed", selected.len());
    }
}
