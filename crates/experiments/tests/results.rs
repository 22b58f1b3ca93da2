//! The committed `results/` directories are what the code produces.
//!
//! Each check computes the analysis in process, runs every experiment
//! over it and compares the artifacts with one committed directory: the
//! same set of file names, and every byte equal outside the declared
//! timing columns ([`experiments::TIMING_COLUMNS`]). Regenerate a
//! directory with `repro_all --scale <scale> --seed 42 --out <dir>`.

use experiments::{without_timings, Options, EXPERIMENTS};
use std::collections::BTreeMap;
use std::path::Path;

fn check(scale: &str, dir: &str) {
    let opts = Options {
        scale: scale.to_owned(),
        seed: 42,
        ..Options::default()
    };
    let analysis = opts.run_analysis();
    let fresh: BTreeMap<String, String> = EXPERIMENTS
        .iter()
        .flat_map(|(_, run)| run(&analysis, &opts))
        .map(|a| (a.name, a.contents))
        .collect();

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(dir);
    let mut committed = BTreeMap::new();
    for entry in std::fs::read_dir(&path).expect("committed results directory") {
        let entry = entry.expect("directory entry");
        if entry.file_type().expect("file type").is_file() {
            let name = entry.file_name().into_string().expect("UTF-8 file name");
            let contents = std::fs::read_to_string(entry.path()).expect("UTF-8 artifact");
            committed.insert(name, contents);
        }
    }

    assert_eq!(
        committed.keys().collect::<Vec<_>>(),
        fresh.keys().collect::<Vec<_>>(),
        "{dir}: file names differ from a fresh run"
    );
    let stale: Vec<&String> = fresh
        .iter()
        .filter(|(name, contents)| {
            without_timings(name, contents) != without_timings(name, &committed[*name])
        })
        .map(|(name, _)| name)
        .collect();
    assert!(
        stale.is_empty(),
        "{dir}: {stale:?} differ from a fresh run at --scale {scale} --seed 42"
    );
}

#[test]
fn tiny_results_are_current() {
    check("tiny", "results/tiny");
}

#[test]
#[ignore = "about 8 s in a release build"]
fn default_results_are_current() {
    check("default", "results");
}

#[test]
#[ignore = "about 30 s in a release build"]
fn full_results_are_current() {
    check("full", "results/full");
}
