//! A clique log is just another clique source: `communities --log` on a
//! log prints, byte for byte, what `communities --input` prints on the
//! edge list the log was built from — per-level table and single-k
//! cover, in both modes.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_kclique-cli"))
        .args(args)
        .output()
        .expect("spawn kclique-cli");
    assert_eq!(output.status.code(), Some(0), "{args:?}: {output:?}");
    output
}

#[test]
fn communities_log_prints_what_communities_input_prints() {
    let dir = std::env::temp_dir().join(format!("kclique_cli_log_equiv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dataset = dir.join("dataset");
    let dataset = dataset.to_str().expect("utf-8 temp path");
    run(&[
        "generate", "--scale", "tiny", "--seed", "7", "--out", dataset,
    ]);
    let edges = format!("{dataset}/topology.edges");
    let log = dir.join("topology.cliquelog");
    let log = log.to_str().expect("utf-8 temp path");
    run(&["clique-log", "build", "--input", &edges, "--out", log]);

    for selector in [&["--all-k"][..], &["--k", "3"][..]] {
        for mode in ["exact", "almost"] {
            let stdout = |source: [&str; 2]| {
                let mut args = vec!["communities"];
                args.extend(source);
                args.extend(selector);
                args.extend(["--mode", mode]);
                run(&args).stdout
            };
            let live = stdout(["--input", &edges]);
            assert!(!live.is_empty(), "{selector:?} {mode}");
            assert!(
                live == stdout(["--log", log]),
                "{selector:?} {mode}: log replay differs from live enumeration"
            );
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
