//! Interrupting a verb that keeps no durable state, through the real
//! binary: `stream-percolate` from an edge list or from a clique log,
//! cut by `--deadline 0`, exits 75 and says there is nothing to resume,
//! exactly as `communities` does.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kclique-cli"))
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kclique_cli_interrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn kclique-cli")
}

#[track_caller]
fn assert_interrupted_without_durable_state(args: &[&str]) {
    let output = run(args);
    assert_eq!(output.status.code(), Some(75), "{args:?}: {output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("keeps no durable state"),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("resumable"), "{args:?}: {stderr}");
}

#[test]
fn stream_percolate_interrupts_without_durable_state_from_either_source() {
    let dir = tmp_dir();
    let edges = dir.join("two_k4.edges");
    std::fs::write(
        &edges,
        "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n1 4\n2 4\n3 4\n4 5\n4 6\n5 6\n",
    )
    .expect("write edges");
    let input = edges.to_str().expect("utf-8 temp path");
    let log = dir.join("two_k4.cliquelog");
    let log = log.to_str().expect("utf-8 temp path");
    let built = run(&["clique-log", "build", "--input", input, "--out", log]);
    assert_eq!(built.status.code(), Some(0), "{built:?}");

    for selector in [&["--all-k"][..], &["--k", "3"][..]] {
        for source in [["--input", input], ["--log", log]] {
            let mut args = vec!["stream-percolate"];
            args.extend(source);
            args.extend(selector);
            args.extend(["--deadline", "0"]);
            assert_interrupted_without_durable_state(&args);
        }
    }
    assert_interrupted_without_durable_state(&[
        "communities",
        "--input",
        input,
        "--all-k",
        "--deadline",
        "0",
    ]);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
