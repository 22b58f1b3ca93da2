//! Interrupting the verbs that keep no durable state, through the real
//! binary: `communities` from an edge list or from a clique log, and
//! `tree`, `analyze` and `baselines`, each cut by `--deadline 0`, exit
//! 75 and say there is nothing to resume. A torn log handed to
//! `communities --log` is corrupt input (65), not an interruption.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kclique-cli"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kclique_cli_interrupt_{name}_{}",
        std::process::id()
    ));
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

/// Two K4s sharing a triangle plus a pendant triangle, and its clique
/// log, in `dir`.
fn fixture(dir: &std::path::Path) -> (String, String) {
    let edges = dir.join("two_k4.edges");
    std::fs::write(
        &edges,
        "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n1 4\n2 4\n3 4\n4 5\n4 6\n5 6\n",
    )
    .expect("write edges");
    let log = dir.join("two_k4.cliquelog");
    let (edges, log) = (
        edges.to_str().expect("utf-8 temp path").to_owned(),
        log.to_str().expect("utf-8 temp path").to_owned(),
    );
    let built = run(&["clique-log", "build", "--input", &edges, "--out", &log]);
    assert_eq!(built.status.code(), Some(0), "{built:?}");
    (edges, log)
}

#[test]
fn communities_interrupts_without_durable_state_from_either_source() {
    let dir = tmp_dir("communities");
    let (input, log) = fixture(&dir);
    for selector in [&["--all-k"][..], &["--k", "3"][..]] {
        for source in [["--input", &input], ["--log", &log]] {
            let mut args = vec!["communities"];
            args.extend(source);
            args.extend(selector);
            args.extend(["--deadline", "0"]);
            assert_interrupted_without_durable_state(&args);
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn tree_analyze_and_baselines_interrupt_without_durable_state() {
    let dir = tmp_dir("graph_verbs");
    let (input, _) = fixture(&dir);
    let dataset = dir.join("dataset");
    let dataset = dataset.to_str().expect("utf-8 temp path");
    let generated = run(&[
        "generate", "--scale", "tiny", "--seed", "1", "--out", dataset,
    ]);
    assert_eq!(generated.status.code(), Some(0), "{generated:?}");

    assert_interrupted_without_durable_state(&["tree", "--input", &input, "--deadline", "0"]);
    assert_interrupted_without_durable_state(&["analyze", "--dataset", dataset, "--deadline", "0"]);
    assert_interrupted_without_durable_state(&["baselines", "--input", &input, "--deadline", "0"]);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn communities_on_a_truncated_log_is_corrupt_input() {
    let dir = tmp_dir("torn");
    let (_, log) = fixture(&dir);
    let bytes = std::fs::read(&log).expect("read log");
    std::fs::write(&log, &bytes[..bytes.len() - 7]).expect("truncate log");
    let output = run(&["communities", "--log", &log, "--all-k"]);
    assert_eq!(output.status.code(), Some(65), "{output:?}");
    assert!(output.stdout.is_empty(), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("clique-log recover"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
