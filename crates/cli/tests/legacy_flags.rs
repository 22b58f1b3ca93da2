//! The flag contract, through the real binary: every verb accepts only
//! the flags in its table. Anything else — a typo, another verb's flag,
//! or one of the removed `--pipeline`, `--sweep`, `--approx` and
//! `--kernel` — exits 2 with the offending flag named on stderr and
//! nothing on stdout, so a script never consumes output from a run it
//! did not ask for. The removed `stream-percolate` verb exits 2 too,
//! naming `communities --log`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kclique-cli"))
}

fn fixture_edges(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kclique_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let edges = dir.join(format!("{name}.edges"));
    std::fs::write(&edges, "0 1\n0 2\n1 2\n1 3\n2 3\n2 4\n3 4\n").expect("write edges");
    edges
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn kclique-cli")
}

#[track_caller]
fn assert_rejects(args: &[&str], flag: &str) {
    let output = run(args);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
    assert!(
        output.stdout.is_empty(),
        "{args:?}: stdout must stay empty: {output:?}"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("unknown flag {flag}")),
        "{args:?}: {stderr}"
    );
}

/// The flags of previous releases are gone, not silently accepted.
#[test]
fn removed_legacy_flags_are_usage_errors() {
    let edges = fixture_edges("legacy");
    let input = edges.to_str().expect("utf-8 temp path");
    assert_rejects(
        &[
            "communities",
            "--input",
            input,
            "--k",
            "3",
            "--pipeline",
            "staged",
        ],
        "--pipeline",
    );
    assert_rejects(
        &[
            "communities",
            "--input",
            input,
            "--all-k",
            "--sweep",
            "legacy",
        ],
        "--sweep",
    );
    assert_rejects(
        &["communities", "--log", "x.log", "--k", "3", "--approx"],
        "--approx",
    );
    for args in [
        &[
            "communities",
            "--input",
            input,
            "--k",
            "3",
            "--kernel",
            "merge",
        ][..],
        &[
            "communities",
            "--log",
            "x.log",
            "--all-k",
            "--kernel",
            "auto",
        ][..],
        &[
            "clique-log",
            "build",
            "--input",
            input,
            "--out",
            "x.log",
            "--kernel",
            "bitset",
        ][..],
    ] {
        assert_rejects(args, "--kernel");
    }
}

/// The removed verb is a usage error that names its replacement.
#[test]
fn stream_percolate_names_its_replacement() {
    let edges = fixture_edges("verb");
    let input = edges.to_str().expect("utf-8 temp path");
    for source in [["--input", input], ["--log", "x.log"]] {
        let mut args = vec!["stream-percolate"];
        args.extend(source);
        args.push("--all-k");
        let output = run(&args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        assert!(output.stdout.is_empty(), "{args:?}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("stream-percolate is now communities --log"),
            "{args:?}: {stderr}"
        );
    }
}

/// A typo never runs with the defaults, on any verb.
#[test]
fn mistyped_flags_are_usage_errors_on_every_verb() {
    let edges = fixture_edges("typo");
    let input = edges.to_str().expect("utf-8 temp path");
    for (args, flag) in [
        (
            &["communities", "--input", input, "--all-k", "--thread", "4"][..],
            "--thread",
        ),
        (&["tree", "--input", input, "--min_k", "3"][..], "--min_k"),
        (&["stats", "--input", input, "--verbose"][..], "--verbose"),
        (&["baselines", "--input", input, "--k", "3"][..], "--k"),
        (
            &["communities", "--log", "x.log", "--all-k", "--thread", "4"][..],
            "--thread",
        ),
        (
            &[
                "clique-log",
                "build",
                "--input",
                input,
                "--out",
                "x.log",
                "--resum",
            ][..],
            "--resum",
        ),
        (
            &["clique-log", "info", "--log", "x.log", "--input", input][..],
            "--input",
        ),
        (
            &["ingest", "--input", input, "--check", "--lenent"][..],
            "--lenent",
        ),
        (
            &["rewire", "--input", input, "--out", "x.edges"][..],
            "--out",
        ),
        (
            &["generate", "--scale", "tiny", "--out", "d", "--sed", "3"][..],
            "--sed",
        ),
        (
            &["analyze", "--dataset", "d", "--threads", "2"][..],
            "--threads",
        ),
        (
            &["serve", "--snapshot", "x.log", "--port", "7117"][..],
            "--port",
        ),
    ] {
        assert_rejects(args, flag);
    }
}

/// Every flag in a verb's table still runs, and a clean run keeps
/// stderr empty.
#[test]
fn listed_flags_still_run() {
    let edges = fixture_edges("ok");
    let input = edges.to_str().expect("utf-8 temp path");
    let output = run(&[
        "communities",
        "--input",
        input,
        "--k",
        "3",
        "--mode",
        "almost",
        "--threads",
        "2",
        "--deadline",
        "3600",
    ]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    assert!(output.stderr.is_empty(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("3-clique communities"), "{stdout}");
}
