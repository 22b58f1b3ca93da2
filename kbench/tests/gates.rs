//! The runner end to end: the result line carries exactly the metrics
//! `BENCHMARK.json` lists, and a failed gate yields no numbers.

use kbench::json::{self, Value};
use kbench::workload::{self, Options, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn listed(b: &Value, key: &str) -> Vec<(String, String)> {
    b.get(key)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_runner_reports() {
    let b = benchmark_json();
    assert_eq!(listed(&b, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&b, "per_layer"), owned(&PER_LAYER));
    let names: Vec<&str> = b
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

/// Runs `kbench run` in a scratch directory; returns the exit status
/// and the parsed last stdout line.
fn kbench_run(dir: &str, args: &[&str]) -> (bool, Option<Value>) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_kbench"))
        .arg("run")
        .args(args)
        .current_dir(&cwd)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().and_then(|l| json::parse(l).ok());
    (out.status.success(), last)
}

fn metric_names(line: &Value) -> Vec<String> {
    line.get("metrics")
        .and_then(Value::as_object)
        .unwrap()
        .keys()
        .cloned()
        .collect()
}

#[test]
fn the_result_line_has_exactly_the_listed_metrics() {
    let args = [
        "--workload",
        "communities-almost",
        "--seed",
        "3",
        "--seconds",
        "0.5",
    ];
    let (ok, line) = kbench_run("plain", &args);
    assert!(ok);
    let line = line.expect("a JSON result line");
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let mut want: Vec<String> = END_TO_END.iter().map(|m| m.0.to_owned()).collect();
    want.sort();
    assert_eq!(metric_names(&line), want);

    let (ok, line) = kbench_run("traced", &[&args[..], &["--trace", "1"]].concat());
    assert!(ok);
    let mut want: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_owned()).collect();
    want.sort();
    assert_eq!(metric_names(&line.unwrap()), want);
}

#[test]
fn a_wrong_pinned_digest_fails_the_run() {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pinned");
    let opts = Options {
        seed: 3,
        seconds: 0.1,
        traced: false,
        work: work.clone(),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_kbench")),
        pinned: Some("0123456789abcdef".into()),
    };
    let err = workload::run(Workload::CommunitiesExact, &opts).unwrap_err();
    assert!(err.contains("pinned"), "{err}");
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let (ok, line) = kbench_run("usage", args);
        assert!(!ok && line.is_none(), "{args:?}");
    }
}
