//! `kbench`: see `README.md` next to `Cargo.toml`.

use kbench::child::{self, IterArgs};
use kbench::compare;
use kbench::json::{self, Value};
use kbench::system;
use kbench::workload::{self, Outcome, Workload, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage:
  kbench run [--workload <name>]... [--seed <u64>] [--seconds <n>] [--trace 0|1]
             [--out <results.json>] [--trace-file <trace.json>]
  kbench compare [--bench <BENCHMARK.json>] <base.json>... -- <change.json>...
  kbench summarize <results.json>...

workloads: ingest-merge, communities-exact, communities-almost, serve-medium
";

/// Default measurement length, as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Scratch and output directory, relative to where `kbench` runs.
const WORK_ROOT: &str = ".kbench";

/// The default seed, pinned digests and the recorded baseline.
const BASELINE: &str = include_str!("../baseline.json");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("compare") => cmd_compare(rest),
        Some("summarize") => cmd_summarize(rest),
        Some("child") => cmd_child(rest),
        _ => Err(Failure::Usage(String::new())),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(Failure::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("kbench: {msg}");
            }
            eprint!("{USAGE}");
            std::process::exit(2);
        }
        Err(Failure::Run(msg)) => {
            eprintln!("kbench: {msg}");
            std::process::exit(1);
        }
    }
}

enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Run(msg)
    }
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    trace_file: Option<PathBuf>,
}

fn parse_run(args: &[String], default_seed: u64) -> Result<RunArgs, Failure> {
    let mut r = RunArgs {
        workloads: Vec::new(),
        seed: default_seed,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        trace_file: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        let bad = |v: &str| Failure::Usage(format!("bad {flag} value {v:?}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                r.workloads
                    .push(Workload::from_name(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value()?;
                r.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                r.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                let v = value()?;
                r.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--out" => r.out = Some(PathBuf::from(value()?)),
            "--trace-file" => r.trace_file = Some(PathBuf::from(value()?)),
            other => return Err(Failure::Usage(format!("unknown flag {other}"))),
        }
    }
    if r.workloads.is_empty() {
        r.workloads = Workload::ALL.to_vec();
    }
    if r.trace_file.is_some() && r.workloads.len() > 1 {
        return Err(Failure::Usage("--trace-file takes one --workload".into()));
    }
    Ok(r)
}

/// The digest pinned in `baseline.json` for `workload` at `seed`.
fn pinned(baseline: &Value, seed: u64, workload: &str) -> Option<String> {
    baseline
        .get("digests")?
        .get(&seed.to_string())?
        .get(workload)?
        .as_str()
        .map(str::to_owned)
}

/// The repository revision, when run at the root of a git checkout
/// (never from a repository above the current directory).
fn revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Removes a run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cmd_run(args: &[String]) -> Result<i32, Failure> {
    let baseline = json::parse(BASELINE).map_err(|e| format!("baseline.json: {e}"))?;
    let default_seed = baseline
        .get("seed")
        .and_then(Value::as_f64)
        .ok_or_else(|| Failure::Run("baseline.json has no seed".into()))?;
    let r = parse_run(args, default_seed as u64)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate kbench: {e}"))?;
    let rev = revision();
    let hw = system::hw_threads();
    let mut results = Vec::new();
    for w in &r.workloads {
        let name = w.name();
        let scratch = Scratch(PathBuf::from(WORK_ROOT).join(format!(
            "work-{name}-{}-{}",
            r.seed,
            std::process::id()
        )));
        let opts = workload::Options {
            seed: r.seed,
            seconds: r.seconds,
            traced: r.traced,
            work: scratch.0.clone(),
            exe: exe.clone(),
            pinned: pinned(&baseline, r.seed, name),
        };
        let outcome =
            workload::run(*w, &opts).map_err(|e| format!("correctness gate failed: {e}"))?;
        drop(scratch);
        let wanted: &[(&str, &str)] = if r.traced { &PER_LAYER } else { &END_TO_END };
        let line = result_line(&outcome, wanted).map_err(|m| format!("{name}: {m}"))?;
        for m in &outcome.metrics {
            let s = &m.summary;
            println!(
                "{name} {} {} {} (n={}, p25={}, median={}, p75={})",
                m.name, m.value, m.unit, s.n, s.p25, s.median, s.p75
            );
        }
        println!("{name} digest {}", outcome.digest);
        if r.traced {
            let path = r.trace_file.clone().unwrap_or_else(|| {
                Path::new(WORK_ROOT).join(format!("trace-{name}-{}.json", r.seed))
            });
            write_file(&path, &outcome.trace.to_json(name, r.seed))?;
            eprintln!(
                "kbench: {name}: {} spans in {}",
                outcome.trace.spans.len(),
                path.display()
            );
        }
        println!("{line}");
        results.push(result_object(name, &r, hw, &rev, &outcome, &line));
    }
    if let Some(out) = &r.out {
        write_file(out, &format!("[\n{}\n]\n", results.join(",\n")))?;
    }
    Ok(0)
}

fn write_file(path: &Path, text: &str) -> Result<(), Failure> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| Failure::Run(format!("{}: {e}", path.display())))
}

/// The one-line JSON result with exactly the metrics in `wanted`.
fn result_line(outcome: &Outcome, wanted: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json::string(name),
            json::number(m.value),
            json::string(unit)
        );
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    ))
}

/// A results-file entry: the result line's fields plus every metric
/// with its sample summary.
fn result_object(
    name: &str,
    r: &RunArgs,
    hw: usize,
    rev: &str,
    outcome: &Outcome,
    line: &str,
) -> String {
    let mut details = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let s = &m.summary;
        let _ = write!(
            details,
            "{}\n    {}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"p25\": {}, \"median\": {}, \"p75\": {}}}",
            if i > 0 { "," } else { "" },
            json::string(&m.name),
            json::number(m.value),
            json::string(&m.unit),
            s.n,
            json::number(s.p25),
            json::number(s.median),
            json::number(s.p75)
        );
    }
    // The result line is `{...}`: splice its fields into this object.
    let fields = &line[1..line.len() - 1];
    format!(
        "  {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"hw_threads\": {hw}, \"rev\": {}, \
         \"digest\": {}, {fields},\n   \"details\": {{{details}}}}}",
        json::string(name),
        r.seed,
        u8::from(r.traced),
        json::string(rev),
        json::string(&outcome.digest),
    )
}

fn cmd_compare(args: &[String]) -> Result<i32, Failure> {
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut sides: [Vec<PathBuf>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => {
                bench = PathBuf::from(
                    it.next()
                        .ok_or_else(|| Failure::Usage("--bench needs a path".into()))?,
                );
            }
            "--" if side == 0 => side = 1,
            path => sides[side].push(PathBuf::from(path)),
        }
    }
    if sides.iter().any(Vec::is_empty) {
        return Err(Failure::Usage(
            "compare needs base files, `--`, then change files".into(),
        ));
    }
    let text = std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let bounds = compare::bounds(&json::parse(&text)?)?;
    let load = |paths: &[PathBuf]| -> Result<Vec<compare::Run>, String> {
        let mut runs = Vec::new();
        for p in paths {
            runs.extend(compare::load_runs(p)?);
        }
        Ok(runs)
    };
    let rows = compare::compare(&load(&sides[0])?, &load(&sides[1])?, &bounds);
    print!("{}", compare::render(&rows));
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(i32::from(worse))
}

fn cmd_summarize(args: &[String]) -> Result<i32, Failure> {
    if args.is_empty() {
        return Err(Failure::Usage("summarize needs results files".into()));
    }
    let mut runs = Vec::new();
    for p in args {
        runs.extend(compare::load_runs(Path::new(p))?);
    }
    print!("{}", compare::summarize(&runs));
    Ok(0)
}

fn cmd_child(args: &[String]) -> Result<i32, Failure> {
    match args.first().map(String::as_str) {
        Some("iter") => {
            let parsed = IterArgs::parse(&args[1..]).map_err(Failure::Usage)?;
            print!("{}", child::iter(&parsed)?);
        }
        Some("daemon") if args.len() == 2 => child::daemon(Path::new(&args[1]))?,
        _ => return Err(Failure::Usage("unknown child role".into())),
    }
    Ok(0)
}
