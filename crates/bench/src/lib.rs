//! The bench harness behind the committed `BENCH_*.json` records.
//!
//! One binary, `bench`, runs one suite per call — `ingest`, `kernel`,
//! `pool`, `serve` or `faultio` — or `bench all`, which reruns every
//! suite at its defaults (the settings of its committed record) and
//! rewrites all five files. Every row of every suite has the same keys
//! in the same order ([`COLUMNS`]); a suite writes `null` for a value
//! it does not measure. Peak heap comes from [`memprof::CountingAlloc`],
//! which the binary always installs.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod faultio;
mod ingest;
mod kernel;
// memprof implements GlobalAlloc, which is inherently unsafe; the rest
// of the crate denies unsafe code.
#[allow(unsafe_code)]
pub mod memprof;
mod pool;
mod serve;

use asgraph::{Graph, GraphBuilder};
use exec::Threads;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One suite of the harness.
pub struct Suite {
    /// The suite's name: the first argument of `bench`, the `suite`
    /// column and the `BENCH_<name>.json` file name.
    pub name: &'static str,
    /// Every `op` the suite's rows may name.
    pub ops: &'static [&'static str],
    flags: &'static [&'static str],
    // The defaults: the settings of the suite's committed record.
    substrates: &'static [&'static str],
    iters: usize,
    run: fn(&Args) -> Vec<Row>,
    check: Option<Gate>,
}

/// A `--check` gate: violation messages, empty when it passes.
type Gate = fn(&[Row]) -> Vec<String>;

/// Every suite, in the order `bench all` runs them.
pub static SUITES: [Suite; 5] = [
    ingest::SUITE,
    kernel::SUITE,
    pool::SUITE,
    faultio::SUITE,
    serve::SUITE,
];

/// The settings of one suite run.
struct Args {
    suite: &'static Suite,
    /// `--substrate` values, in order, without repeats.
    substrates: Vec<&'static str>,
    /// Rounds of the round-robin timing.
    iters: usize,
    seed: u64,
    /// Requests per client and cell (serve only).
    requests: usize,
    out: PathBuf,
    check: bool,
}

impl Suite {
    fn defaults(&'static self) -> Args {
        Args {
            suite: self,
            substrates: self.substrates.to_vec(),
            iters: self.iters,
            seed: 7,
            requests: 4000,
            out: format!("BENCH_{}.json", self.name).into(),
            check: false,
        }
    }
}

/// Runs `bench` on its arguments (without the program name): prints
/// each run's table, writes its record and runs its gate. Exits 2 on a
/// usage error, and 1 when a gate fails or a record cannot be written.
pub fn cli(args: &[String]) -> ExitCode {
    let runs = match parse(args) {
        Ok(runs) => runs,
        Err(message) => {
            eprintln!("bench: {message}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "machine parallelism: {} hardware threads",
        exec::available_parallelism()
    );
    let mut failed = false;
    for run in runs {
        let rows = (run.suite.run)(&run);
        print_table(&rows);
        if let Err(e) = std::fs::write(&run.out, to_json(&rows)) {
            eprintln!("bench: cannot write {}: {e}", run.out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} rows to {}", rows.len(), run.out.display());
        let Some(check) = run.suite.check.filter(|_| run.check) else {
            continue;
        };
        let violations = check(&rows);
        for v in &violations {
            eprintln!("check FAILED: {v}");
        }
        if violations.is_empty() {
            eprintln!("check passed: bench {}", run.suite.name);
        }
        failed |= !violations.is_empty();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses `bench`'s arguments (without the program name) into the runs
/// to make: one for a suite, every suite at its defaults for `all`. The
/// error names the valid values.
fn parse(args: &[String]) -> Result<Vec<Args>, String> {
    let names: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
    let names = names.join(" | ") + " | all";
    let Some((first, rest)) = args.split_first() else {
        return Err(format!("missing suite; expected {names}"));
    };
    if first == "all" {
        return match rest.first() {
            Some(flag) => Err(format!("`bench all` takes no flags, got {flag:?}")),
            None => Ok(SUITES.iter().map(Suite::defaults).collect()),
        };
    }
    let suite = SUITES
        .iter()
        .find(|s| s.name == first)
        .ok_or_else(|| format!("unknown suite {first:?}; expected {names}"))?;
    let mut run = suite.defaults();
    let mut picked: Vec<&'static str> = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if !suite.flags.contains(&flag.as_str()) {
            return Err(format!(
                "unknown flag {flag:?} for `bench {first}`; expected {}",
                suite.flags.join(" | ")
            ));
        }
        if flag == "--check" {
            run.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let count = || match value.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{flag} expects a positive integer, got {value:?}")),
        };
        match flag.as_str() {
            "--substrate" => {
                let (name, _) = SUBSTRATES.iter().find(|(f, _)| f == value).ok_or_else(|| {
                    let valid: Vec<&str> = SUBSTRATES.iter().map(|(f, _)| *f).collect();
                    format!(
                        "unknown substrate {value:?}; expected {}",
                        valid.join(" | ")
                    )
                })?;
                if !picked.contains(name) {
                    picked.push(name);
                }
            }
            "--iters" => run.iters = count()?,
            "--requests" => run.requests = count()?,
            "--seed" => {
                run.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an unsigned integer, got {value:?}"))?;
            }
            "--out" => run.out = value.into(),
            _ => unreachable!("every flag a suite lists is handled"),
        }
    }
    if !picked.is_empty() {
        run.substrates = picked;
    }
    Ok(vec![run])
}

/// `--substrate` values and the names their rows carry.
const SUBSTRATES: [(&str, &str); 8] = [
    ("sparse", "sparse300"),
    ("dense", "dense60"),
    ("tiny", "tiny-internet"),
    ("small", "small-internet"),
    ("medium", "medium-internet"),
    ("full", "full-internet"),
    ("census", "census-k2x14"),
    ("ring", "ring-k15x4000"),
];

/// A seeded Erdős–Rényi graph.
pub fn random_graph(n: u32, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_nodes(n as usize);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// The substrate a `--substrate` value names, with its row name:
/// Erdős–Rényi graphs (`sparse`: 300 nodes at p = 0.05, `dense`: 60 at
/// 0.5), a synthetic-Internet preset (`full` is the 35k-AS one), or
/// `census`, the cocktail-party graph K(2×14), whose 16,384 maximal
/// cliques of 14 nodes overlap pairwise in up to 13 (the paper's census
/// regime, every clique small), or `ring`, 4,000 disjoint K15s joined in
/// a ring by bridge edges (60,000 hubs, 4,000 components at every level
/// from 3 to 15: exact mode's certification at its sparsest). `census`
/// and `ring` ignore the seed.
fn substrate(flag: &str, seed: u64) -> (&'static str, Graph) {
    let (_, name) = SUBSTRATES
        .iter()
        .find(|(f, _)| *f == flag)
        .expect("the parser admits only listed substrates");
    let preset = |config| topology::generate(&config).expect("preset is valid").graph;
    let g = match flag {
        "sparse" => random_graph(300, 0.05, seed),
        "dense" => random_graph(60, 0.5, seed),
        "tiny" => preset(topology::ModelConfig::tiny(seed)),
        "small" => preset(topology::ModelConfig::small(seed)),
        "medium" => preset(topology::ModelConfig::medium(seed)),
        "full" => preset(topology::ModelConfig::full_scale(seed)),
        "census" => Graph::cocktail_party(14),
        _ => Graph::clique_ring(4_000, 15),
    };
    eprintln!("{name}: {} nodes, {} edges", g.node_count(), g.edge_count());
    (name, g)
}

/// The keys of every row, in order. `mode` is the percolation mode
/// where the op has one; `variant` the kernel (kernel suite), the
/// checkpoint cadence (faultio) or `latency` / `pipelined` (serve);
/// `threads` the worker count, or the client count for serve. `min_ns`
/// is the stable estimate of a deterministic CPU-bound run, since
/// scheduling noise only ever inflates a sample; `peak_bytes` is the
/// peak heap growth of the last round's run; `p99_ns` and `per_s` are
/// serve's per-request latency and aggregate request rate. A value a
/// suite does not measure is `null`.
pub const COLUMNS: [&str; 12] = [
    "suite",
    "substrate",
    "op",
    "mode",
    "variant",
    "threads",
    "hw_threads",
    "min_ns",
    "median_ns",
    "p99_ns",
    "peak_bytes",
    "per_s",
];

/// One row of a record, field for field the [`COLUMNS`].
#[derive(Debug, Clone, Default, PartialEq)]
struct Row {
    suite: &'static str,
    substrate: &'static str,
    op: &'static str,
    mode: Option<&'static str>,
    variant: Option<&'static str>,
    threads: Option<Threads>,
    hw_threads: usize,
    min_ns: Option<u128>,
    median_ns: Option<u128>,
    p99_ns: Option<u128>,
    peak_bytes: Option<usize>,
    per_s: Option<u64>,
}

impl Row {
    /// A row with every measured value `null`.
    fn new(suite: &'static str, substrate: &'static str, op: &'static str) -> Row {
        let hw_threads = exec::available_parallelism();
        Row {
            suite,
            substrate,
            op,
            hw_threads,
            ..Row::default()
        }
    }

    /// Whether the row runs more workers than the machine has hardware
    /// threads: it measures oversubscription, not scaling.
    fn oversubscribed(&self) -> bool {
        matches!(self.threads, Some(Threads::Fixed(n)) if n > self.hw_threads)
    }

    /// The row's values as JSON, in [`COLUMNS`] order.
    fn json_values(&self) -> [String; 12] {
        fn text(s: Option<&str>) -> String {
            s.map_or("null".into(), |s| {
                assert!(
                    s.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "-_".contains(c)),
                    "unexpected character in JSON token {s:?}"
                );
                format!("\"{s}\"")
            })
        }
        fn number(n: Option<impl ToString>) -> String {
            n.map_or("null".into(), |n| n.to_string())
        }
        [
            text(Some(self.suite)),
            text(Some(self.substrate)),
            text(Some(self.op)),
            text(self.mode),
            text(self.variant),
            match self.threads {
                Some(Threads::Auto) => text(Some("auto")),
                Some(Threads::Fixed(n)) => n.to_string(),
                None => "null".into(),
            },
            self.hw_threads.to_string(),
            number(self.min_ns),
            number(self.median_ns),
            number(self.p99_ns),
            number(self.peak_bytes),
            number(self.per_s),
        ]
    }
}

/// The record: a JSON array with one object per line.
fn to_json(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let pairs: Vec<String> = COLUMNS
                .iter()
                .zip(r.json_values())
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            format!("  {{{}}}", pairs.join(", "))
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// The human table on stdout: `-` for `null`, and rows with more
/// workers than hardware threads marked `oversubscribed`.
fn print_table(rows: &[Row]) {
    let line = |cells: [String; 12], note| {
        let widths = [7, 15, 19, 6, 10, 7, 10, 11, 11, 9, 10, 7];
        let cells: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{} {note}", cells.join(" "));
    };
    line(COLUMNS.map(String::from), "");
    for r in rows {
        let cells = r
            .json_values()
            .map(|v| v.replace("null", "-").replace('"', ""));
        line(
            cells,
            if r.oversubscribed() {
                "oversubscribed"
            } else {
                ""
            },
        );
    }
}

/// One timed run: wall-clock nanoseconds and peak heap growth.
type Sample = (u128, usize);

/// Times one call of `f` and measures its peak heap growth. The result
/// is dropped after the clock stops.
fn timed<T>(f: impl FnOnce() -> T) -> Sample {
    let ((out, ns), peak) = memprof::measure_peak(|| {
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_nanos())
    });
    drop(out);
    (ns, peak)
}

/// One cell of a suite: the rows it fills, and one run returning one
/// [`Sample`] per row.
struct Cell<'a> {
    /// Row templates; timing fills `min_ns`, `median_ns`, `peak_bytes`.
    rows: Vec<Row>,
    run: Box<dyn FnMut() -> Vec<Sample> + 'a>,
}

impl<'a> Cell<'a> {
    /// A one-row cell that times `f`.
    fn one<T>(row: Row, mut f: impl FnMut() -> T + 'a) -> Cell<'a> {
        Cell {
            rows: vec![row],
            run: Box::new(move || vec![timed(&mut f)]),
        }
    }
}

/// Times `cells` round-robin: each of `iters` rounds runs every cell
/// once, in order. Drift of a shared machine (frequency, cache,
/// neighbours) then spreads over all cells, instead of landing on
/// whichever cells happened to run last. Each row gets its samples'
/// minimum and median, and the peak heap of the last round's run.
fn round_robin(iters: usize, mut cells: Vec<Cell<'_>>) -> Vec<Row> {
    let mut samples: Vec<Vec<Vec<Sample>>> = cells
        .iter()
        .map(|c| vec![Vec::new(); c.rows.len()])
        .collect();
    for _ in 0..iters {
        for (cell, slots) in cells.iter_mut().zip(&mut samples) {
            for (slot, sample) in slots.iter_mut().zip((cell.run)()) {
                slot.push(sample);
            }
        }
    }
    cells
        .into_iter()
        .zip(samples)
        .flat_map(|(cell, slots)| cell.rows.into_iter().zip(slots))
        .map(|(row, slot)| {
            let mut ns: Vec<u128> = slot.iter().map(|s| s.0).collect();
            ns.sort_unstable();
            Row {
                min_ns: ns.first().copied(),
                median_ns: ns.get(ns.len() / 2).copied(),
                peak_bytes: slot.last().map(|s| s.1),
                ..row
            }
        })
        .collect()
}

/// The row of `rows` whose `(substrate, op, mode, variant, threads)`
/// is `key`, for the gates.
fn find<'r>(
    rows: &'r [Row],
    key: (&str, &str, Option<&str>, Option<&str>, Option<Threads>),
) -> Option<&'r Row> {
    rows.iter()
        .find(|r| (r.substrate, r.op, r.mode, r.variant, r.threads) == key)
}

/// The distinct substrates of `rows`, in order.
fn substrates_of(rows: &[Row]) -> Vec<&'static str> {
    let mut seen = Vec::new();
    for r in rows {
        if !seen.contains(&r.substrate) {
            seen.push(r.substrate);
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Vec<Args>, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn usage_errors_name_the_valid_values() {
        for (line, needle) in [
            ("", "ingest | kernel | pool | faultio | serve | all"),
            ("bogus", "ingest | kernel | pool | faultio | serve | all"),
            ("all --iters 3", "takes no flags"),
            ("kernel --check", "--substrate | --iters | --seed | --out"),
            ("serve --iters 3", "--requests"),
            (
                "pool --substrate huge",
                "sparse | dense | tiny | small | medium | full | census | ring",
            ),
            ("pool --iters", "--iters needs a value"),
            ("pool --iters x", "positive integer"),
            ("pool --iters 0", "positive integer"),
            ("serve --requests -1", "positive integer"),
            ("faultio --seed 1.5", "unsigned integer"),
        ] {
            let err = parse_str(line)
                .err()
                .unwrap_or_else(|| panic!("{line:?} parsed"));
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    #[test]
    fn flags_override_the_committed_defaults() {
        let runs =
            parse_str("pool --substrate tiny --substrate dense --substrate tiny --iters 3 --check")
                .expect("valid");
        let [run] = &runs[..] else { panic!("one run") };
        assert_eq!(run.suite.name, "pool");
        assert_eq!(run.substrates, ["tiny", "dense"]);
        assert_eq!((run.iters, run.seed, run.check), (3, 7, true));
        assert_eq!(run.out, PathBuf::from("BENCH_pool.json"));

        let all = parse_str("all").expect("valid");
        let names: Vec<&str> = all.iter().map(|r| r.suite.name).collect();
        assert_eq!(names, ["ingest", "kernel", "pool", "faultio", "serve"]);
        assert!(all.iter().all(|r| !r.check));
        assert_eq!(all[2].substrates, ["medium", "full"]);
        assert_eq!(all[2].iters, 11);
    }
}
