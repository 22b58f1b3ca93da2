//! Thread-scaling record for the persistent executor.
//!
//! ```text
//! cargo run --release -p bench --bin pool-bench -- \
//!     [--substrate tiny|medium|full|sparse|dense|all]... [--iters <n>] \
//!     [--seed <u64>] [--out BENCH_pool.json] [--check]
//! ```
//!
//! `--substrate` may be given more than once; without it (or with
//! `all`) every substrate runs. `full` is the 35k-AS Internet preset,
//! the paper-size graph, whose big cliques span more than 256 hub
//! vertices. For each substrate this times the pool-backed operations —
//! `enumerate` (work-stealing Bron–Kerbosch) and `percolate-fused` (the
//! percolation engine, which percolates each clique as it is enumerated
//! and never materialises the clique set, in both `exact` and `almost`
//! mode) — at fixed worker counts 1/2/4/8 plus one `auto` row, all
//! through the same persistent `exec::Pool`. The engine additionally
//! gets phase rows (`fused-consume`, `fused-pairs`, `fused-sweep`,
//! `fused-extract`) at 1 and 4 workers — every phase chunks over the
//! pool — so the end-to-end numbers decompose along both axes — and one
//! `rebuild-log` row (`exact`, `auto`): the substrate's clique log
//! replayed into the engine, the rebuild `serve --snapshot x.cliquelog`
//! runs at start-up and on every reload. The JSON
//! written to `--out` is the record committed as `BENCH_pool.json`;
//! with `--features memprof` every row also carries the peak heap
//! growth of one run in a `peak_bytes` column (0 when the feature is
//! off) — for the phase rows, attributed per phase through the probed
//! entry point's observer hook.
//!
//! `--check` turns the run into a CI gate with three clauses. Scaling:
//! on every substrate, the 4-worker and `auto` rows of each operation
//! must not be slower than 1.2× the 1-worker row. The bound is
//! deliberately loose — on a single-core runner extra workers are pure
//! overhead and the gate then measures exactly that overhead, which the
//! persistent pool is supposed to keep negligible; on a multi-core
//! runner real speedups clear it easily. Mode: on the medium Internet
//! substrate exact mode (the almost engine plus its certification pass)
//! must run the full percolation in at most 1.5× almost mode's time,
//! compared on the 1-worker rows' per-iteration minima (noise on a
//! shared runner only inflates samples of a deterministic run; the
//! median would make the gate flaky), and — with `memprof` — with at
//! most 3× its peak heap.
//! Scaling of the engine (only when the machine has ≥ 4 hardware
//! threads): the 4-worker run must beat the 1-worker one by at least
//! 1.3× on the medium Internet minima, both modes — the gate that keeps
//! the parallel finish honest.

use exec::Threads;
use std::time::Instant;

#[cfg(feature = "memprof")]
#[global_allocator]
static ALLOC: bench::memprof::CountingAlloc = bench::memprof::CountingAlloc;

/// Fixed worker counts of the scaling curve; one `auto` row is added.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The `(op, mode)` rows timed at every worker count.
const SCALED_OPS: [(&str, &str); 3] = [
    ("enumerate", "exact"),
    ("percolate-fused", "exact"),
    ("percolate-fused", "almost"),
];

struct Record {
    substrate: String,
    op: &'static str,
    mode: &'static str,
    threads: Threads,
    median_ns: u128,
    min_ns: u128,
    /// Peak heap growth of one run (memprof feature only; 0 otherwise).
    peak_bytes: usize,
}

/// (median, minimum) of the samples. The median is the headline number;
/// the minimum is the noise-robust estimator for a deterministic
/// CPU-bound run (scheduling noise is strictly additive), which the
/// mode gate compares.
fn stats_ns(mut samples: Vec<u128>) -> (u128, u128) {
    samples.sort_unstable();
    (samples[samples.len() / 2], samples[0])
}

/// Peak heap growth of one run of `f`. Without the `memprof` counting
/// allocator there is nothing to count, so the run is skipped entirely.
#[cfg(feature = "memprof")]
fn peak_of<T>(mut f: impl FnMut() -> T) -> usize {
    bench::memprof::measure_peak(&mut f).1
}

#[cfg(not(feature = "memprof"))]
fn peak_of<T>(_f: impl FnMut() -> T) -> usize {
    0
}

fn measure<T>(iters: usize, mut f: impl FnMut() -> T) -> (u128, u128, usize) {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        samples.push(t0.elapsed().as_nanos());
        drop(out);
    }
    let (median_ns, min_ns) = stats_ns(samples);
    (median_ns, min_ns, peak_of(f))
}

fn bench_substrate(name: &str, g: &asgraph::Graph, iters: usize, records: &mut Vec<Record>) {
    let mut rows: Vec<Threads> = THREAD_COUNTS.iter().map(|&t| Threads::Fixed(t)).collect();
    rows.push(Threads::Auto);
    for threads in rows {
        let mut push = |op, mode, (median_ns, min_ns, peak_bytes)| {
            records.push(Record {
                substrate: name.to_owned(),
                op,
                mode,
                threads,
                median_ns,
                min_ns,
                peak_bytes,
            });
        };
        push(
            "enumerate",
            "exact",
            measure(iters, || {
                cliques::parallel::max_cliques_parallel(g, threads)
            }),
        );
        for mode in [cpm::Mode::Exact, cpm::Mode::Almost] {
            push(
                "percolate-fused",
                mode.as_str(),
                measure(iters, || cpm::percolate_parallel(g, threads, mode)),
            );
        }
    }

    // The clique-log rebuild: one replay into the engine, as the daemon
    // runs it.
    let dir = std::env::temp_dir().join(format!("kclique_pool_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join(format!("{name}.cliquelog"));
    cpm_stream::write_clique_log(g, &log).expect("log build");
    let (median_ns, min_ns, peak_bytes) = measure(iters, || {
        let mut source = cpm_stream::LogSource::open(&log).expect("log open");
        cpm_stream::stream_percolate_parallel_mode(&mut source, Threads::Auto, cpm::Mode::Exact)
            .expect("log replay")
    });
    std::fs::remove_dir_all(&dir).ok();
    records.push(Record {
        substrate: name.to_owned(),
        op: "rebuild-log",
        mode: "exact",
        threads: Threads::Auto,
        median_ns,
        min_ns,
        peak_bytes,
    });

    // The engine's phase breakdown at 1 and 4 workers: `consume` is the
    // enumerate-while-percolating front (Bron–Kerbosch driving the
    // consumer), `pairs`/`sweep`/`extract` the finish work — all four
    // chunk over the pool, so each phase gets its own scaling rows. One
    // probed run per row attributes peak heap growth to each phase
    // (memprof feature; zeros otherwise).
    for mode in [cpm::Mode::Exact, cpm::Mode::Almost] {
        for workers in [1usize, 4] {
            let threads = Threads::Fixed(workers);
            let mut consume = Vec::with_capacity(iters);
            let mut pairs = Vec::with_capacity(iters);
            let mut sweep = Vec::with_capacity(iters);
            let mut extract = Vec::with_capacity(iters);
            for _ in 0..iters {
                let (_, phases) = cpm::percolate_fused_phases_parallel(g, threads, mode);
                consume.push(phases.consume.as_nanos());
                pairs.push(phases.pairs.as_nanos());
                sweep.push(phases.sweep.as_nanos());
                extract.push(phases.extract.as_nanos());
            }
            let peaks = fused_phase_peaks(g, threads, mode);
            for ((op, samples), peak_bytes) in [
                ("fused-consume", consume),
                ("fused-pairs", pairs),
                ("fused-sweep", sweep),
                ("fused-extract", extract),
            ]
            .into_iter()
            .zip(peaks)
            {
                let (median_ns, min_ns) = stats_ns(samples);
                records.push(Record {
                    substrate: name.to_owned(),
                    op,
                    mode: mode.as_str(),
                    threads,
                    median_ns,
                    min_ns,
                    peak_bytes,
                });
            }
        }
    }
}

/// Peak heap growth of each fused phase — `[consume, pairs, sweep,
/// extract]` — over one probed run. The observer fires as each phase
/// *starts*: the high-water mark accumulated since the previous
/// transition, less the live size at that transition, is the finishing
/// phase's peak growth; the phase running when the pipeline returns is
/// closed out after the call.
#[cfg(feature = "memprof")]
fn fused_phase_peaks(g: &asgraph::Graph, threads: Threads, mode: cpm::Mode) -> [usize; 4] {
    use bench::memprof::{current_bytes, peak_bytes, reset_peak};
    let mut peaks = [0usize; 4];
    let mut started = 0usize;
    let mut entry = 0usize;
    let _ = cpm::percolate_fused_phases_probed(g, threads, mode, &mut |_name| {
        if started > 0 {
            peaks[started - 1] = peak_bytes().saturating_sub(entry);
        }
        entry = current_bytes();
        reset_peak();
        started += 1;
    });
    if started > 0 {
        peaks[started - 1] = peak_bytes().saturating_sub(entry);
    }
    peaks
}

#[cfg(not(feature = "memprof"))]
fn fused_phase_peaks(_g: &asgraph::Graph, _threads: Threads, _mode: cpm::Mode) -> [usize; 4] {
    [0; 4]
}

fn json_escape_free(s: &str) -> &str {
    assert!(
        s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "-_".contains(c)),
        "unexpected character in JSON token {s:?}"
    );
    s
}

fn to_json(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let threads = match r.threads {
            Threads::Auto => "\"auto\"".to_owned(),
            Threads::Fixed(n) => n.to_string(),
        };
        out.push_str(&format!(
            "  {{\"substrate\": \"{}\", \"op\": \"{}\", \"mode\": \"{}\", \"threads\": {threads}, \"median_ns\": {}, \"min_ns\": {}, \"peak_bytes\": {}}}{}\n",
            json_escape_free(&r.substrate),
            json_escape_free(r.op),
            json_escape_free(r.mode),
            r.median_ns,
            r.min_ns,
            r.peak_bytes,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

/// The `--check` gate. Scaling clause: 4-worker and auto rows within
/// `BOUND`× of the 1-worker row (medians) for every (substrate, op,
/// mode). Mode clause: on the medium Internet substrate exact mode's
/// 1-worker end-to-end percolation within `MODE_TIME_BOUND`× almost
/// mode's (per-iteration minima) and, when peaks were recorded
/// (`memprof`), within `MODE_HEAP_BOUND`× its peak heap. Engine scaling
/// clause (≥ 4 hardware threads only): the 4-worker run at least
/// `FUSED_SCALE_BOUND`× faster than the 1-worker one, both modes.
/// Returns violation messages.
fn check(records: &[Record]) -> Vec<String> {
    const BOUND: f64 = 1.2;
    const MODE_TIME_BOUND: f64 = 1.5;
    const MODE_HEAP_BOUND: f64 = 3.0;
    const FUSED_SCALE_BOUND: f64 = 1.3;
    let mut violations = Vec::new();
    let find = |sub: &str, op: &str, mode: &str, threads: Threads| {
        records
            .iter()
            .find(|r| r.substrate == sub && r.op == op && r.mode == mode && r.threads == threads)
    };
    let mut seen: Vec<&str> = Vec::new();
    for r in records {
        if !seen.contains(&r.substrate.as_str()) {
            seen.push(&r.substrate);
        }
    }
    for sub in seen {
        for (op, mode) in SCALED_OPS {
            let Some(base) = find(sub, op, mode, Threads::Fixed(1)).map(|r| r.median_ns) else {
                continue;
            };
            for threads in [Threads::Fixed(4), Threads::Auto] {
                if let Some(t) = find(sub, op, mode, threads).map(|r| r.median_ns) {
                    let ratio = t as f64 / base.max(1) as f64;
                    if ratio > BOUND {
                        violations.push(format!(
                            "{sub}/{op} ({mode}) @ {threads} workers is {ratio:.2}x the \
                             1-worker time (bound {BOUND}x)"
                        ));
                    }
                }
            }
        }
        // The mode clause compares the per-row *minima*: both modes
        // are deterministic and CPU-bound, so scheduling noise on a
        // shared runner only ever inflates a sample, and the minimum is
        // the stable estimate of the true cost ratio. Exact mode is
        // almost mode plus certification, so both ratios stay near 1.
        if let (Some(exact), Some(almost)) = (
            find(sub, "percolate-fused", "exact", Threads::Fixed(1)),
            find(sub, "percolate-fused", "almost", Threads::Fixed(1)),
        ) {
            let time = exact.min_ns as f64 / almost.min_ns.max(1) as f64;
            if sub == "medium-internet" && time > MODE_TIME_BOUND {
                violations.push(format!(
                    "{sub}/percolate-fused: exact mode takes {time:.2}x almost mode's time \
                     (bound {MODE_TIME_BOUND}x)"
                ));
            }
            let heap = exact.peak_bytes as f64 / almost.peak_bytes.max(1) as f64;
            if sub == "medium-internet" && almost.peak_bytes > 0 && heap > MODE_HEAP_BOUND {
                violations.push(format!(
                    "{sub}/percolate-fused: exact mode peaks at {heap:.2}x almost mode's heap \
                     (bound {MODE_HEAP_BOUND}x)"
                ));
            }
        }
        // The engine scaling clause: the finish phases chunk over the
        // pool, so on hardware with real parallelism the 4-worker run
        // must beat the 1-worker one outright. Gated on the machine
        // actually having 4 threads — on a single-core runner extra
        // workers cannot speed anything up and the generic BOUND clause
        // above already polices their overhead.
        if sub == "medium-internet" && exec::available_parallelism() >= 4 {
            for mode in ["exact", "almost"] {
                if let (Some(one), Some(four)) = (
                    find(sub, "percolate-fused", mode, Threads::Fixed(1)).map(|r| r.min_ns),
                    find(sub, "percolate-fused", mode, Threads::Fixed(4)).map(|r| r.min_ns),
                ) {
                    let speedup = one as f64 / four.max(1) as f64;
                    if speedup < FUSED_SCALE_BOUND {
                        violations.push(format!(
                            "{sub}/percolate-fused ({mode}): 4 workers run only {speedup:.2}x \
                             vs 1 (bound {FUSED_SCALE_BOUND}x)"
                        ));
                    }
                }
            }
        }
    }
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let picked: Vec<&str> = args
        .windows(2)
        .filter(|w| w[0] == "--substrate")
        .map(|w| w[1].as_str())
        .collect();
    const NAMES: [&str; 6] = ["sparse", "dense", "tiny", "medium", "full", "all"];
    if let Some(bad) = picked.iter().find(|name| !NAMES.contains(name)) {
        eprintln!(
            "unknown --substrate {bad:?}; expected one of {}",
            NAMES.join(" | ")
        );
        std::process::exit(2);
    }
    let iters: usize = get("--iters").map_or(7, |v| v.parse().expect("bad --iters"));
    let seed: u64 = get("--seed").map_or(7, |v| v.parse().expect("bad --seed"));
    let out_path = get("--out").unwrap_or_else(|| "BENCH_pool.json".to_owned());

    let mut substrates: Vec<(&str, asgraph::Graph)> = Vec::new();
    let want = |name: &str| picked.is_empty() || picked.contains(&"all") || picked.contains(&name);
    if want("sparse") {
        substrates.push(("sparse300", bench::random_graph(300, 0.05, seed)));
    }
    if want("dense") {
        substrates.push(("dense60", bench::random_graph(60, 0.5, seed)));
    }
    if want("tiny") {
        substrates.push(("tiny-internet", bench::tiny_internet(seed).graph));
    }
    if want("medium") {
        substrates.push(("medium-internet", bench::medium_internet(seed).graph));
    }
    if want("full") {
        substrates.push(("full-internet", bench::full_internet(seed).graph));
    }

    eprintln!(
        "machine parallelism: {} hardware threads",
        exec::available_parallelism()
    );
    let mut records = Vec::new();
    for (name, g) in &substrates {
        eprintln!(
            "benching {name}: {} nodes, {} edges ({iters} iters)",
            g.node_count(),
            g.edge_count()
        );
        bench_substrate(name, g, iters, &mut records);
    }

    println!(
        "{:<16} {:<15} {:<7} {:>5} {:>14}",
        "substrate", "op", "mode", "thr", "median_ns"
    );
    for r in &records {
        println!(
            "{:<16} {:<15} {:<7} {:>5} {:>14}",
            r.substrate,
            r.op,
            r.mode,
            r.threads.to_string(),
            r.median_ns
        );
    }
    for (name, _) in &substrates {
        // Scaling summary: each fixed count vs the 1-worker row.
        for (op, mode) in SCALED_OPS {
            let find = |threads: Threads| {
                records
                    .iter()
                    .find(|r| {
                        r.substrate == *name && r.op == op && r.mode == mode && r.threads == threads
                    })
                    .map(|r| r.median_ns)
            };
            if let Some(base) = find(Threads::Fixed(1)) {
                for t in THREAD_COUNTS.iter().skip(1) {
                    if let Some(ns) = find(Threads::Fixed(*t)) {
                        println!(
                            "scaling {name}/{op} ({mode}): {t} workers run {:.2}x vs 1",
                            base as f64 / ns.max(1) as f64
                        );
                    }
                }
            }
        }
        // Mode summary: the engine's two modes, 1-worker rows.
        let find = |mode: &str| {
            records
                .iter()
                .find(|r| {
                    r.substrate == *name
                        && r.op == "percolate-fused"
                        && r.mode == mode
                        && r.threads == Threads::Fixed(1)
                })
                .map(|r| r.median_ns)
        };
        if let (Some(exact), Some(almost)) = (find("exact"), find("almost")) {
            println!(
                "mode {name}/percolate-fused: exact takes {:.2}x almost's time (1 worker)",
                exact as f64 / almost.max(1) as f64
            );
        }
    }

    std::fs::write(&out_path, to_json(&records)).expect("cannot write bench JSON");
    eprintln!("wrote {out_path}");

    if has("--check") {
        let violations = check(&records);
        if violations.is_empty() {
            eprintln!(
                "check passed: 4-worker and auto rows within 1.2x of sequential; \
                 exact mode within 1.5x of almost's time (3x its peak heap) on \
                 medium-internet{}",
                if exec::available_parallelism() >= 4 {
                    "; 4-worker percolation at least 1.3x faster than 1-worker"
                } else {
                    " (engine scaling clause skipped: fewer than 4 hardware threads)"
                }
            );
        } else {
            for v in &violations {
                eprintln!("check FAILED: {v}");
            }
            std::process::exit(1);
        }
    }
}
