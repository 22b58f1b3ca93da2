//! The thread-scaling suite of the persistent executor
//! (`BENCH_pool.json`), on `medium` and `full` (the paper-scale 35k-AS
//! preset) by default; `--substrate census` (K(2×14), opt-in) runs the
//! paper's census regime, and `--substrate ring` (4,000 disjoint K15s in
//! a ring, opt-in) exact mode's certification over sparse hubs.
//!
//! Ops, at 1, 2, 4 and 8 workers and `auto` through the one persistent
//! `exec::Pool`: `enumerate` (work-stealing Bron–Kerbosch) and
//! `percolate-fused` (the percolation engine, `exact` and `almost`).
//! Phase rows (`fused-consume`, `fused-pairs`, `fused-sweep`,
//! `fused-extract`) split the engine at 1 and 4 workers, each with its
//! own peak heap. `rebuild-log` (`exact`, `auto`) replays the
//! substrate's clique log into the engine, as `serve --snapshot
//! x.cliquelog` does at start-up and on every reload.
//!
//! `--check` gates five clauses. Scaling: the 4-worker and `auto` rows
//! of each scaled op take at most 1.2× the 1-worker median; on a
//! single core that bounds pure pool overhead. Mode, on the medium
//! Internet: exact mode takes at most 1.2× almost mode's 1-worker
//! minimum time and 3× its peak heap. Ring: on the ring, exact mode
//! takes at most 2× almost mode's 1-worker minimum time and 1.1× its
//! peak heap. Engine scaling, on the medium Internet with ≥ 4 hardware
//! threads: 4 workers beat 1 by at least 1.3× on the minima, both
//! modes. Census memory, on K(2×14): every `percolate-fused` row peaks
//! at most 64 MiB of heap, so the finish keeps no list of the census's
//! 10⁸ overlapping clique pairs. That is the census's only clause: its
//! 28 vertices make two enumeration chunks, so its worker counts time
//! milliseconds of pool overhead.

use crate::{find, memprof, round_robin, substrate, substrates_of, Args, Cell, Row, Sample, Suite};
use exec::Threads;

/// The pool suite.
pub(crate) const SUITE: Suite = Suite {
    name: "pool",
    ops: &[
        "enumerate",
        "percolate-fused",
        "rebuild-log",
        "fused-consume",
        "fused-pairs",
        "fused-sweep",
        "fused-extract",
    ],
    flags: &["--substrate", "--iters", "--seed", "--out", "--check"],
    substrates: &["medium", "full"],
    iters: 11,
    run,
    check: Some(check),
};

/// Worker counts of the scaling curve.
const THREADS: [Threads; 5] = [
    Threads::Fixed(1),
    Threads::Fixed(2),
    Threads::Fixed(4),
    Threads::Fixed(8),
    Threads::Auto,
];

/// The `(op, mode)` rows timed at every worker count.
const SCALED_OPS: [(&str, Option<&str>); 3] = [
    ("enumerate", None),
    ("percolate-fused", Some("exact")),
    ("percolate-fused", Some("almost")),
];

const PHASES: [&str; 4] = [
    "fused-consume",
    "fused-pairs",
    "fused-sweep",
    "fused-extract",
];

const MODES: [cpm::Mode; 2] = [cpm::Mode::Exact, cpm::Mode::Almost];

fn run(args: &Args) -> Vec<Row> {
    let dir = std::env::temp_dir().join(format!("kclique_bench_pool_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut rows = Vec::new();
    for &flag in &args.substrates {
        let (name, g) = substrate(flag, args.seed);
        let g = &g;
        let log = dir.join(format!("{name}.cliquelog"));
        cpm_stream::write_clique_log(g, &log).expect("log build");
        let row = |op, mode: Option<&'static str>, threads| Row {
            mode,
            threads: Some(threads),
            ..Row::new("pool", name, op)
        };
        let mut cells = Vec::new();
        for threads in THREADS {
            let r = row("enumerate", None, threads);
            cells.push(Cell::one(r, move || {
                cliques::parallel::max_cliques_parallel(g, threads)
            }));
            for mode in MODES {
                let r = row("percolate-fused", Some(mode.as_str()), threads);
                cells.push(Cell::one(r, move || {
                    cpm::percolate_parallel(g, threads, mode)
                }));
            }
        }
        let log = &log;
        let r = row("rebuild-log", Some("exact"), Threads::Auto);
        cells.push(Cell::one(r, move || {
            let mut source = cpm_stream::LogSource::open(log).expect("log open");
            cpm_stream::stream_percolate_parallel_mode(&mut source, Threads::Auto, cpm::Mode::Exact)
                .expect("log replay")
        }));
        for mode in MODES {
            for threads in [Threads::Fixed(1), Threads::Fixed(4)] {
                cells.push(Cell {
                    rows: PHASES
                        .iter()
                        .map(|op| row(op, Some(mode.as_str()), threads))
                        .collect(),
                    run: Box::new(move || phase_samples(g, threads, mode)),
                });
            }
        }
        rows.extend(round_robin(args.iters, cells));
    }
    std::fs::remove_dir_all(&dir).ok();
    rows
}

/// One run of the engine's phase breakdown: each of `[consume, pairs,
/// sweep, extract]` as a sample of its wall time and peak heap growth.
/// The observer fires as each phase *starts*: the high-water mark since
/// the previous transition, less the live size at that transition, is
/// the finishing phase's peak; the last phase is closed out after the
/// call.
fn phase_samples(g: &asgraph::Graph, threads: Threads, mode: cpm::Mode) -> Vec<Sample> {
    let mut peaks = [0usize; 4];
    let mut started = 0usize;
    let mut entry = 0usize;
    let mut close = |started: usize, entry: usize| {
        if started > 0 {
            peaks[started - 1] = memprof::peak_bytes().saturating_sub(entry);
        }
    };
    let (_, phases) = cpm::percolate_fused_phases_probed(g, threads, mode, &mut |_name| {
        close(started, entry);
        entry = memprof::current_bytes();
        memprof::reset_peak();
        started += 1;
    });
    close(started, entry);
    let times = [phases.consume, phases.pairs, phases.sweep, phases.extract];
    times.iter().map(|t| t.as_nanos()).zip(peaks).collect()
}

fn check(rows: &[Row]) -> Vec<String> {
    const BOUND: f64 = 1.2;
    const MODE_TIME_BOUND: f64 = 1.2;
    const MODE_HEAP_BOUND: f64 = 3.0;
    const RING_TIME_BOUND: f64 = 2.0;
    const RING_HEAP_BOUND: f64 = 1.1;
    const FUSED_SCALE_BOUND: f64 = 1.3;
    const CENSUS_HEAP_BOUND: usize = 64 << 20;
    let mut violations = Vec::new();
    let one = Threads::Fixed(1);
    let ratio = |a: Option<u128>, b: Option<u128>| Some(a? as f64 / b?.max(1) as f64);
    let min = |r: Option<&Row>| r.and_then(|r| r.min_ns);
    let peak = |r: Option<&Row>| r.and_then(|r| r.peak_bytes).map(|b| b as u128);
    for sub in substrates_of(rows) {
        if sub == "census-k2x14" {
            for r in rows
                .iter()
                .filter(|r| r.substrate == sub && r.op == "percolate-fused")
            {
                if let Some(peak) = r.peak_bytes.filter(|&p| p > CENSUS_HEAP_BOUND) {
                    violations.push(format!(
                        "{sub}/percolate-fused ({}) @ {} workers peaks at {:.1} MiB of heap \
                         (bound {} MiB)",
                        r.mode.unwrap_or("-"),
                        r.threads.map_or("-".into(), |t| t.to_string()),
                        peak as f64 / (1 << 20) as f64,
                        CENSUS_HEAP_BOUND >> 20
                    ));
                }
            }
            continue;
        }
        let get = |op, mode, threads| find(rows, (sub, op, mode, None, Some(threads)));
        for (op, mode) in SCALED_OPS {
            let median = |threads| get(op, mode, threads).and_then(|r| r.median_ns);
            for threads in [Threads::Fixed(4), Threads::Auto] {
                if let Some(r) = ratio(median(threads), median(one)).filter(|&r| r > BOUND) {
                    violations.push(format!(
                        "{sub}/{op} ({}) @ {threads} workers is {r:.2}x the 1-worker time \
                         (bound {BOUND}x)",
                        mode.unwrap_or("-")
                    ));
                }
            }
        }
        // Exact mode is almost mode plus certification, so both ratios
        // stay near 1, on the Internet and on the ring's sparse hubs.
        let (time_bound, heap_bound) = match sub {
            "medium-internet" => (MODE_TIME_BOUND, MODE_HEAP_BOUND),
            "ring-k15x4000" => (RING_TIME_BOUND, RING_HEAP_BOUND),
            _ => continue,
        };
        let fused = |mode, threads| get("percolate-fused", Some(mode), threads);
        let (exact, almost) = (fused("exact", one), fused("almost", one));
        if let Some(t) = ratio(min(exact), min(almost)).filter(|&t| t > time_bound) {
            violations.push(format!(
                "{sub}/percolate-fused: exact mode takes {t:.2}x almost mode's time \
                 (bound {time_bound}x)"
            ));
        }
        if let Some(h) = ratio(peak(exact), peak(almost)).filter(|&h| h > heap_bound) {
            violations.push(format!(
                "{sub}/percolate-fused: exact mode peaks at {h:.2}x almost mode's heap \
                 (bound {heap_bound}x)"
            ));
        }
        if sub != "medium-internet" {
            continue;
        }
        // With fewer than 4 hardware threads extra workers cannot speed
        // anything up, and the scaling clause above polices their
        // overhead.
        if exec::available_parallelism() < 4 {
            continue;
        }
        for mode in ["exact", "almost"] {
            let four = fused(mode, Threads::Fixed(4));
            if let Some(s) =
                ratio(min(fused(mode, one)), min(four)).filter(|&s| s < FUSED_SCALE_BOUND)
            {
                violations.push(format!(
                    "{sub}/percolate-fused ({mode}): 4 workers run only {s:.2}x vs 1 \
                     (bound {FUSED_SCALE_BOUND}x)"
                ));
            }
        }
    }
    violations
}
