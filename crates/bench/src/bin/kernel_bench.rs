//! Machine-readable merge-vs-bitset kernel benchmark.
//!
//! ```text
//! cargo run --release -p bench --features memprof --bin kernel-bench -- \
//!     [--substrate tiny|small|sparse|dense|all] [--threads <n>|auto] \
//!     [--iters <n>] [--seed <u64>] [--out BENCH_kernel.json]
//! ```
//!
//! For every (substrate, operation, kernel) combination this times
//! `--iters` runs, reports the median wall time, and measures the peak
//! heap growth of one run through the `memprof` counting allocator. The
//! JSON written to `--out` (stdout gets a human table) is the record
//! committed as `BENCH_kernel.json` and checked by the CI smoke job.
//!
//! Operations: `enumerate` (sequential maximal cliques), `enumerate_par`
//! (work-stealing, `--threads` workers), and `percolate_fused` /
//! `percolate_fused_par` (the percolation engine — cliques stream
//! straight into percolation, no clique list; the `_par` row runs both
//! the enumeration *and* the finish-time phases on the pool). Every row
//! carries a `mode` column: the kernel matrix runs the `exact` engine,
//! plus one sequential and one parallel `almost`-mode row per substrate
//! (the kernel only changes how cliques are enumerated, which every
//! mode shares).

use cliques::Kernel;
use std::time::Instant;

#[global_allocator]
static ALLOC: bench::memprof::CountingAlloc = bench::memprof::CountingAlloc;

struct Record {
    substrate: String,
    op: &'static str,
    mode: &'static str,
    kernel: Kernel,
    threads: exec::Threads,
    median_ns: u128,
    peak_bytes: usize,
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `iters` runs of `f` and measures one run's peak heap growth.
fn measure<T>(iters: usize, mut f: impl FnMut() -> T) -> (u128, usize) {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        samples.push(t0.elapsed().as_nanos());
        drop(out);
    }
    let (_, peak) = bench::memprof::measure_peak(&mut f);
    (median_ns(samples), peak)
}

/// The enumeration driver on `threads` workers with `kernel`, collected.
fn enumerate(g: &asgraph::Graph, threads: exec::Threads, kernel: Kernel) -> cliques::CliqueSet {
    let mut set = cliques::CliqueSet::new();
    cliques::consume_max_cliques(g, threads, kernel, &exec::CancelToken::new(), &mut set)
        .expect("a token nobody cancels never trips");
    set
}

/// The percolation engine at `threads` workers with an explicit kernel.
fn percolate(
    g: &asgraph::Graph,
    threads: exec::Threads,
    kernel: Kernel,
    mode: cpm::Mode,
) -> cpm::CpmResult {
    cpm::percolate_fused_cancellable(g, threads, kernel, &exec::CancelToken::new(), mode)
        .expect("a token nobody cancels never trips")
}

fn bench_substrate(
    name: &str,
    g: &asgraph::Graph,
    threads: exec::Threads,
    iters: usize,
    records: &mut Vec<Record>,
) {
    let sequential = exec::Threads::Fixed(1);
    for kernel in [Kernel::Merge, Kernel::Bitset, Kernel::Auto] {
        let mut push = |op, threads, (median_ns, peak_bytes)| {
            records.push(Record {
                substrate: name.to_owned(),
                op,
                mode: "exact",
                kernel,
                threads,
                median_ns,
                peak_bytes,
            });
        };
        push(
            "enumerate",
            sequential,
            measure(iters, || enumerate(g, sequential, kernel)),
        );
        push(
            "enumerate_par",
            threads,
            measure(iters, || enumerate(g, threads, kernel)),
        );
        push(
            "percolate_fused",
            sequential,
            measure(iters, || percolate(g, sequential, kernel, cpm::Mode::Exact)),
        );
        push(
            "percolate_fused_par",
            threads,
            measure(iters, || percolate(g, threads, kernel, cpm::Mode::Exact)),
        );
    }

    // One sequential and one parallel almost-mode row per substrate for
    // the exact-vs-almost comparison.
    for (op, threads) in [
        ("percolate_fused", sequential),
        ("percolate_fused_par", threads),
    ] {
        let (median_ns, peak_bytes) = measure(iters, || {
            percolate(g, threads, Kernel::Auto, cpm::Mode::Almost)
        });
        records.push(Record {
            substrate: name.to_owned(),
            op,
            mode: "almost",
            kernel: Kernel::Auto,
            threads,
            median_ns,
            peak_bytes,
        });
    }
}

fn json_escape_free(s: &str) -> &str {
    // Every string we emit is an identifier-like token; keep the writer
    // honest anyway.
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
        // A fixed count stays a JSON number; `auto` becomes a string.
        let threads = match r.threads {
            exec::Threads::Auto => "\"auto\"".to_owned(),
            exec::Threads::Fixed(n) => n.to_string(),
        };
        out.push_str(&format!(
            "  {{\"substrate\": \"{}\", \"op\": \"{}\", \"mode\": \"{}\", \"kernel\": \"{}\", \"threads\": {threads}, \"median_ns\": {}, \"peak_bytes\": {}}}{}\n",
            json_escape_free(&r.substrate),
            json_escape_free(r.op),
            json_escape_free(r.mode),
            json_escape_free(&r.kernel.to_string()),
            r.median_ns,
            r.peak_bytes,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let substrate = get("--substrate").unwrap_or_else(|| "all".to_owned());
    let threads: exec::Threads =
        get("--threads").map_or(exec::Threads::Auto, |v| v.parse().expect("bad --threads"));
    let iters: usize = get("--iters").map_or(9, |v| v.parse().expect("bad --iters"));
    let seed: u64 = get("--seed").map_or(7, |v| v.parse().expect("bad --seed"));
    let out_path = get("--out").unwrap_or_else(|| "BENCH_kernel.json".to_owned());

    let mut substrates: Vec<(&str, asgraph::Graph)> = Vec::new();
    let want = |name: &str| substrate == "all" || substrate == name;
    if want("sparse") {
        substrates.push(("sparse300", bench::random_graph(300, 0.05, seed)));
    }
    if want("dense") {
        substrates.push(("dense60", bench::random_graph(60, 0.5, seed)));
    }
    if want("tiny") {
        substrates.push(("tiny-internet", bench::tiny_internet(seed).graph));
    }
    if want("small") {
        substrates.push(("small-internet", bench::small_internet(seed).graph));
    }
    if substrates.is_empty() {
        eprintln!(
            "unknown --substrate {substrate:?}; expected tiny | small | sparse | dense | all"
        );
        std::process::exit(2);
    }

    let mut records = Vec::new();
    for (name, g) in &substrates {
        eprintln!(
            "benching {name}: {} nodes, {} edges ({iters} iters, {threads} threads)",
            g.node_count(),
            g.edge_count()
        );
        bench_substrate(name, g, threads, iters, &mut records);
    }

    println!(
        "{:<16} {:<20} {:<7} {:<7} {:>4} {:>14} {:>12}",
        "substrate", "op", "mode", "kernel", "thr", "median_ns", "peak_bytes"
    );
    for r in &records {
        println!(
            "{:<16} {:<20} {:<7} {:<7} {:>4} {:>14} {:>12}",
            r.substrate, r.op, r.mode, r.kernel, r.threads, r.median_ns, r.peak_bytes
        );
    }
    let ops = [
        "enumerate",
        "enumerate_par",
        "percolate_fused",
        "percolate_fused_par",
    ];
    for (name, _) in &substrates {
        // Speedup summary: bitset and auto vs merge per (substrate, op),
        // exact rows.
        for op in ops {
            let find = |k: Kernel| {
                records
                    .iter()
                    .find(|r| {
                        r.substrate == *name && r.op == op && r.mode == "exact" && r.kernel == k
                    })
                    .map(|r| r.median_ns)
            };
            if let (Some(m), Some(b)) = (find(Kernel::Merge), find(Kernel::Bitset)) {
                println!(
                    "speedup {name}/{op}: bitset is {:.2}x vs merge",
                    m as f64 / b.max(1) as f64
                );
            }
            // Auto vs merge is the user-visible change: merge was the
            // only (implicit) kernel before `--kernel` existed.
            if let (Some(m), Some(a)) = (find(Kernel::Merge), find(Kernel::Auto)) {
                println!(
                    "speedup {name}/{op}: auto is {:.2}x vs merge",
                    m as f64 / a.max(1) as f64
                );
            }
        }
        // Mode summary: the almost engine vs the exact auto-kernel row.
        for op in ["percolate_fused", "percolate_fused_par"] {
            let find = |mode: &str| {
                records
                    .iter()
                    .find(|r| {
                        r.substrate == *name
                            && r.op == op
                            && r.mode == mode
                            && r.kernel == Kernel::Auto
                    })
                    .map(|r| r.median_ns)
            };
            if let (Some(e), Some(a)) = (find("exact"), find("almost")) {
                println!(
                    "speedup {name}/{op}: almost mode is {:.2}x vs exact",
                    e as f64 / a.max(1) as f64
                );
            }
        }
    }

    std::fs::write(&out_path, to_json(&records)).expect("cannot write bench JSON");
    eprintln!("wrote {out_path}");
}
