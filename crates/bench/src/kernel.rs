//! The set-kernel suite (`BENCH_kernel.json`): merge vs bitset vs auto
//! through every stage the kernel touches, plus the ablations DESIGN §3
//! cites.
//!
//! Ops, each under every kernel (the `variant` column): `enumerate`
//! (sequential maximal cliques), `enumerate_par` (work-stealing, `auto`
//! workers), and `percolate_fused` / `percolate_fused_par` (the
//! percolation engine, which streams cliques straight into percolation;
//! the `_par` row runs enumeration and finish on the pool). The engine
//! runs in `exact` mode, plus one `almost` row per op under the `auto`
//! kernel (the kernel only changes how cliques are enumerated, which
//! every mode shares).
//!
//! On `sparse300` and `dense60` two ablations join them:
//! `bron_kerbosch` with variants `basic` (no pivot), `pivot` and
//! `degeneracy` (the driver `cliques::max_cliques` uses), and
//! `communities_k4` with variants `naive` (the literal definition,
//! `cpm::naive`) and `percolate_at` (the maximal-clique reduction,
//! `cpm::percolate(g).cover(4)`). The label stays so the committed
//! rows stay comparable: they timed this same projection of the all-k
//! sweep under that name.

use crate::{round_robin, substrate, Args, Cell, Row, Suite};
use asgraph::Graph;
use cliques::Kernel;
use exec::{CancelToken, Threads};

/// The kernel suite.
pub(crate) const SUITE: Suite = Suite {
    name: "kernel",
    ops: &[
        "enumerate",
        "enumerate_par",
        "percolate_fused",
        "percolate_fused_par",
        "bron_kerbosch",
        "communities_k4",
    ],
    flags: &["--substrate", "--iters", "--seed", "--out"],
    substrates: &["sparse", "dense", "tiny", "small"],
    iters: 9,
    run,
    check: None,
};

/// An ablation row: op, variant, and the run, returning a count.
type Ablation = (&'static str, &'static str, fn(&Graph) -> usize);

const ABLATIONS: [Ablation; 5] = [
    ("bron_kerbosch", "basic", |g| {
        cliques::bron_kerbosch::basic(g).len()
    }),
    ("bron_kerbosch", "pivot", |g| {
        cliques::bron_kerbosch::pivot(g).len()
    }),
    ("bron_kerbosch", "degeneracy", |g| {
        cliques::max_cliques(g).len()
    }),
    ("communities_k4", "naive", |g| {
        cpm::naive::naive_communities(g, 4).len()
    }),
    ("communities_k4", "percolate_at", |g| {
        cpm::percolate(g).cover(4).len()
    }),
];

const KERNELS: [(&str, Kernel); 3] = [
    ("merge", Kernel::Merge),
    ("bitset", Kernel::Bitset),
    ("auto", Kernel::Auto),
];

/// The sequential and the pooled op of each stage, with their workers.
const STAGES: [(&str, &str, Threads); 2] = [
    ("enumerate", "percolate_fused", Threads::Fixed(1)),
    ("enumerate_par", "percolate_fused_par", Threads::Auto),
];

fn enumerate(g: &Graph, threads: Threads, kernel: Kernel) -> cliques::CliqueSet {
    let mut set = cliques::CliqueSet::new();
    cliques::consume_max_cliques(g, threads, kernel, &CancelToken::new(), &mut set)
        .expect("a token nobody cancels never trips");
    set
}

fn percolate(g: &Graph, threads: Threads, kernel: Kernel, mode: cpm::Mode) -> cpm::CpmResult {
    cpm::percolate_fused_cancellable(g, threads, kernel, &CancelToken::new(), mode)
        .expect("a token nobody cancels never trips")
}

fn run(args: &Args) -> Vec<Row> {
    let mut rows = Vec::new();
    for &flag in &args.substrates {
        let (name, g) = substrate(flag, args.seed);
        let g = &g;
        let row = |op, mode, variant, threads| Row {
            mode,
            variant: Some(variant),
            threads: Some(threads),
            ..Row::new("kernel", name, op)
        };
        let mut cells = Vec::new();
        for (variant, kernel) in KERNELS {
            let modes: &[cpm::Mode] = match kernel {
                Kernel::Auto => &[cpm::Mode::Exact, cpm::Mode::Almost],
                _ => &[cpm::Mode::Exact],
            };
            for (enumerate_op, percolate_op, threads) in STAGES {
                let r = row(enumerate_op, None, variant, threads);
                cells.push(Cell::one(r, move || enumerate(g, threads, kernel)));
                for &mode in modes {
                    let r = row(percolate_op, Some(mode.as_str()), variant, threads);
                    cells.push(Cell::one(r, move || percolate(g, threads, kernel, mode)));
                }
            }
        }
        if matches!(flag, "sparse" | "dense") {
            for (op, variant, f) in ABLATIONS {
                let r = row(op, None, variant, Threads::Fixed(1));
                cells.push(Cell::one(r, move || f(g)));
            }
        }
        rows.extend(round_robin(args.iters, cells));
    }
    rows
}
