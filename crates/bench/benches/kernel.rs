//! Merge vs bitset set-kernel micro-benchmarks.
//!
//! The same substrates the acceptance criteria name: a sparse and a
//! dense Erdős–Rényi graph plus the tiny/small synthetic Internets,
//! through every stage the kernel touches — sequential enumeration,
//! work-stealing parallel enumeration, and the full percolation (whose
//! only kernel-dependent phase is the enumeration it streams from). The
//! machine-readable twin of this bench is the `kernel-bench` binary
//! (which adds peak-heap via `memprof`).

use cliques::{CliqueConsumer, CliqueSet, Kernel};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use exec::CancelToken;

const KERNELS: [Kernel; 2] = [Kernel::Merge, Kernel::Bitset];

/// The enumeration driver on `threads` workers with `kernel`.
fn drive(
    g: &asgraph::Graph,
    threads: usize,
    kernel: Kernel,
    consumer: &mut (dyn CliqueConsumer + Send),
) {
    cliques::consume_max_cliques(g, threads, kernel, &CancelToken::new(), consumer)
        .expect("a fresh token never trips");
}

fn collect(g: &asgraph::Graph, threads: usize, kernel: Kernel) -> CliqueSet {
    let mut set = CliqueSet::new();
    drive(g, threads, kernel, &mut set);
    set
}

fn substrates() -> Vec<(&'static str, asgraph::Graph)> {
    vec![
        ("sparse300", bench::random_graph(300, 0.05, 1)),
        ("dense60", bench::random_graph(60, 0.5, 2)),
        ("tiny-internet", bench::tiny_internet(7).graph),
        ("small-internet", bench::small_internet(7).graph),
    ]
}

fn enumerate(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/enumerate");
    group.sample_size(10);
    for (name, g) in &substrates() {
        for kernel in KERNELS {
            group.bench_function(format!("{name}/{kernel}"), |b| {
                b.iter(|| black_box(collect(black_box(g), 1, kernel)));
            });
        }
    }
    group.finish();
}

fn enumerate_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/enumerate-par4");
    group.sample_size(10);
    for (name, g) in &substrates() {
        for kernel in KERNELS {
            group.bench_function(format!("{name}/{kernel}"), |b| {
                b.iter(|| black_box(collect(black_box(g), 4, kernel)));
            });
        }
    }
    group.finish();
}

fn percolate(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/percolate");
    group.sample_size(10);
    for (name, g) in &substrates() {
        for kernel in KERNELS {
            group.bench_function(format!("{name}/{kernel}"), |b| {
                b.iter(|| {
                    let mut p = cpm::FusedPercolator::new(g.node_count(), cpm::Mode::Exact);
                    drive(black_box(g), 1, kernel, &mut p);
                    black_box(p.finish())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, enumerate, enumerate_parallel, percolate);
criterion_main!(benches);
