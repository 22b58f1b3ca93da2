//! Merge vs bitset set-kernel micro-benchmarks.
//!
//! The same substrates the acceptance criteria name: a sparse and a
//! dense Erdős–Rényi graph plus the tiny/small synthetic Internets,
//! through every stage the kernel touches — sequential enumeration,
//! work-stealing parallel enumeration, and the full percolation (whose
//! only kernel-dependent phase is the enumeration it streams from). The
//! machine-readable twin of this bench is the `kernel-bench` binary
//! (which adds peak-heap via `memprof`).

use cliques::Kernel;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const KERNELS: [Kernel; 2] = [Kernel::Merge, Kernel::Bitset];

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
                b.iter(|| black_box(cliques::max_cliques_with(black_box(g), kernel)));
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
                b.iter(|| {
                    black_box(cliques::parallel::max_cliques_parallel_with(
                        black_box(g),
                        4,
                        kernel,
                    ))
                });
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
                    cliques::consume_max_cliques(black_box(g), kernel, &mut p);
                    black_box(p.finish())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, enumerate, enumerate_parallel, percolate);
criterion_main!(benches);
