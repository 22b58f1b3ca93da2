//! CPM benchmarks and ablations.
//!
//! - sequential vs multi-worker Lightweight Parallel CPM (the paper's
//!   companion-algorithm claim, P.CPM in DESIGN.md);
//! - the fast maximal-clique reduction vs the literal definition.

use bench::{random_graph, small_internet, tiny_internet};
use cpm::Mode;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn cpm_end_to_end(c: &mut Criterion) {
    let tiny = tiny_internet(42);
    let small = small_internet(42);

    let mut group = c.benchmark_group("cpm_end_to_end");
    group.sample_size(10);
    group.bench_function("sequential/tiny400", |b| {
        b.iter(|| black_box(cpm::percolate(&tiny.graph)))
    });
    group.bench_function("sequential/small2000", |b| {
        b.iter(|| black_box(cpm::percolate(&small.graph)))
    });
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("parallel{threads}/small2000"), |b| {
            b.iter(|| black_box(cpm::percolate_parallel(&small.graph, threads, Mode::Exact)))
        });
    }
    group.finish();
}

fn definition_vs_reduction(c: &mut Criterion) {
    let g = random_graph(60, 0.18, 3);
    let mut group = c.benchmark_group("definition_vs_reduction");
    group.sample_size(10);
    group.bench_function("maximal_clique_reduction_all_k", |b| {
        b.iter(|| black_box(cpm::percolate(&g)))
    });
    group.bench_function("maximal_clique_reduction_k4_only", |b| {
        b.iter(|| black_box(cpm::percolate_at(&g, 4)))
    });
    group.bench_function("literal_definition_k4_only", |b| {
        b.iter(|| black_box(cpm::naive::naive_communities(&g, 4)))
    });
    group.finish();
}

criterion_group!(benches, cpm_end_to_end, definition_vs_reduction);
criterion_main!(benches);
