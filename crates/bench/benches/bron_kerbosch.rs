//! Ablation bench: the Bron–Kerbosch family.
//!
//! Pivoting vs no pivoting, degeneracy ordering vs plain recursion, and
//! the work-stealing parallel driver — the DESIGN.md ablation for why the
//! degeneracy variant is the default on sparse AS-like graphs.

use bench::{random_graph, tiny_internet};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bk_variants(c: &mut Criterion) {
    let sparse = random_graph(300, 0.03, 1);
    let dense = random_graph(60, 0.4, 2);
    let internet = tiny_internet(42);

    let mut group = c.benchmark_group("bron_kerbosch");
    group.sample_size(20);
    group.bench_function("basic/sparse300", |b| {
        b.iter(|| black_box(cliques::bron_kerbosch::basic(&sparse)))
    });
    group.bench_function("pivot/sparse300", |b| {
        b.iter(|| black_box(cliques::bron_kerbosch::pivot(&sparse)))
    });
    group.bench_function("degeneracy/sparse300", |b| {
        b.iter(|| black_box(cliques::max_cliques(&sparse)))
    });
    group.bench_function("basic/dense60", |b| {
        b.iter(|| black_box(cliques::bron_kerbosch::basic(&dense)))
    });
    group.bench_function("pivot/dense60", |b| {
        b.iter(|| black_box(cliques::bron_kerbosch::pivot(&dense)))
    });
    group.bench_function("degeneracy/dense60", |b| {
        b.iter(|| black_box(cliques::max_cliques(&dense)))
    });
    group.bench_function("degeneracy/internet400", |b| {
        b.iter(|| black_box(cliques::max_cliques(&internet.graph)))
    });
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("parallel{threads}/internet400"), |b| {
            b.iter(|| {
                black_box(cliques::parallel::max_cliques_parallel(
                    &internet.graph,
                    threads,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bk_variants);
criterion_main!(benches);
