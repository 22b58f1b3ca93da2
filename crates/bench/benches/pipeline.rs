//! Full-pipeline benchmark: everything each figure/table experiment runs
//! (generate → percolate → tree → metrics → tags → segments).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("analyze/tiny400", |b| {
        b.iter(|| black_box(kclique_core::analyze(&topology::ModelConfig::tiny(42), 2).unwrap()))
    });
    group.bench_function("analyze/small2000", |b| {
        b.iter(|| black_box(kclique_core::analyze(&topology::ModelConfig::small(42), 2).unwrap()))
    });
    group.finish();
}

fn analysis_stages(c: &mut Criterion) {
    let topo = topology::generate(&topology::ModelConfig::small(42)).unwrap();
    let result = cpm::percolate(&topo.graph);
    let tree = kclique_core::CommunityTree::build(&result);

    let mut group = c.benchmark_group("analysis_stages");
    group.sample_size(10);
    group.bench_function("tree_build", |b| {
        b.iter(|| black_box(kclique_core::CommunityTree::build(&result)))
    });
    group.bench_function("metric_rows", |b| {
        b.iter(|| black_box(kclique_core::metric_rows(&topo.graph, &result, &tree)))
    });
    group.bench_function("overlap_report", |b| {
        b.iter(|| black_box(kclique_core::overlap_report(&result, &tree)))
    });
    group.bench_function("community_tag_infos", |b| {
        b.iter(|| black_box(kclique_core::community_tag_infos(&topo, &result, &tree)))
    });
    group.finish();
}

criterion_group!(benches, full_pipeline, analysis_stages);
criterion_main!(benches);
