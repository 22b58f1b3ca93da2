//! Benchmarks for the extension subsystems: Louvain, weighted CPM,
//! rewiring, and evolution matching.

use bench::{random_graph, tiny_internet};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn louvain(c: &mut Criterion) {
    let topo = tiny_internet(42);
    let mut group = c.benchmark_group("louvain");
    group.sample_size(10);
    group.bench_function("internet400", |b| {
        b.iter(|| black_box(baselines::louvain::louvain(&topo.graph)))
    });
    group.finish();
}

fn weighted(c: &mut Criterion) {
    let g = random_graph(40, 0.25, 5);
    let mut b = asgraph::weighted::WeightedGraphBuilder::with_nodes(g.node_count());
    let mut w = 0.1;
    for (u, v) in g.edges() {
        b.add_edge(u, v, w);
        w = (w * 1.1) % 10.0 + 0.1;
    }
    let wg = b.build();
    let mut group = c.benchmark_group("weighted_cpm");
    group.sample_size(10);
    group.bench_function("k3_thresholded/er40", |bch| {
        bch.iter(|| black_box(cpm::weighted::weighted_communities(&wg, 3, 1.0)))
    });
    group.finish();
}

fn rewiring(c: &mut Criterion) {
    let topo = tiny_internet(42);
    let mut group = c.benchmark_group("rewire");
    group.sample_size(10);
    group.bench_function("10m_swaps/internet400", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(asgraph::rewire::rewire(
                &topo.graph,
                10 * topo.graph.edge_count(),
                &mut rng,
            ))
        })
    });
    group.finish();
}

fn evolution(c: &mut Criterion) {
    let t0 = tiny_internet(42);
    let (t1, _) = topology::evolve(&t0, &topology::EvolveConfig::default());
    let r0 = cpm::percolate(&t0.graph);
    let r1 = cpm::percolate(&t1.graph);
    let mut group = c.benchmark_group("evolution");
    group.sample_size(10);
    group.bench_function("evolve_step/internet400", |b| {
        b.iter(|| black_box(topology::evolve(&t0, &topology::EvolveConfig::default())))
    });
    group.bench_function("match_covers_k4", |b| {
        b.iter(|| black_box(kclique_core::evolution::match_covers(&r0, &r1, 4, 0.3)))
    });
    group.finish();
}

criterion_group!(benches, louvain, weighted, rewiring, evolution);
criterion_main!(benches);
