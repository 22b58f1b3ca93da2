//! Wall time of a clique-log rebuild: one replay of the tiny preset's
//! log into the percolation engine, every level.

use cpm::Mode;
use cpm_stream::LogSource;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn log_rebuild(c: &mut Criterion) {
    let topo = bench::tiny_internet(7);
    let dir = std::env::temp_dir().join(format!("kclique_bench_stream_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("tiny.cliquelog");
    cpm_stream::write_clique_log(&topo.graph, &log).expect("log build");

    let mut group = c.benchmark_group("stream/tiny-internet");
    group.bench_function("stream_percolate_all_k_from_log", |b| {
        b.iter(|| {
            let mut src = LogSource::open(black_box(&log)).expect("log open");
            cpm_stream::stream_percolate_parallel_mode(&mut src, 1, Mode::Exact)
                .expect("log replay")
        });
    });
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, log_rebuild);
criterion_main!(benches);
