//! Peak-heap shoot-out: batch `cpm::percolate` vs streaming
//! `cpm_stream::stream_percolate` on a seeded synthetic Internet.
//!
//! ```text
//! cargo run --release -p bench --features memprof --bin stream-mem [tiny|small] [seed]
//! ```
//!
//! Both pipelines produce the same communities (property-tested in
//! `crates/stream/tests/oracle.rs`); this binary quantifies what the
//! streaming engine buys. The batch engine is the fused percolator: it
//! never holds a `CliqueSet` or an overlap edge list either, but it keeps
//! every clique's members and per-level overlap strata for the whole
//! census until its sweep runs. The streaming engine folds each clique
//! into one level's union–find and drops it, so its peak heap growth over
//! the resident graph is strictly lower (seed 7: tiny 67 KiB vs 253 KiB,
//! small 0.68 MiB vs 5.3 MiB). Exits 1 if it is not.

use cpm_stream::GraphSource;

#[global_allocator]
static ALLOC: bench::memprof::CountingAlloc = bench::memprof::CountingAlloc;

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale = args.next().unwrap_or_else(|| "tiny".to_owned());
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(7);

    let topo = match scale.as_str() {
        "tiny" => bench::tiny_internet(seed),
        "small" => bench::small_internet(seed),
        other => {
            eprintln!("unknown scale {other:?}; expected tiny | small");
            std::process::exit(2);
        }
    };
    let g = &topo.graph;
    println!(
        "InternetModel scale={scale} seed={seed}: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    );

    let (batch, batch_peak) = bench::memprof::measure_peak(|| cpm::percolate(g));
    let batch_total = batch.total_communities();
    let k_max = batch.k_max().unwrap_or(0);
    drop(batch);

    let (stream, stream_peak) = bench::memprof::measure_peak(|| {
        cpm_stream::stream_percolate(&mut GraphSource::new(g)).expect("in-memory source")
    });
    let stream_total = stream.total_communities();
    assert_eq!(
        stream.k_max().unwrap_or(0),
        k_max,
        "pipelines disagree on k_max"
    );
    drop(stream);

    println!("k_max {k_max}; communities: batch {batch_total}, stream {stream_total}");
    println!("peak heap growth while percolating (graph itself excluded):");
    println!(
        "  batch  cpm::percolate            {:>12}",
        human(batch_peak)
    );
    println!(
        "  stream cpm_stream::stream_percolate {:>9}",
        human(stream_peak)
    );
    if stream_peak < batch_peak {
        println!(
            "  -> streaming peak is {:.1}% of batch ({} saved)",
            100.0 * stream_peak as f64 / batch_peak.max(1) as f64,
            human(batch_peak - stream_peak)
        );
    } else {
        println!("  -> WARNING: streaming did not reduce peak heap on this input");
        std::process::exit(1);
    }
}
