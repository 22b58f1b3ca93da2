//! Cross-crate set-kernel equivalence on realistic substrates.
//!
//! The unit and property tests in `crates/cliques` prove bitset ≡ merge
//! on small random edge soups; here the oracle runs on seeded
//! `InternetModel` topologies — power-law degrees, dense IXP cores, the
//! clique structure the kernels were actually built for — and covers the
//! full pipelines: enumeration, streaming and percolation (thread-count
//! invariance of the percolation is pinned in `tests/sweep.rs`).

use kclique::cliques::{self, CliqueSet, Kernel};
use kclique::cpm;
use kclique::stream::{CancelToken, CliqueSource, GraphSource};
use kclique::topology::{generate, ModelConfig};

fn internet_graph(seed: u64) -> kclique::graph::Graph {
    generate(&ModelConfig::tiny(seed))
        .expect("preset config is valid")
        .graph
}

/// Streams the one-worker enumeration with an explicit kernel into
/// `consumer`.
fn enumerate_into(
    g: &kclique::graph::Graph,
    kernel: Kernel,
    consumer: &mut (dyn cliques::CliqueConsumer + Send),
) {
    cliques::consume_max_cliques(g, 1, kernel, &CancelToken::new(), consumer)
        .expect("a fresh token never trips");
}

/// The enumeration on one worker with an explicit kernel, collected.
fn enumerate_with(g: &kclique::graph::Graph, kernel: Kernel) -> CliqueSet {
    let mut set = CliqueSet::new();
    enumerate_into(g, kernel, &mut set);
    set
}

/// The percolation engine on one worker with an explicit kernel.
fn percolate_with_kernel(g: &kclique::graph::Graph, kernel: Kernel) -> cpm::CpmResult {
    let mut p = cpm::FusedPercolator::new(g.node_count(), cpm::Mode::Exact);
    enumerate_into(g, kernel, &mut p);
    p.finish(1, None)
        .expect("uncancellable finish cannot be cancelled")
}

#[test]
fn kernels_agree_on_internet_model_enumeration() {
    for seed in [7, 23] {
        let g = internet_graph(seed);
        let merge = enumerate_with(&g, Kernel::Merge);
        let bitset = enumerate_with(&g, Kernel::Bitset);
        let auto = enumerate_with(&g, Kernel::Auto);
        // Order-exact, not merely set-equal: the kernels replicate the
        // same recursion tree.
        assert_eq!(merge, bitset, "seed {seed}");
        assert_eq!(merge, auto, "seed {seed}");
        assert!(!merge.is_empty(), "seed {seed}: degenerate fixture");
    }
}

/// The streaming source (which runs `Kernel::Auto`) emits exactly the
/// stream each forced kernel emits.
#[test]
fn kernels_agree_through_streaming_source() {
    let g = internet_graph(11);
    let mut source: Vec<Vec<u32>> = Vec::new();
    GraphSource::new(&g)
        .replay(&mut |c| source.push(c.to_vec()))
        .expect("in-memory replay cannot fail");
    assert!(!source.is_empty());
    for kernel in [Kernel::Merge, Kernel::Bitset] {
        let mut out: Vec<Vec<u32>> = Vec::new();
        enumerate_into(&g, kernel, &mut |c: &[u32]| out.push(c.to_vec()));
        assert_eq!(
            source, out,
            "{kernel}: clique stream diverges from the source"
        );
    }
}

#[test]
fn kernels_agree_through_full_percolation() {
    let g = internet_graph(5);
    let merge = percolate_with_kernel(&g, Kernel::Merge);
    let bitset = percolate_with_kernel(&g, Kernel::Bitset);
    let auto = cpm::percolate(&g);
    assert_eq!(merge, bitset, "merge vs bitset");
    assert_eq!(merge, auto, "merge vs auto");
    assert!(
        merge.k_max().unwrap_or(0) >= 3,
        "fixture too sparse to be meaningful"
    );
}
