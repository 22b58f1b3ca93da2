//! Cross-crate set-kernel equivalence on realistic substrates.
//!
//! The unit and property tests in `crates/cliques` prove bitset ≡ merge
//! on small random edge soups; here the oracle runs on seeded
//! `InternetModel` topologies — power-law degrees, dense IXP cores, the
//! clique structure the kernels were actually built for — and covers the
//! full pipelines: enumeration, streaming and percolation (thread-count
//! invariance of the percolation is pinned in `tests/sweep.rs`).

use kclique::cliques::{self, Kernel};
use kclique::cpm;
use kclique::stream::{CliqueSource, GraphSource};
use kclique::topology::{generate, ModelConfig};

fn internet_graph(seed: u64) -> kclique::graph::Graph {
    generate(&ModelConfig::tiny(seed))
        .expect("preset config is valid")
        .graph
}

/// The percolation engine on one worker with an explicit kernel.
fn percolate_with_kernel(g: &kclique::graph::Graph, kernel: Kernel) -> cpm::CpmResult {
    let mut p = cpm::FusedPercolator::new(g.node_count(), cpm::Mode::Exact);
    cliques::consume_max_cliques(g, kernel, &mut p);
    p.finish()
}

#[test]
fn kernels_agree_on_internet_model_enumeration() {
    for seed in [7, 23] {
        let g = internet_graph(seed);
        let merge = cliques::max_cliques_with(&g, Kernel::Merge);
        let bitset = cliques::max_cliques_with(&g, Kernel::Bitset);
        let auto = cliques::max_cliques_with(&g, Kernel::Auto);
        // Order-exact, not merely set-equal: the kernels replicate the
        // same recursion tree.
        assert_eq!(merge, bitset, "seed {seed}");
        assert_eq!(merge, auto, "seed {seed}");
        assert!(!merge.is_empty(), "seed {seed}: degenerate fixture");
    }
}

#[test]
fn kernels_agree_through_streaming_source() {
    let g = internet_graph(11);
    let mut streams = Vec::new();
    for kernel in [Kernel::Merge, Kernel::Bitset] {
        let mut out: Vec<Vec<u32>> = Vec::new();
        GraphSource::with_kernel(&g, kernel)
            .replay(&mut |c| out.push(c.to_vec()))
            .expect("in-memory replay cannot fail");
        streams.push(out);
    }
    assert_eq!(streams[0], streams[1], "clique streams diverge by kernel");
    assert!(!streams[0].is_empty());
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
