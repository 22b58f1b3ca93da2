//! Parallel-sweep equivalence on realistic substrates.
//!
//! The unit and property tests in `crates/cpm` prove the pooled engine
//! bit-identical to the sequential one on random edge soups; here the
//! oracle is the seeded `InternetModel` — power-law degrees, dense IXP
//! cores, overlaps at many levels — and the assertion is full bit-identity
//! of the `CpmResult` (community tree parents included) across kernels
//! and thread counts, plus the same invariance for a clique-stream
//! replay into the engine.

use kclique::cliques::Kernel;
use kclique::cpm::{self, Mode};
use kclique::exec::{CancelToken, Threads};
use kclique::stream::{self, GraphSource};
use kclique::topology::{generate, ModelConfig};

fn internet_graph(seed: u64) -> kclique::graph::Graph {
    generate(&ModelConfig::tiny(seed))
        .expect("preset config is valid")
        .graph
}

#[test]
fn parallel_matches_sequential_on_internet_model() {
    for seed in [7, 23] {
        let g = internet_graph(seed);
        let seq = cpm::percolate(&g);
        let par = cpm::percolate_parallel(&g, Threads::Auto, Mode::Exact);
        assert_eq!(seq, par, "seed {seed}");
        assert!(
            seq.k_max().unwrap_or(0) >= 3,
            "seed {seed}: fixture too sparse to exercise the counted levels"
        );
    }
}

#[test]
fn pooled_sweep_is_thread_count_invariant() {
    // The concurrent union–find races freely inside each level and the
    // enumeration chunks race between workers; the result must not
    // depend on how many workers raced or which kernel enumerated, and
    // must equal the sequential sweep bit for bit.
    let g = internet_graph(3);
    let token = CancelToken::new();
    for mode in [Mode::Exact, Mode::Almost] {
        let reference = cpm::percolate_parallel(&g, 1, mode);
        for kernel in [Kernel::Auto, Kernel::Bitset, Kernel::Merge] {
            for threads in [1, 2, 3, 4, 7] {
                let par = cpm::percolate_fused_cancellable(&g, threads, kernel, &token, mode)
                    .expect("live token never cancels");
                assert_eq!(reference, par, "{mode}: threads {threads}, kernel {kernel}");
            }
        }
    }
}

#[test]
fn log_replay_is_thread_count_invariant() {
    // Replaying the clique stream into the engine is the graph path at
    // every worker count, both modes.
    let g = internet_graph(5);
    for mode in [Mode::Exact, Mode::Almost] {
        let reference = cpm::percolate_parallel(&g, 1, mode);
        for threads in [
            Threads::Fixed(1),
            Threads::Fixed(2),
            Threads::Fixed(4),
            Threads::Auto,
        ] {
            let replayed =
                stream::stream_percolate_parallel_mode(&mut GraphSource::new(&g), threads, mode)
                    .expect("in-memory replay cannot fail");
            assert_eq!(reference, replayed, "{mode}: {threads} threads");
        }
        assert!(reference.k_max().unwrap_or(0) >= 3, "fixture too sparse");
    }
}
