//! Shared fixtures for the Criterion benchmarks.
//!
//! With the `memprof` feature the crate additionally exposes
//! `memprof`, the counting global allocator behind the `peak_bytes`
//! columns of `kernel-bench` and `pool-bench`.

// memprof implements GlobalAlloc, which is inherently unsafe; the rest
// of the crate stays forbidden.
#![cfg_attr(not(feature = "memprof"), forbid(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "memprof")]
pub mod memprof;

use asgraph::{Graph, GraphBuilder};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A seeded Erdős–Rényi graph.
pub fn random_graph(n: u32, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_nodes(n as usize);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// The tiny-preset synthetic Internet (the standard bench workload).
pub fn tiny_internet(seed: u64) -> topology::AsTopology {
    topology::generate(&topology::ModelConfig::tiny(seed)).expect("preset is valid")
}

/// The small-preset synthetic Internet (~2,000 ASes).
pub fn small_internet(seed: u64) -> topology::AsTopology {
    topology::generate(&topology::ModelConfig::small(seed)).expect("preset is valid")
}

/// The medium-preset synthetic Internet (~10,000 ASes) — the
/// parallel-scaling substrate: big enough that one percolation run
/// dwarfs pool fan-out overhead.
pub fn medium_internet(seed: u64) -> topology::AsTopology {
    topology::generate(&topology::ModelConfig::medium(seed)).expect("preset is valid")
}

/// The full-preset synthetic Internet (~35,000 ASes, the paper's
/// scale): its big cliques span more than 256 hub vertices.
pub fn full_internet(seed: u64) -> topology::AsTopology {
    topology::generate(&topology::ModelConfig::full_scale(seed)).expect("preset is valid")
}
