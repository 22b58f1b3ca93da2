//! # kclique — k-clique Communities in the Internet AS-level Topology Graph
//!
//! A from-scratch Rust reproduction of Gregori, Lenzini & Orsini (ICDCS
//! 2011): the Clique Percolation Method applied to an Internet AS-level
//! topology, the *k-clique community tree* with its main/parallel
//! anatomy, and the crown / trunk / root interpretation driven by IXP and
//! geographical datasets.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `asgraph` | CSR graph substrate, components, metrics |
//! | [`cliques`] | `cliques` | Bron–Kerbosch maximal-clique enumeration |
//! | [`cpm`] | `cpm` | clique percolation, all k in one sweep, parallel pipeline |
//! | [`exec`] | `exec` | persistent work-stealing thread pool behind every parallel path |
//! | [`topology`] | `topology` | synthetic AS topology + IXP/geo datasets |
//! | [`baselines`] | `baselines` | k-core, k-dense, greedy clique expansion |
//! | [`analysis`] | `kclique-core` | community tree, overlap/tag analysis, reports |
//!
//! # Quickstart
//!
//! ```
//! # fn main() -> Result<(), kclique::topology::InvalidConfig> {
//! use kclique::analysis::analyze;
//! use kclique::topology::ModelConfig;
//!
//! // Generate a seeded synthetic Internet and run the whole pipeline.
//! let analysis = analyze(&ModelConfig::tiny(42), 2)?;
//! println!(
//!     "{} communities across k = 2..={}",
//!     analysis.result.total_communities(),
//!     analysis.result.k_max().unwrap()
//! );
//! // The paper's headline structure: one community at k = 2 (the graph
//! // is a single connected component) and a main path to the top.
//! assert_eq!(analysis.result.level(2).unwrap().communities.len(), 1);
//! assert!(!analysis.tree.main_path().is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Graph substrate (re-export of `asgraph`).
pub mod graph {
    pub use asgraph::*;
}

/// Maximal-clique enumeration (re-export of `cliques`).
pub mod cliques {
    pub use ::cliques::*;
}

/// Clique Percolation Method (re-export of `cpm`).
pub mod cpm {
    pub use ::cpm::*;
}

/// Synthetic AS-level topology and datasets (re-export of `topology`).
pub mod topology {
    pub use ::topology::*;
}

/// Baseline community-detection methods (re-export of `baselines`).
pub mod baselines {
    pub use ::baselines::*;
}

/// Community tree and paper analyses (re-export of `kclique-core`).
pub mod analysis {
    pub use kclique_core::*;
}

/// Clique logs and clique sources for the engine (re-export of `cpm-stream`).
pub mod stream {
    pub use cpm_stream::*;
}

/// Persistent work-stealing executor (re-export of `exec`).
pub mod exec {
    pub use ::exec::*;
}
