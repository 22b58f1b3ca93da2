//! Maximal-clique enumeration for the clique percolation pipeline.
//!
//! The paper's §3 extracts all maximal k-cliques of the AS-level topology
//! (2.7 M of them, 88 % with k in `[18:28]`) as the input to the Clique
//! Percolation Method. This crate provides the corresponding machinery:
//!
//! - [`consume_max_cliques`] — the one enumeration driver: the
//!   Eppstein–Löffler–Strash degeneracy-ordered outer loop with Tomita
//!   pivoting inside, split into work-stolen chunks over the persistent
//!   [`exec::Pool`] (one half of the "Lightweight Parallel CPM" of
//!   Gregori et al.) and streamed into a [`CliqueConsumer`] in the
//!   sequential order. [`max_cliques`] and
//!   [`parallel::max_cliques_parallel`] collect that stream into a
//!   [`CliqueSet`].
//! - [`bron_kerbosch`] — the textbook recursion and Tomita pivoting over
//!   the whole graph, kept as set oracles for the driver.
//! - [`CliqueSet`] — the result container with the size histogram used for
//!   the paper's maximal-clique census.
//! - [`kclique`] — exhaustive listing of (not necessarily maximal)
//!   k-cliques: the naive definitional CPM and the weighted and directed
//!   percolators filter these.
//!
//! # Example
//!
//! ```
//! use asgraph::Graph;
//! use cliques::max_cliques;
//!
//! // Two triangles sharing the edge {1, 2}.
//! let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
//! let cliques = max_cliques(&g);
//! assert_eq!(cliques.len(), 2);
//! assert_eq!(cliques.size_histogram(), vec![(3, 2)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bron_kerbosch;
mod clique_set;
pub mod kclique;
mod kernel;
pub mod parallel;
pub mod sink;

pub use clique_set::{Clique, CliqueSet};
pub use kernel::{Kernel, AUTO_BITSET_MAX_LOCAL};
pub use parallel::consume_max_cliques;
pub use sink::CliqueConsumer;

use asgraph::Graph;

/// Enumerates all maximal cliques of `g` with the [`consume_max_cliques`]
/// driver on one worker and the default [`Kernel::Auto`] set kernel.
///
/// Isolated vertices count as maximal 1-cliques, matching the definition of
/// maximality (they extend no other clique).
pub fn max_cliques(g: &Graph) -> CliqueSet {
    parallel::max_cliques_parallel(g, 1)
}
