//! Clique Percolation Method (CPM) — the core algorithm of the
//! reproduced paper.
//!
//! A *k-clique community* (Palla, Derényi, Farkas, Vicsek, Nature 2005) is
//! the union of all k-cliques reachable from one another through a chain
//! of adjacent k-cliques, where two k-cliques are adjacent when they share
//! k−1 nodes. Communities of the same `k` may overlap, and every k-clique
//! community nests inside exactly one (k−1)-clique community — the
//! theorem the paper proves in §3.1 and turns into its *k-clique community
//! tree*.
//!
//! This crate has one percolation engine, [`FusedPercolator`]: maximal
//! cliques stream into it as Bron–Kerbosch emits them, and a single
//! descending-`k` sweep yields the communities of **every** k together
//! with the nesting links (see [`consume`]). [`percolate`] runs it on
//! the calling thread, [`percolate_parallel`] on the persistent worker
//! pool (the companion "Lightweight Parallel CPM" paper's insight:
//! enumeration and pair detection parallelise, the sweep is cheap).
//! Both modes run that engine: [`Mode::Almost`] unions cliques through
//! shared (k−1)-clique keys and a big-clique prepass, and
//! [`Mode::Exact`] adds a per-level certification pass that makes the
//! communities exact. The literal definition is implemented once, in
//! [`naive`]: it is the cross-validation oracle of the property tests,
//! and the [`weighted`] (intensity-thresholded) and [`directed`]
//! (acyclic-orientation) variants are k-clique filters over it.
//!
//! # Example
//!
//! ```
//! use asgraph::Graph;
//! use cpm::Mode;
//!
//! // Two overlapping K4s sharing a triangle.
//! let g = Graph::from_edges(
//!     5,
//!     [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
//!      (1, 4), (2, 4), (3, 4)],
//! );
//! let result = cpm::percolate(&g);
//! // They merge into a single 4-clique community covering all 5 nodes.
//! assert_eq!(result.level(4).unwrap().communities.len(), 1);
//! assert_eq!(result.level(4).unwrap().communities[0].members.len(), 5);
//! // Every mode and worker count gives the same communities here.
//! assert_eq!(result, cpm::percolate_parallel(&g, 2, Mode::Almost));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consume;
pub mod directed;
mod dsu;
mod dsu_concurrent;
mod mode;
pub mod naive;
mod result;
mod snapshot;
pub mod weighted;

pub use consume::{
    percolate, percolate_fused_cancellable, percolate_fused_phases_parallel,
    percolate_fused_phases_probed, percolate_parallel, FusedPercolator, FusedPhases,
};
pub use dsu::Dsu;
pub use dsu_concurrent::ConcurrentDsu;
pub use mode::{divergence, Divergence, LevelDivergence, Mode};
pub use result::{canonical_members, Community, CommunityId, CpmResult, KLevel};
pub use snapshot::{SnapCommunity, SnapLevel, SnapshotIndex, SNAPSHOT_MAGIC};
