//! The online clique percolator: cliques in, communities out, nothing
//! quadratic in between.
//!
//! A batch percolation keeps per-clique state for the whole census
//! alive until its sweep runs (`cpm::percolate` holds a member arena,
//! its posting lists and the overlap strata). The streaming percolator
//! consumes
//! each maximal clique the moment the enumerator (or the on-disk clique
//! log) produces it and folds it straight into a union–find, following
//! Baudin, Magnien & Tabourier's memory-efficient CPM: the only
//! per-clique state retained is what future overlap tests can still
//! need.
//!
//! Two fidelity modes, sharing the batch engine's [`cpm::Mode`]
//! vocabulary (the crate-local enum this module used to define is
//! unified away — [`Mode`] here *is* `cpm::Mode`):
//!
//! - [`Mode::Exact`] — per-node postings (`node → ids of cliques seen
//!   through it`). An incoming clique counts its overlap with exactly
//!   the cliques sharing at least one node, via one merge-count pass
//!   over its members' postings, and unions those overlapping in
//!   ≥ k−1 nodes. Memory: the postings (≤ total clique memberships — the
//!   same order as the batch path's vertex index) plus the DSU, but
//!   never the clique member arena *or* the overlap edge list.
//!   Community-equivalent to `cpm::percolate` (property-tested).
//! - [`Mode::Almost`] — Baudin et al.'s almost-exact variant in its
//!   streaming form: each node remembers only the
//!   *last* clique seen through it, so percolation state is O(nodes) +
//!   DSU. A clique that overlaps an old clique in ≥ k−1 nodes without
//!   sharing k−1 nodes with any *latest* clique of those nodes can be
//!   missed, splitting one true community in two — communities are
//!   always unions of true sub-communities (never over-merged), which
//!   the property tests assert. The batch almost engine
//!   ([`cpm::consume`]) reaches the same end differently (subset keys +
//!   subsumption strata need the whole clique set); what the mode
//!   *means* — bounded state, refinement-only error — is identical,
//!   which is why the vocabulary is shared.

use crate::source::{consume_source, CliqueSource};
use crate::StreamError;
use asgraph::NodeId;
use cliques::CliqueConsumer;
use cpm::{canonical_members, Community, Dsu, KLevel};
use exec::{Pool, Threads};
use std::collections::HashMap;
use std::sync::Mutex;

/// The engine selector — re-exported from the batch crate so every
/// pipeline (batch, parallel, streaming, CLI, serve) speaks one mode
/// vocabulary. In the streaming context [`Mode::Almost`] selects the
/// per-node last-clique-seen strategy (see module docs).
pub use cpm::Mode;

const NONE: u32 = u32::MAX;

/// Online single-`k` clique percolation over a stream of maximal
/// cliques.
///
/// Feed every maximal clique of the graph (any order) to
/// [`StreamPercolator::push`], then call [`StreamPercolator::finish`].
///
/// # Example
///
/// ```
/// use cpm_stream::StreamPercolator;
///
/// // Two triangles sharing an edge percolate into one k=3 community.
/// let mut p = StreamPercolator::new(4, 3);
/// p.push(&[0, 1, 2]);
/// p.push(&[1, 2, 3]);
/// let communities = p.finish();
/// assert_eq!(communities.len(), 1);
/// assert_eq!(communities[0].members, vec![0, 1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct StreamPercolator {
    k: usize,
    mode: Mode,
    /// Per accepted clique: its size.
    sizes: Vec<u32>,
    /// Per accepted clique: its ordinal in the full stream (also counting
    /// cliques below size k), so multi-k passes agree on clique identity.
    ordinals: Vec<u32>,
    dsu: Dsu,
    /// Exact: `node -> accepted cliques containing it`, ids ascending.
    postings: Vec<Vec<u32>>,
    /// Almost: `node -> last accepted clique containing it`.
    last_seen: Vec<u32>,
    /// Almost: member accumulator per DSU root (small-to-large merged).
    root_members: Vec<Vec<NodeId>>,
    /// Scratch: per accepted clique, overlap count with the incoming one.
    counts: Vec<u32>,
    touched: Vec<u32>,
    /// Cliques offered so far, accepted or not.
    seen: u32,
}

/// A [`StreamPercolator`] plugs directly into the sink-driven clique
/// pipeline: the Bron–Kerbosch drivers in [`cliques::sink`] (and the
/// fused percolator in `cpm`) deliver cliques through this same trait,
/// so the streaming engine, the fused engine, and the log writer all
/// share one delivery surface.
impl CliqueConsumer for StreamPercolator {
    fn consume(&mut self, clique: &[NodeId]) {
        self.push(clique);
    }
}

impl StreamPercolator {
    /// Creates an exact percolator for a graph of `n` vertices at level
    /// `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(n: usize, k: usize) -> Self {
        Self::with_mode(n, k, Mode::Exact)
    }

    /// Creates a percolator with an explicit fidelity [`Mode`].
    ///
    /// Overlap counts saturate at the threshold `k−1` and the union
    /// fires the instant a pair reaches it — counts are only ever *used*
    /// thresholded here, so every increment past `k−1` is wasted work —
    /// and pairs already in the same component are skipped outright.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn with_mode(n: usize, k: usize, mode: Mode) -> Self {
        assert!(k >= 2, "clique percolation needs k >= 2, got {k}");
        StreamPercolator {
            k,
            mode,
            sizes: Vec::new(),
            ordinals: Vec::new(),
            dsu: Dsu::new(0),
            postings: match mode {
                Mode::Exact => vec![Vec::new(); n],
                Mode::Almost => Vec::new(),
            },
            last_seen: match mode {
                Mode::Exact => Vec::new(),
                Mode::Almost => vec![NONE; n],
            },
            root_members: Vec::new(),
            counts: Vec::new(),
            touched: Vec::new(),
            seen: 0,
        }
    }

    /// The percolation level.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Cliques accepted so far (size ≥ k).
    pub fn clique_count(&self) -> usize {
        self.sizes.len()
    }

    /// Folds the next clique of the stream into the union–find. Members
    /// must be sorted strictly ascending; cliques smaller than `k` are
    /// counted (for stream ordinals) but otherwise ignored.
    ///
    /// # Panics
    ///
    /// Panics if a member id is outside the vertex space declared at
    /// construction.
    pub fn push(&mut self, clique: &[NodeId]) {
        debug_assert!(
            clique.windows(2).all(|w| w[0] < w[1]),
            "clique members must be sorted strictly ascending: {clique:?}"
        );
        let ordinal = self.seen;
        self.seen += 1;
        if clique.len() < self.k {
            return;
        }
        let id = self.dsu.push();
        self.sizes.push(clique.len() as u32);
        self.ordinals.push(ordinal);
        self.counts.push(0);
        let need = (self.k - 1) as u32;

        match self.mode {
            Mode::Exact => {
                // One merge-count pass over the postings of the clique's
                // members: counts[c] ends as |clique ∩ c| for every prior
                // clique c sharing at least one node. Saturating count:
                // the union fires the moment a pair reaches the
                // threshold, increments past it are skipped, and a pair
                // already connected is saturated at first touch.
                for &v in clique {
                    for &c in &self.postings[v as usize] {
                        let cnt = &mut self.counts[c as usize];
                        if *cnt == 0 {
                            self.touched.push(c);
                            if self.dsu.same(id, c) {
                                *cnt = need;
                                continue;
                            }
                        }
                        if *cnt < need {
                            *cnt += 1;
                            if *cnt == need {
                                self.dsu.union(id, c);
                            }
                        }
                    }
                }
                for &c in &self.touched {
                    self.counts[c as usize] = 0;
                }
                self.touched.clear();
                for &v in clique {
                    self.postings[v as usize].push(id);
                }
            }
            Mode::Almost => {
                // Count only against the snapshot of each member's last
                // clique — O(|clique|) state probes, O(n) total memory.
                for &v in clique {
                    let c = self.last_seen[v as usize];
                    if c != NONE {
                        let cnt = &mut self.counts[c as usize];
                        if *cnt == 0 {
                            self.touched.push(c);
                            if self.dsu.same(id, c) {
                                *cnt = need;
                                continue;
                            }
                        }
                        if *cnt < need {
                            *cnt += 1;
                            if *cnt == need {
                                self.dsu.union(id, c);
                            }
                        }
                    }
                }
                for &c in &self.touched {
                    self.counts[c as usize] = 0;
                }
                self.touched.clear();
                for &v in clique {
                    self.last_seen[v as usize] = id;
                }
                // Accumulate members at the clique's current root,
                // merging small-to-large when unions moved roots.
                self.root_members.push(Vec::new());
                let root = self.dsu.find(id) as usize;
                let mut members = std::mem::take(&mut self.root_members[id as usize]);
                members.extend_from_slice(clique);
                if root != id as usize {
                    if self.root_members[root].len() < members.len() {
                        let old = std::mem::replace(&mut self.root_members[root], members);
                        self.root_members[root].extend_from_slice(&old);
                    } else {
                        self.root_members[root].extend_from_slice(&members);
                    }
                } else {
                    self.root_members[id as usize] = members;
                }
                // Unions may also have moved *other* roots under `root`;
                // sweep their member lists lazily in finish().
            }
        }
    }

    /// Closes the stream and returns the `k`-clique communities,
    /// deterministically ordered by their smallest member clique's stream
    /// ordinal. Each community carries its member vertices (sorted,
    /// deduplicated) and the stream ordinals of its cliques in
    /// `clique_ids`.
    pub fn finish(mut self) -> Vec<Community> {
        let clique_count = self.sizes.len();
        // Root-indexed compaction (no hashing): roots are clique ids, so
        // a plain vec maps root → community index in one find pass.
        let mut idx_of_root: Vec<u32> = vec![u32::MAX; clique_count];
        let mut communities: Vec<Community> = Vec::new();
        for id in 0..clique_count as u32 {
            let root = self.dsu.find(id) as usize;
            if idx_of_root[root] == u32::MAX {
                idx_of_root[root] = communities.len() as u32;
                communities.push(Community {
                    members: Vec::new(),
                    clique_ids: Vec::new(),
                    parent: None,
                });
            }
            communities[idx_of_root[root] as usize]
                .clique_ids
                .push(self.ordinals[id as usize]);
        }

        match self.mode {
            Mode::Exact => {
                // Members from the postings: node v belongs to every
                // community whose root owns one of v's cliques.
                for v in 0..self.postings.len() {
                    for i in 0..self.postings[v].len() {
                        let c = self.postings[v][i];
                        let idx = idx_of_root[self.dsu.find(c) as usize] as usize;
                        // Nodes arrive in ascending order, so a duplicate
                        // (node in several cliques of one community) is
                        // always the current tail.
                        if communities[idx].members.last() != Some(&(v as NodeId)) {
                            communities[idx].members.push(v as NodeId);
                        }
                    }
                }
            }
            Mode::Almost => {
                // Members were accumulated at roots as unions happened;
                // fold any list stranded at a non-root by later unions.
                for id in 0..clique_count {
                    let root = self.dsu.find(id as u32) as usize;
                    if root != id && !self.root_members[id].is_empty() {
                        let stranded = std::mem::take(&mut self.root_members[id]);
                        self.root_members[root].extend_from_slice(&stranded);
                    }
                }
                for (root, members) in self.root_members.into_iter().enumerate() {
                    if members.is_empty() {
                        continue;
                    }
                    let idx = idx_of_root[self.dsu.find(root as u32) as usize] as usize;
                    communities[idx].members = canonical_members(members);
                }
            }
        }
        communities
    }
}

/// The multi-level streaming result: one [`KLevel`] per `k` from 2 to
/// `k_max`, with parent links forming the k-clique community tree —
/// the streaming counterpart of [`cpm::CpmResult`], minus the retained
/// clique set (`clique_ids` are stream ordinals instead).
#[derive(Debug, Clone)]
pub struct StreamCpmResult {
    /// Levels for `k = 2..=k_max`, ascending; empty if no clique of size
    /// ≥ 2 was streamed.
    pub levels: Vec<KLevel>,
}

impl StreamCpmResult {
    /// The largest `k` with at least one community.
    pub fn k_max(&self) -> Option<u32> {
        self.levels.last().map(|l| l.k)
    }

    /// The communities at level `k`, if `2 <= k <= k_max`.
    pub fn level(&self, k: u32) -> Option<&KLevel> {
        if k < 2 {
            return None;
        }
        self.levels.get((k - 2) as usize)
    }

    /// Total community count across all levels.
    pub fn total_communities(&self) -> usize {
        self.levels.iter().map(|l| l.communities.len()).sum()
    }
}

/// Runs one streaming percolation pass at level `k` over `source`,
/// returning the communities' member lists in canonical order — the
/// streaming counterpart of [`cpm::percolate_at`].
///
/// # Errors
///
/// Fails only if the source does (I/O on a clique log).
pub fn stream_percolate_at<S: CliqueSource + ?Sized>(
    source: &mut S,
    k: usize,
) -> Result<Vec<Vec<NodeId>>, StreamError> {
    if k < 2 {
        return Ok(Vec::new());
    }
    let mut p = StreamPercolator::new(source.node_count(), k);
    consume_source(source, &mut p)?;
    let mut covers: Vec<Vec<NodeId>> = p.finish().into_iter().map(|c| c.members).collect();
    covers.sort_unstable();
    Ok(covers)
}

/// Runs the full descending-`k` sweep by replaying `source` once per
/// level, producing every community and the community tree without ever
/// holding the clique set or overlap graph in memory — the streaming
/// counterpart of [`cpm::percolate`].
///
/// # Errors
///
/// Fails only if the source does (I/O on a clique log).
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use cpm_stream::GraphSource;
///
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// let result = cpm_stream::stream_percolate(&mut GraphSource::new(&g)).unwrap();
/// assert_eq!(result.k_max(), Some(3));
/// assert_eq!(result.level(3).unwrap().communities.len(), 1);
/// ```
pub fn stream_percolate<S: CliqueSource + ?Sized>(
    source: &mut S,
) -> Result<StreamCpmResult, StreamError> {
    stream_percolate_parallel(source, Threads::Auto)
}

/// Cliques buffered between replay callbacks and pool fan-outs: flat
/// member storage plus offsets, refilled batch by batch.
#[derive(Default)]
struct CliqueBatch {
    members: Vec<NodeId>,
    offsets: Vec<usize>,
}

impl CliqueBatch {
    fn push(&mut self, clique: &[NodeId]) {
        self.offsets.push(self.members.len());
        self.members.extend_from_slice(clique);
    }

    fn len(&self) -> usize {
        self.offsets.len()
    }

    fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    fn clear(&mut self) {
        self.members.clear();
        self.offsets.clear();
    }

    fn get(&self, i: usize) -> &[NodeId] {
        let start = self.offsets[i];
        let end = self
            .offsets
            .get(i + 1)
            .copied()
            .unwrap_or(self.members.len());
        &self.members[start..end]
    }
}

/// Cliques per batch handed to the worker team in one fan-out. Large
/// enough to amortise the pool wake-up, small enough that the buffered
/// copy stays cache-resident.
const WAVE_BATCH: usize = 1_024;

/// Auto heuristic: grow the wave only when each level has at least this
/// many clique memberships to fold in.
const AUTO_MEMBERS_PER_LEVEL: usize = 8_192;

/// [`stream_percolate`] with an explicit worker-count policy.
///
/// The per-level passes of the descending sweep are independent — each
/// folds the identical clique stream into its own percolator — so the
/// sweep runs them in *waves*: `w` adjacent levels share one replay of
/// the source, with cliques buffered in batches of [`WAVE_BATCH`] and
/// fanned out to the per-level percolators on the persistent
/// [`exec::Pool`]. Every percolator still sees the exact clique stream
/// in stream order, so the result is bit-identical to the sequential
/// sweep at every worker count (property-tested). A wave of `w` levels
/// also costs `w` percolators of live postings at once: memory scales
/// with the worker count, as does replay savings (one pass per wave
/// instead of one per level).
///
/// # Errors
///
/// Fails only if the source does (I/O on a clique log).
pub fn stream_percolate_parallel<S: CliqueSource + ?Sized>(
    source: &mut S,
    threads: impl Into<Threads>,
) -> Result<StreamCpmResult, StreamError> {
    stream_percolate_parallel_mode(source, threads, Mode::Exact)
}

/// [`stream_percolate_parallel`] with an explicit engine [`Mode`]:
/// every per-level percolator of the wave sweep runs in `mode`, so
/// [`Mode::Almost`] bounds each level's state to O(nodes) at the cost
/// of possibly splitting (never merging) communities — the same
/// refinement-only contract as the batch almost engine.
///
/// # Errors
///
/// Fails only if the source does (I/O on a clique log).
pub fn stream_percolate_parallel_mode<S: CliqueSource + ?Sized>(
    source: &mut S,
    threads: impl Into<Threads>,
    mode: Mode,
) -> Result<StreamCpmResult, StreamError> {
    // Sizing pass: k_max and total work, without retaining anything.
    let mut k_max = 0usize;
    let mut total_members = 0usize;
    source.replay(&mut |clique| {
        k_max = k_max.max(clique.len());
        total_members += clique.len();
    })?;
    if k_max < 2 {
        return Ok(StreamCpmResult { levels: Vec::new() });
    }

    let n = source.node_count();
    let levels = k_max - 1;
    let workers = threads
        .into()
        .resolve(total_members, AUTO_MEMBERS_PER_LEVEL)
        .min(levels);
    let ks: Vec<usize> = (2..=k_max).rev().collect();
    let mut levels_desc: Vec<KLevel> = Vec::new();
    for wave in ks.chunks(workers.max(1)) {
        let per_level = run_wave(source, n, wave, mode)?;
        for (k, communities) in wave.iter().zip(per_level) {
            // Theorem 1 linking, on stream ordinals: the parent of a
            // level-(k+1) community is the level-k community that now
            // holds its representative clique.
            let mut ordinal_to_idx: HashMap<u32, u32> = HashMap::new();
            for (idx, c) in communities.iter().enumerate() {
                for &ordinal in &c.clique_ids {
                    ordinal_to_idx.insert(ordinal, idx as u32);
                }
            }
            if let Some(prev) = levels_desc.last_mut() {
                for pc in &mut prev.communities {
                    let rep = pc.clique_ids[0];
                    pc.parent = Some(ordinal_to_idx[&rep]);
                }
            }
            levels_desc.push(KLevel {
                k: *k as u32,
                communities,
            });
        }
    }
    levels_desc.reverse();
    Ok(StreamCpmResult {
        levels: levels_desc,
    })
}

/// One replay of `source` feeding a percolator per level in `wave`,
/// returning each level's communities in `wave` order.
fn run_wave<S: CliqueSource + ?Sized>(
    source: &mut S,
    n: usize,
    wave: &[usize],
    mode: Mode,
) -> Result<Vec<Vec<Community>>, StreamError> {
    if wave.len() == 1 {
        // Single level: push straight from the replay callback, no
        // batch buffering, no pool round-trips.
        let mut p = StreamPercolator::with_mode(n, wave[0], mode);
        consume_source(source, &mut p)?;
        return Ok(vec![p.finish()]);
    }
    let percolators: Vec<Mutex<StreamPercolator>> = wave
        .iter()
        .map(|&k| Mutex::new(StreamPercolator::with_mode(n, k, mode)))
        .collect();
    let flush = |batch: &CliqueBatch| {
        Pool::global().run(percolators.len(), |w| {
            let mut p = percolators[w.index()]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for i in 0..batch.len() {
                p.push(batch.get(i));
            }
        });
    };
    let mut batch = CliqueBatch::default();
    source.replay(&mut |clique| {
        batch.push(clique);
        if batch.len() >= WAVE_BATCH {
            flush(&batch);
            batch.clear();
        }
    })?;
    if !batch.is_empty() {
        flush(&batch);
    }
    Ok(percolators
        .into_iter()
        .map(|p| p.into_inner().unwrap_or_else(|e| e.into_inner()).finish())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::GraphSource;
    use asgraph::Graph;

    #[test]
    fn two_k4s_sharing_triangle_merge_at_k4() {
        let g = Graph::from_edges(
            5,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (1, 4),
                (2, 4),
                (3, 4),
            ],
        );
        let covers = stream_percolate_at(&mut GraphSource::new(&g), 4).unwrap();
        assert_eq!(covers, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn bowtie_splits_at_k3() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let covers = stream_percolate_at(&mut GraphSource::new(&g), 3).unwrap();
        assert_eq!(covers, vec![vec![0, 1, 2], vec![2, 3, 4]]);
        let k2 = stream_percolate_at(&mut GraphSource::new(&g), 2).unwrap();
        assert_eq!(k2.len(), 1);
    }

    #[test]
    fn full_sweep_matches_batch_on_fixture() {
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        );
        let batch = cpm::percolate(&g);
        let stream = stream_percolate(&mut GraphSource::new(&g)).unwrap();
        assert_eq!(stream.k_max(), batch.k_max());
        for k in 2..=batch.k_max().unwrap() {
            let mut b: Vec<Vec<NodeId>> = batch
                .level(k)
                .unwrap()
                .communities
                .iter()
                .map(|c| c.members.clone())
                .collect();
            b.sort_unstable();
            let mut s: Vec<Vec<NodeId>> = stream
                .level(k)
                .unwrap()
                .communities
                .iter()
                .map(|c| c.members.clone())
                .collect();
            s.sort_unstable();
            assert_eq!(s, b, "level {k}");
        }
    }

    #[test]
    fn parents_contain_children() {
        let g = Graph::complete(6);
        let r = stream_percolate(&mut GraphSource::new(&g)).unwrap();
        for (i, level) in r.levels.iter().enumerate() {
            for c in &level.communities {
                if level.k == 2 {
                    assert!(c.parent.is_none());
                } else {
                    let below = &r.levels[i - 1];
                    let p = &below.communities[c.parent.unwrap() as usize];
                    assert!(c.members.iter().all(|&v| p.contains(v)));
                }
            }
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let r = stream_percolate(&mut GraphSource::new(&Graph::empty(0))).unwrap();
        assert!(r.levels.is_empty());
        let r = stream_percolate(&mut GraphSource::new(&Graph::empty(5))).unwrap();
        assert!(r.levels.is_empty());
        assert_eq!(r.total_communities(), 0);
    }

    #[test]
    fn last_seen_mode_never_over_merges() {
        // On a clique chain the last-seen heuristic is exact; assert it
        // agrees here and never merges what Exact keeps apart.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]);
        let mut exact = StreamPercolator::new(5, 3);
        let mut approx = StreamPercolator::with_mode(5, 3, Mode::Almost);
        let _ = cliques::for_each_max_clique(&g, |c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            exact.push(&c);
            approx.push(&c);
            std::ops::ControlFlow::Continue(())
        });
        let exact: Vec<_> = exact.finish().into_iter().map(|c| c.members).collect();
        let approx: Vec<_> = approx.finish().into_iter().map(|c| c.members).collect();
        assert_eq!(exact, approx);
    }

    #[test]
    fn parallel_waves_are_bit_identical_to_sequential() {
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        );
        let seq = stream_percolate_parallel(&mut GraphSource::new(&g), 1).unwrap();
        for threads in [
            Threads::Fixed(2),
            Threads::Fixed(4),
            Threads::Fixed(7),
            Threads::Auto,
        ] {
            let par = stream_percolate_parallel(&mut GraphSource::new(&g), threads).unwrap();
            assert_eq!(seq.levels, par.levels, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn k1_is_rejected() {
        let _ = StreamPercolator::new(3, 1);
    }
}
