//! The percolation engine: clique percolation as a [`CliqueConsumer`],
//! with zero clique-list materialisation.
//!
//! **The reduction.** Two k-cliques are adjacent when they share k−1
//! nodes. Every k-clique lies inside a maximal clique of size ≥ k; two
//! adjacent k-cliques lie inside maximal cliques overlapping in ≥ k−1
//! nodes; conversely an overlap of ≥ k−1 between maximal cliques induces
//! a chain of adjacent k-cliques across them, and all k-subsets of one
//! clique are mutually reachable by single-element swaps (CFinder).
//! Hence the k-clique communities are the components of the clique
//! overlap graph thresholded at k−1, restricted to cliques of size ≥ k —
//! `crates/cpm/tests/oracle.rs` checks this against the literal
//! definition ([`crate::naive`]), and `crates/cpm/tests/certify.rs`
//! implements it literally over planted big cliques.
//!
//! **One descending sweep.** As `k` decreases, the set of active cliques
//! (size ≥ k) and active overlaps (≥ k−1) only grows, so a single
//! descending-`k` pass over one union–find yields the communities of
//! every level — and the component that absorbs a level-`k` community at
//! level `k−1` is its unique parent in the k-clique community tree
//! (Theorem 1 of the paper), so the tree falls out of the sweep.
//!
//! **One pass over the cliques.** Kumpula et al.'s sequential CPM and
//! Baudin et al.'s memory-efficient almost-exact CPM both fold each
//! clique in **as it is emitted**; [`FusedPercolator`] does the same.
//! The enumeration driver ([`cliques::consume_max_cliques`]) streams
//! cliques straight into it, it folds each one into the engine's
//! working state, and [`FusedPercolator::finish`] runs the
//! descending-`k` sweep from that state alone. No clique list ever exists. The engine keeps
//! the level-2/level-3 key unions *incremental* (a per-vertex last-owner
//! chain for vertex keys, a persistent last-owner table keyed by the
//! packed edge for edge keys — chains and first-seen stars have the same
//! connected components), streams an exact small×small counting pass
//! against per-vertex posting lists of earlier small cliques, and
//! compresses each big clique to a 256-bit hub bitmap (40 bytes, vs. the
//! full member list) from which the big×big and big×small prepasses —
//! and the big cliques' members themselves — are reconstructed at
//! [`finish`] time. When a substrate overflows 256 hub vertices the
//! engine switches to a counting + bloom-guarded fallback. Everything
//! from `k = 4` up thus comes from the prepass *strata*, which record
//! each detected pair at its exact detection level `m + 1` (`m` =
//! overlap size); the persistent union–find carries every detection to
//! all lower levels for free.
//!
//! **Exact = almost + certification.** Every union above is witnessed by
//! a real overlap, so [`Mode::Almost`] only ever *refines* the exact
//! communities. The clique pairs it does not count are:
//!
//! * big×big pairs (both sizes > [`SMALL_FULL`]) whose overlap is not a
//!   near-containment (the smaller side misses more than [`MISS_DEPTH`]
//!   of its own members);
//! * overlap-2 pairs involving a clique of more than 91 members, which
//!   emits no edge keys;
//! * overlap-1 pairs involving a clique of more than [`SUBSET_CAP`]
//!   members, which emits no vertex keys.
//!
//! Small×small and big×small are counted exactly, so every missed pair
//! contains a big clique — and every member of a big clique is a *hub*
//! vertex, so the vertices a missed pair shares are hubs. [`Mode::Exact`]
//! therefore runs the same engine and adds one certification pass per
//! level of the sweep, after that level's unions quiesce and before its
//! snapshot: every component holding an active big clique gets a hub
//! summary (the OR of its active cliques' hub bits); component pairs
//! whose summaries share ≥ k−1 hubs keep only the cliques with ≥ k−1
//! hubs in the partner's summary; those clique pairs (at least one side
//! big) are tested by popcount, and the first hit unions the pair. No
//! fixed point is needed: adjacency is a relation between cliques, so
//! every missing union already joins two of the level's original
//! candidate components. The hub-bitmap width follows the hub count, so
//! the same pass serves the > 256-hub fallback.
//!
//! The finish ([`finish_parallel`](FusedPercolator::finish_parallel);
//! [`finish`] is its one-worker form) runs on the worker pool: its
//! phases — pair detection, the descending-`k` stratum drains, member
//! extraction — scale with workers while staying bit-identical at every
//! worker count; see the determinism notes on
//! `FusedPercolator::finish_impl`. Clique ids are stream ordinals
//! (positions in the deterministic sequential enumeration order), so
//! the result is also bit-identical across kernels.
//!
//! [`finish`]: FusedPercolator::finish

use crate::dsu::Dsu;
use crate::dsu_concurrent::ConcurrentDsu;
use crate::mode::Mode;
use crate::result::{canonical_members, Community, CpmResult, KLevel};
use asgraph::{Graph, NodeId};
use cliques::kclique::binomial;
use cliques::{CliqueConsumer, Kernel};
use exec::{CancelToken, Cancelled, ChunkQueue, Pool, Threads};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Wall-clock attribution of one fused percolation, for the bench
/// per-phase rows: `consume` covers enumeration plus all streaming
/// fold-in work (they are one pass — that is the point), `pairs` the
/// finish-time big-clique prepasses, `sweep` the descending-`k`
/// unions (with exact mode's per-level certification), `extract` level
/// snapshots and member extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedPhases {
    /// Enumeration fused with per-clique streaming state updates.
    pub consume: std::time::Duration,
    /// Finish-time pair detection (big×big / big×small prepasses).
    pub pairs: std::time::Duration,
    /// Descending-`k` union replay, including exact mode's
    /// certification pass.
    pub sweep: std::time::Duration,
    /// Level snapshotting and member extraction.
    pub extract: std::time::Duration,
}

/// Per-clique-per-level emission budget: a clique emits its full
/// (k−1)-subset decomposition while `C(s, k−1)` stays at or below
/// this, and nothing at the (mid-range) levels where it would exceed
/// it. Symmetry of the binomial makes one cap serve both the
/// low-level and the near-top tail.
pub const SUBSET_CAP: u64 = 4096;

/// Cliques at or below this size are *small*: every pair involving a
/// small clique gets its overlap counted exactly by the streaming
/// counting pass, whose posting lists hold small cliques only — hub
/// posting lists are dominated by large cliques, so the restriction
/// turns the quadratic pairwise phase into a cache-resident pass an
/// order of magnitude cheaper than counting every pair.
pub const SMALL_FULL: usize = 14;

/// The per-level key emission bound: shared vertices (`l = 1`, exact
/// `k = 2` components) and shared edges (`l = 2`, exact `k = 3`
/// strata) are keyed for every clique. Higher subset sizes are
/// mostly-unique keys — all cost, no sharing — so everything from
/// `k = 4` up is covered by the prepass strata instead.
pub const KEY_MAX_L: usize = 2;

/// Fibonacci hashing's multiplier: the top bits of `key × FIB` spread
/// consecutive keys evenly (edge-table slots, fallback member blooms).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The emission gate: whether a clique of size `s` keys its
/// `l`-subsets (see [`KEY_MAX_L`] / [`SUBSET_CAP`]).
#[inline]
fn emits(s: usize, l: usize) -> bool {
    l >= 1 && l <= s && l <= KEY_MAX_L && binomial(s, l) <= SUBSET_CAP
}

/// Largest clique size whose vertex keys the almost engine emits
/// (`binomial(s, 1) = s ≤ SUBSET_CAP`).
const VERTEX_KEY_MAX_S: usize = SUBSET_CAP as usize;

/// Largest clique size whose edge keys the almost engine emits
/// (`binomial(s, 2) ≤ SUBSET_CAP` ⟺ `s ≤ 91`).
const EDGE_KEY_MAX_S: usize = 91;

/// How nearly contained a big×big pair must be for the subsumption
/// pass to detect it: the smaller clique may miss up to this many of
/// its own members from the larger partner
/// (`|x ∩ y| ≥ |x| −` this).
pub const MISS_DEPTH: usize = 5;

// The big×big scan counts misses in 3-bit saturating registers, which
// stay exact only up to a miss depth of 7.
const _: () = assert!(MISS_DEPTH <= 7);

/// How many members of sorted `a` are absent from sorted `b`, if at
/// most `max_miss` — `None` as soon as one more is proven absent, so a
/// non-qualifying candidate costs only a few merge steps.
fn missing_at_most(a: &[NodeId], b: &[NodeId], max_miss: usize) -> Option<usize> {
    let (mut i, mut j, mut miss) = (0usize, 0usize, 0usize);
    while i < a.len() {
        if j == b.len() || a[i] < b[j] {
            miss += 1;
            if miss > max_miss {
                return None;
            }
            i += 1;
        } else if a[i] == b[j] {
            i += 1;
            j += 1;
        } else {
            j += 1;
        }
    }
    Some(miss)
}

/// Stratum pairs claimed per queue chunk while draining one stratum
/// into the concurrent union–find. A union is a handful of atomic ops,
/// so chunks are coarse to keep the shared counter out of the way.
pub const UNION_CHUNK: usize = 2048;

/// Below this many pairs a stratum is drained by worker 0 alone:
/// coordinating the team costs more than the unions.
const PAR_UNION_MIN: usize = 4 * UNION_CHUNK;

/// The `Threads::Auto` work-volume grain for the *end-to-end*
/// percolate entry points (both modes): graph edges per worker before
/// the whole pipeline's fan-out amortises. Individual phases have
/// their own (smaller) grains, but the committed `BENCH_pool.json`
/// shows every sub-crossover substrate (sparse300 at ~2.3k edges,
/// dense60, tiny-internet) losing to the sequential path at *every*
/// fixed multi-worker count — so below `2 × grain` edges, `auto`
/// snaps the entire run to one worker instead of letting a single
/// phase fan out.
pub const AUTO_EDGES_PER_WORKER: usize = 8_192;

/// Applies [`AUTO_EDGES_PER_WORKER`] at a percolate entry point, in
/// either mode (both run one engine): `Threads::Auto` below the
/// crossover becomes an explicit one-worker run (fixed counts pass
/// through untouched; above the crossover `auto` keeps its per-phase
/// sizing).
fn entry_threads(threads: Threads, g: &Graph) -> Threads {
    if threads.is_auto() && threads.resolve(g.edge_count(), AUTO_EDGES_PER_WORKER) == 1 {
        Threads::Fixed(1)
    } else {
        threads
    }
}

/// Sorted-big rows per claim of the parallel big×big SWAR scan (each
/// row scans up to `nb/64` candidate words).
const PAIRS_BIG_CHUNK: usize = 64;

/// Ordinals per claim of the parallel big×small plane scan.
const PAIRS_SMALL_CHUNK: usize = 256;

/// Communities per claim of the parallel member extraction.
const FUSED_EXTRACT_CHUNK: usize = 16;

/// `Threads::Auto` grain of the pairs phase, in candidate units:
/// the big×big triangle (`nb²/2`) plus one unit per ordinal for the
/// big×small scan.
const FUSED_PAIRS_AUTO_CANDIDATES_PER_WORKER: usize = 65_536;

/// `Threads::Auto` grain of the member-extraction phase: clique
/// ordinals per worker before fan-out pays.
const FUSED_EXTRACT_AUTO_CLIQUES_PER_WORKER: usize = 4_096;

/// Persistent open-addressed `edge → last owner` table. The engine
/// only ever has *one* edge-keyed level (k = 3), so a single persistent
/// table with last-owner *chaining* reaches the same connected
/// components as a per-level first-seen table would (a chain and a
/// first-seen star over the same key class connect the same cliques).
/// The key is the packed edge itself, `u << 32 | v` with `u < v` —
/// never 0, so 0 marks an empty slot — so distinct edges never share a
/// key and no union is ever invented.
struct EdgeTable {
    /// `(key, owner)`; `key == 0` marks an empty slot.
    slots: Vec<EdgeSlot>,
    /// `64 − log₂(capacity)`: the home slot is the top bits of the
    /// key's Fibonacci product (the low key bits are just `v`).
    shift: u32,
    used: usize,
}

#[derive(Clone, Copy, Default)]
struct EdgeSlot {
    key: u64,
    owner: u32,
}

impl EdgeTable {
    fn new() -> Self {
        let bits = 12;
        EdgeTable {
            slots: vec![EdgeSlot::default(); 1 << bits],
            shift: 64 - bits,
            used: 0,
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Records `clique` as the current owner of the edge `{u, v}`
    /// (`u < v`), returning the previous owner if the edge was already
    /// present.
    #[inline]
    fn exchange(&mut self, u: NodeId, v: NodeId, clique: u32) -> Option<u32> {
        debug_assert!(u < v);
        let key = (u as u64) << 32 | v as u64;
        if 2 * (self.used + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let s = &mut self.slots[i];
            if s.key == 0 {
                *s = EdgeSlot { key, owner: clique };
                self.used += 1;
                return None;
            }
            if s.key == key {
                return Some(std::mem::replace(&mut s.owner, clique));
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.shift -= 1;
        self.slots = vec![EdgeSlot::default(); old.len() * 2];
        let mask = self.slots.len() - 1;
        for s in old {
            if s.key != 0 {
                let mut j = self.home(s.key);
                while self.slots[j].key != 0 {
                    j = (j + 1) & mask;
                }
                self.slots[j] = s;
            }
        }
    }
}

/// A big clique compressed to its hub bitmap: every member of a big
/// clique is a hub vertex, so 256 bits plus the global hub-id ↔ vertex
/// map recover the full member list — 40 bytes per big clique instead
/// of its member array.
struct BigRec {
    ord: u32,
    size: u32,
    bm: [u64; 4],
}

/// Level-stratified `(earlier, later)` union pairs, grown on demand and
/// filled incrementally by the streaming passes.
#[derive(Default)]
struct Strata {
    by_level: Vec<Vec<(u32, u32)>>,
}

impl Strata {
    #[inline]
    fn push(&mut self, level: usize, pair: (u32, u32)) {
        if self.by_level.len() <= level {
            self.by_level.resize_with(level + 1, Vec::new);
        }
        self.by_level[level].push(pair);
    }

    /// The largest single stratum — the sweep's per-level work bound.
    fn max_len(&self) -> usize {
        self.by_level.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The engine state (see the module docs).
struct AlmostFused {
    /// Per-vertex last clique that emitted this vertex's key
    /// (`u32::MAX` = none yet); chains into `dsu2`.
    last2: Vec<u32>,
    /// Level-2 (vertex-key) components over clique ordinals.
    dsu2: Dsu,
    /// Persistent edge-key table chaining into `dsu3`.
    edges: EdgeTable,
    /// Level-3 (edge-key) components over clique ordinals.
    dsu3: Dsu,
    /// Per-vertex posting lists of earlier *small* cliques
    /// (3 ≤ size ≤ [`SMALL_FULL`]) — the streaming small×small counting
    /// pass, and the transposed member store for extraction.
    small_postings: Vec<Vec<u32>>,
    /// Dense per-partner overlap counter (counts ≤ [`SMALL_FULL`]).
    counter: Vec<u8>,
    touched: Vec<u32>,
    /// Size-2 cliques (ordinal, members) — active only at `k = 2`.
    pairs2: Vec<(u32, [NodeId; 2])>,
    /// Hub-bit assignment, in hub-vertex *arrival* order.
    hub_bit: Vec<u32>,
    hub_inv: Vec<NodeId>,
    /// Big cliques as hub bitmaps (fast path; drained on fallback).
    bigs: Vec<BigRec>,
    /// Fallback state (> 256 hub vertices): explicit big members and
    /// big posting lists.
    fallback: bool,
    big_ords: Vec<u32>,
    big_offsets: Vec<usize>,
    big_members: Vec<NodeId>,
    big_postings: Vec<Vec<u32>>,
    strata: Strata,
    /// Per-detection-level components found by the finish-time
    /// prepasses ([`Self::finish_pairs`]) — big-involving pairs union
    /// straight in here instead of materialising millions of `(y, x)`
    /// entries, and the sweep merges each level's partition exactly
    /// like `dsu2`/`dsu3`. Pool workers union concurrently, and
    /// [`ConcurrentDsu`]'s order-free min-id partition means the sweep
    /// merge sees the same components whatever the interleaving.
    /// Lazily created per level by whichever worker first detects a
    /// pair there. Level `L`'s partition is over *size ranks*
    /// `0..n_L` ([`Self::by_size`]), not ordinals: both cliques of a
    /// level-`L` pair have at least `L` members.
    level_cdsus: Vec<OnceLock<ConcurrentDsu>>,
    /// Size rank → ordinal: every ordinal by descending size, ties by
    /// ordinal, so the cliques of size ≥ `L` are the ranks `0..n_L`.
    by_size: Vec<u32>,
    /// Transposed member store for extraction (ordinal-indexed CSR over
    /// the small cliques), built once at finish time from the posting
    /// lists — see [`Self::build_extract_index`].
    small_off: Vec<u32>,
    small_mem: Vec<NodeId>,
    /// `(ord, index into bigs)` sorted by ordinal, for extraction.
    big_ord_idx: Vec<(u32, u32)>,
}

impl AlmostFused {
    fn new(n: usize) -> Self {
        AlmostFused {
            last2: vec![u32::MAX; n],
            dsu2: Dsu::new(0),
            edges: EdgeTable::new(),
            dsu3: Dsu::new(0),
            small_postings: vec![Vec::new(); n],
            counter: Vec::new(),
            touched: Vec::new(),
            pairs2: Vec::new(),
            hub_bit: vec![u32::MAX; n],
            hub_inv: Vec::new(),
            bigs: Vec::new(),
            fallback: false,
            big_ords: Vec::new(),
            big_offsets: vec![0],
            big_members: Vec::new(),
            big_postings: Vec::new(),
            strata: Strata::default(),
            level_cdsus: Vec::new(),
            by_size: Vec::new(),
            small_off: Vec::new(),
            small_mem: Vec::new(),
            big_ord_idx: Vec::new(),
        }
    }

    fn consume(&mut self, c: &[NodeId]) {
        let x = self.counter.len() as u32;
        let s = c.len();
        self.counter.push(0);
        self.dsu2.push();
        self.dsu3.push();

        // Level-2 vertex keys: mix is bijective, so key identity is
        // vertex identity — chain through the per-vertex last owner.
        if (2..=VERTEX_KEY_MAX_S).contains(&s) {
            for &v in c {
                let prev = std::mem::replace(&mut self.last2[v as usize], x);
                if prev != u32::MAX {
                    self.dsu2.union(prev, x);
                }
            }
        }
        // Level-3 edge keys: the member pair itself (members are
        // sorted, so `c[i] < v`); last-owner chaining.
        if (3..=EDGE_KEY_MAX_S).contains(&s) {
            debug_assert!(emits(s, 2));
            for i in 0..s - 1 {
                let u = c[i];
                for &v in &c[i + 1..] {
                    if let Some(prev) = self.edges.exchange(u, v, x) {
                        self.dsu3.union(prev, x);
                    }
                }
            }
        }

        match s {
            0 | 1 => {}
            2 => self.pairs2.push((x, [c[0], c[1]])),
            _ if s <= SMALL_FULL => self.consume_small(c, x),
            _ => self.consume_big(c, x),
        }
    }

    /// Streaming small×small (and, on the fallback path, small×big)
    /// exact counting: per-vertex posting lists of the earlier cliques
    /// and a dense counter accumulating `|x ∩ y|` per partner.
    fn consume_small(&mut self, c: &[NodeId], x: u32) {
        for &v in c {
            for &y in &self.small_postings[v as usize] {
                if self.counter[y as usize] == 0 {
                    self.touched.push(y);
                }
                self.counter[y as usize] += 1;
            }
            if self.fallback {
                for &y in &self.big_postings[v as usize] {
                    if self.counter[y as usize] == 0 {
                        self.touched.push(y);
                    }
                    self.counter[y as usize] += 1;
                }
            }
        }
        self.flush_counts(x);
        for &v in c {
            self.small_postings[v as usize].push(x);
        }
    }

    fn consume_big(&mut self, c: &[NodeId], x: u32) {
        if !self.fallback {
            let mut bm = [0u64; 4];
            let mut fits = true;
            for &v in c {
                let mut b = self.hub_bit[v as usize];
                if b == u32::MAX {
                    if self.hub_inv.len() == 256 {
                        fits = false;
                        break;
                    }
                    b = self.hub_inv.len() as u32;
                    self.hub_bit[v as usize] = b;
                    self.hub_inv.push(v);
                }
                bm[(b >> 6) as usize] |= 1u64 << (b & 63);
            }
            if fits {
                self.bigs.push(BigRec {
                    ord: x,
                    size: c.len() as u32,
                    bm,
                });
                return;
            }
            self.switch_to_fallback();
        }
        // Fallback: store members, count against earlier smalls (bigs
        // scan small postings, smalls scan big postings, so each mixed
        // pair is counted exactly once),
        // defer big×big to the finish-time bloom pass.
        for &v in c {
            for &y in &self.small_postings[v as usize] {
                if self.counter[y as usize] == 0 {
                    self.touched.push(y);
                }
                self.counter[y as usize] += 1;
            }
        }
        self.flush_counts(x);
        self.big_ords.push(x);
        self.big_members.extend_from_slice(c);
        self.big_offsets.push(self.big_members.len());
        for &v in c {
            self.big_postings[v as usize].push(x);
        }
    }

    /// Drains the touched counters into the strata (`m >` [`KEY_MAX_L`]
    /// ⇒ detection level `m + 1`; `m ≤ 2` is owned by the keys).
    fn flush_counts(&mut self, x: u32) {
        for &y in &self.touched {
            let m = self.counter[y as usize] as usize;
            self.counter[y as usize] = 0;
            if m > KEY_MAX_L {
                self.strata.push(m + 1, (y, x));
            }
        }
        self.touched.clear();
    }

    /// The 256-hub-vertex overflow switch: reconstruct the members of
    /// every bitmap-compressed big (their hub bits are all assigned),
    /// count each one against every small seen so far (no mixed pair
    /// involving them has been counted yet — the fast path defers all
    /// big-involving pairs to finish), and seed the big posting lists
    /// so later smalls find them.
    fn switch_to_fallback(&mut self) {
        self.fallback = true;
        self.big_postings = vec![Vec::new(); self.small_postings.len()];
        for bi in 0..self.bigs.len() {
            let start = self.big_members.len();
            for w in 0..4 {
                let mut bits = self.bigs[bi].bm[w];
                while bits != 0 {
                    let b = (w << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.big_members.push(self.hub_inv[b]);
                }
            }
            // Hub bits are in arrival order, not id order; members
            // must stay sorted ascending.
            self.big_members[start..].sort_unstable();
            self.big_offsets.push(self.big_members.len());
            let ord = self.bigs[bi].ord;
            self.big_ords.push(ord);
            for mi in start..self.big_members.len() {
                let v = self.big_members[mi] as usize;
                for yi in 0..self.small_postings[v].len() {
                    let y = self.small_postings[v][yi];
                    if self.counter[y as usize] == 0 {
                        self.touched.push(y);
                    }
                    self.counter[y as usize] += 1;
                }
            }
            self.flush_counts(ord);
            for mi in start..self.big_members.len() {
                let v = self.big_members[mi] as usize;
                self.big_postings[v].push(ord);
            }
        }
        self.bigs.clear();
    }

    /// Frees what only the streaming pass reads — the edge-key table,
    /// the per-vertex key owners and the overlap counter — and trims
    /// the strata to their length: the finish starts from the rest.
    fn end_consume(&mut self) {
        self.edges.slots = Vec::new();
        self.last2 = Vec::new();
        self.counter = Vec::new();
        self.touched = Vec::new();
        for stratum in &mut self.strata.by_level {
            stratum.shrink_to_fit();
        }
    }
}

/// Level construction for the sweep: groups the active cliques of one
/// level by union–find root and wires the Theorem-1 parent links of the
/// level above. A root-indexed `Vec` plus an epoch stamp gives one
/// `find` per active clique, no hashing and no per-level allocation.
/// Community indices are assigned first-seen-root in ascending ordinal
/// order, which keeps the result independent of union order, DSU root
/// identity, and thread count. Driven by the per-ordinal size array;
/// members are extracted afterwards from the engine's stores.
struct LevelSnapshotter {
    idx_of_root: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl LevelSnapshotter {
    fn new(num_cliques: usize) -> Self {
        LevelSnapshotter {
            idx_of_root: vec![0; num_cliques],
            stamp: vec![u32::MAX; num_cliques],
            epoch: 0,
        }
    }

    fn snapshot(
        &mut self,
        sizes: &[u32],
        k: usize,
        find: &mut dyn FnMut(u32) -> u32,
        prev: Option<&mut KLevel>,
    ) -> KLevel {
        self.epoch += 1;
        let mut communities: Vec<Community> = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            if (s as usize) < k {
                continue;
            }
            let root = find(i as u32) as usize;
            let idx = if self.stamp[root] == self.epoch {
                self.idx_of_root[root]
            } else {
                self.stamp[root] = self.epoch;
                let idx = communities.len() as u32;
                self.idx_of_root[root] = idx;
                communities.push(Community {
                    members: Vec::new(),
                    clique_ids: Vec::new(),
                    parent: None,
                });
                idx
            };
            communities[idx as usize].clique_ids.push(i as u32);
        }
        // The levels are the result: keep them at exact length.
        communities.shrink_to_fit();
        for c in &mut communities {
            c.clique_ids.shrink_to_fit();
        }
        if let Some(prev) = prev {
            for pc in &mut prev.communities {
                let root = find(pc.clique_ids[0]) as usize;
                debug_assert_eq!(
                    self.stamp[root], self.epoch,
                    "a level-(k+1) community's cliques stay active at level k"
                );
                pc.parent = Some(self.idx_of_root[root]);
            }
        }
        KLevel {
            k: k as u32,
            communities,
        }
    }
}

/// Per-clique hub membership, a CSR over clique ordinals: the hub ids
/// (bit positions) of each clique's hub members. A big clique's row is
/// its whole member list (every big member is a hub); a small's is the
/// part of it inside the hub set. Built once at finish time
/// ([`AlmostFused::hub_rows`]) for the big×small prepass and exact
/// mode's certification.
struct HubRows {
    /// Hub vertices indexed: the bitmap width in bits.
    hubs: usize,
    off: Vec<u32>,
    rows: Vec<u32>,
}

impl HubRows {
    #[inline]
    fn of(&self, x: u32) -> &[u32] {
        &self.rows[self.off[x as usize] as usize..self.off[x as usize + 1] as usize]
    }
}

/// How many of `row`'s hub ids are set in the hub bitmap `bm`.
#[inline]
fn hits(row: &[u32], bm: &[u64]) -> usize {
    row.iter()
        .filter(|&&b| bm[(b >> 6) as usize] >> (b & 63) & 1 != 0)
        .count()
}

/// Exact mode's per-level certification pass (see the module docs):
/// every union the engine misses involves a big clique and shares only
/// hub vertices, so hub-bitmap tests between the level's components
/// find them all. Runs on the sweep leader against the quiescent
/// partition; the unions it adds depend only on that partition, so the
/// result stays bit-identical at every worker count.
struct Certifier {
    /// Hub-bitmap width in words (`⌈hubs / 64⌉`).
    width: usize,
    /// `(top, ordinal)` for every clique with a hub member, by
    /// descending `top` = min(size, hub members + 1): the highest level
    /// at which the clique is active with ≥ k−1 hub members, so each
    /// level's participants are a prefix.
    cands: Vec<(u32, u32)>,
    /// Every clique's hub members.
    hub: HubRows,
    /// The largest big-clique size: above it no big clique is active,
    /// so no union can be missing.
    big_max: usize,
    /// Root ordinal → the level's component index, valid where `stamp`
    /// equals `epoch`.
    comp_of_root: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl Certifier {
    fn new(hub: HubRows, sizes: &[u32]) -> Self {
        let count = sizes.len();
        let mut cands: Vec<(u32, u32)> = (0..count as u32)
            .filter(|&x| !hub.of(x).is_empty())
            .map(|x| (sizes[x as usize].min(hub.of(x).len() as u32 + 1), x))
            .collect();
        cands.sort_unstable_by_key(|&(top, x)| (std::cmp::Reverse(top), x));
        let big_max = sizes
            .iter()
            .map(|&s| s as usize)
            .filter(|&s| s > SMALL_FULL)
            .max()
            .unwrap_or(0);
        Certifier {
            width: hub.hubs.div_ceil(64),
            cands,
            hub,
            big_max,
            comp_of_root: vec![0; count],
            stamp: vec![u32::MAX; count],
            epoch: 0,
        }
    }

    /// The hub row of candidate `i`.
    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        self.hub.of(self.cands[i].1)
    }

    /// Certifies level `k` of the quiescent sweep partition `dsu`:
    /// unions every component pair that a missed clique adjacency
    /// joins.
    fn certify_level(&mut self, sizes: &[u32], k: usize, dsu: &ConcurrentDsu) {
        if k > self.big_max {
            return;
        }
        let need = k - 1;
        let w = self.width;
        // A missed pair shares ≥ k−1 hubs, so only active cliques with
        // that many hub members take part: group them by component and
        // OR each component's hub summary.
        let active = self.cands.partition_point(|&(top, _)| top as usize >= k);
        self.epoch += 1;
        let mut comp: Vec<u32> = Vec::with_capacity(active);
        let mut has_big: Vec<bool> = Vec::new();
        let mut bigs: Vec<usize> = Vec::new();
        let mut summary: Vec<u64> = Vec::new();
        for i in 0..active {
            let x = self.cands[i].1;
            let r = dsu.find(x) as usize;
            if self.stamp[r] != self.epoch {
                self.stamp[r] = self.epoch;
                self.comp_of_root[r] = has_big.len() as u32;
                has_big.push(false);
                summary.resize(summary.len() + w, 0);
            }
            let c = self.comp_of_root[r] as usize;
            if sizes[x as usize] as usize > SMALL_FULL {
                has_big[c] = true;
                bigs.push(i);
            }
            let acc = &mut summary[c * w..][..w];
            for &b in self.row(i) {
                acc[(b >> 6) as usize] |= 1 << (b & 63);
            }
            comp.push(c as u32);
        }
        let summary_of = |c: usize| &summary[c * w..][..w];
        // The candidates of component `c` (only its bigs, or all) with
        // ≥ k−1 hubs in `partner`'s summary: only these can be adjacent
        // to a clique of `partner`.
        let side = |c: usize, partner: usize, big_only: bool| -> Vec<usize> {
            let pick = |&i: &usize| {
                comp[i] as usize == c && hits(self.row(i), summary_of(partner)) >= need
            };
            if big_only {
                bigs.iter().copied().filter(pick).collect()
            } else {
                (0..active).filter(pick).collect()
            }
        };
        // Tests `from`'s bigs against `to`'s candidates by popcount (a
        // big's members are all hubs, so its bitmap against a hub row
        // counts the overlap exactly) and unions the first pair sharing
        // ≥ k−1 vertices. Small×small pairs need no test: the engine
        // counts them exactly, so every missed pair has a big side.
        let mut scratch = vec![0u64; w];
        let mut join = |from: usize, to: usize| -> bool {
            let from_bigs = side(from, to, true);
            let partners = if from_bigs.is_empty() {
                Vec::new()
            } else {
                side(to, from, false)
            };
            for &i in &from_bigs {
                for &b in self.row(i) {
                    scratch[(b >> 6) as usize] |= 1 << (b & 63);
                }
                let hit = partners
                    .iter()
                    .find(|&&j| hits(self.row(j), &scratch) >= need);
                scratch.fill(0);
                if let Some(&j) = hit {
                    dsu.union(self.cands[i].1, self.cands[j].1);
                    return true;
                }
            }
            false
        };
        let n = has_big.len();
        for a in (0..n).filter(|&a| has_big[a]) {
            // Big×big component pairs are visited once, from the lower
            // index.
            for b in (0..n).filter(|&b| b != a && !(has_big[b] && b < a)) {
                let shared: u32 = summary_of(a)
                    .iter()
                    .zip(summary_of(b))
                    .map(|(p, q)| (p & q).count_ones())
                    .sum();
                if shared as usize >= need {
                    let _ = join(a, b) || join(b, a);
                }
            }
        }
    }
}

/// One partition to merge into the sweep's concurrent DSU: either the
/// pairs pass's lock-free per-level partition over size ranks (whose
/// `find` is exact once that pass has quiesced; the slice maps rank →
/// ordinal) or the root array of one of the engine's incremental key
/// [`Dsu`]s (whose `find` needs `&mut`, which pool workers cannot
/// share).
enum MergeSrc<'a> {
    Ranked(ConcurrentDsu, &'a [u32]),
    Roots(Vec<u32>),
}

impl MergeSrc<'_> {
    fn len(&self) -> usize {
        match self {
            MergeSrc::Ranked(d, _) => d.len(),
            MergeSrc::Roots(r) => r.len(),
        }
    }

    /// The union element `i` contributes: itself and its root, as
    /// ordinals (`None` for a root).
    #[inline]
    fn edge(&self, i: u32) -> Option<(u32, u32)> {
        match self {
            MergeSrc::Ranked(d, by_size) => {
                let r = d.find(i);
                (r != i).then(|| (by_size[r as usize], by_size[i as usize]))
            }
            MergeSrc::Roots(roots) => {
                let r = roots[i as usize];
                (r != i).then_some((r, i))
            }
        }
    }
}

/// Percolation as a clique sink: feed every maximal clique (sorted
/// members, each exactly once, deterministic order — the
/// [`cliques::consume_max_cliques`] driver guarantees this) to
/// [`consume`](CliqueConsumer::consume), then call
/// [`finish`](Self::finish) (or one of its pooled forms) for the
/// multi-level result; a single level is its projection
/// ([`CpmResult::cover`]). At no point does a clique list exist: peak
/// memory is the engine's working state.
pub struct FusedPercolator {
    sizes: Vec<u32>,
    k_max: usize,
    engine: AlmostFused,
    /// Whether the sweep certifies each level ([`Mode::Exact`]).
    certify: bool,
}

impl CliqueConsumer for FusedPercolator {
    fn consume(&mut self, clique: &[NodeId]) {
        self.push(clique);
    }
}

impl FusedPercolator {
    /// A fresh consumer for a graph of `n` vertices percolating in
    /// `mode`.
    pub fn new(n: usize, mode: Mode) -> Self {
        FusedPercolator {
            sizes: Vec::new(),
            k_max: 0,
            engine: AlmostFused::new(n),
            certify: mode == Mode::Exact,
        }
    }

    /// Folds one maximal clique (sorted strictly ascending) into the
    /// engine state.
    ///
    /// # Panics
    ///
    /// May panic if a member id is `>= n` or the slice is unsorted.
    pub fn push(&mut self, clique: &[NodeId]) {
        debug_assert!(clique.windows(2).all(|w| w[0] < w[1]));
        self.sizes.push(clique.len() as u32);
        self.k_max = self.k_max.max(clique.len());
        self.engine.consume(clique);
    }

    /// Cliques consumed so far.
    pub fn clique_count(&self) -> usize {
        self.sizes.len()
    }

    /// Runs the descending-`k` sweep on the calling thread and extracts
    /// every level: [`finish_parallel`](Self::finish_parallel) with one
    /// worker, which the pool runs inline.
    pub fn finish(self) -> CpmResult {
        self.finish_parallel(1)
    }

    /// The pair detection, the descending-`k` sweep and the member
    /// extraction, each chunked over up to `threads` workers of the
    /// persistent [`Pool`] ([`Threads::Auto`] resolves each phase
    /// against its own work volume). Bit-identical at every worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is a fixed count of 0.
    pub fn finish_parallel(self, threads: impl Into<Threads>) -> CpmResult {
        let mut phases = FusedPhases::default();
        self.finish_impl(threads.into(), None, &mut phases, &mut |_| {})
            .expect("uncancellable finish cannot be cancelled")
    }

    /// [`finish_parallel`](Self::finish_parallel) polling a
    /// [`CancelToken`] at every chunk claim and level barrier: workers
    /// stop taking work, run out through the job protocol (the pool
    /// stays reusable), the partially built result is discarded, and
    /// the call returns [`Cancelled`].
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] once the token trips.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is a fixed count of 0.
    pub fn finish_cancellable(
        self,
        threads: impl Into<Threads>,
        cancel: &CancelToken,
    ) -> Result<CpmResult, Cancelled> {
        let mut phases = FusedPhases::default();
        self.finish_impl(threads.into(), Some(cancel), &mut phases, &mut |_| {})
    }

    /// The one finish behind every entry point, at every worker count:
    /// pair detection, the descending-`k` sweep and member extraction,
    /// one [`Pool::run`] per phase (at one worker the pool runs each
    /// phase inline on the caller). Single-level callers project their
    /// level out of the result ([`CpmResult::cover`]).
    ///
    /// Why the finish is bit-identical at every worker count:
    /// the final result depends only on the per-level *partitions* (the
    /// snapshotter assigns community indices by first-seen root over
    /// ascending ordinals, and members are canonicalised), every union
    /// source contributes the same pair set in every schedule, and
    /// [`ConcurrentDsu`]'s unions commute partition-wise. So chunking
    /// unions over workers — in any interleaving — cannot change the
    /// output; exact mode's certification runs on the leader between a
    /// level's union barrier and its snapshot, and depends only on that
    /// partition. Phase transitions are reported to `observe` (the
    /// bench's per-phase memory hook).
    fn finish_impl(
        mut self,
        threads: Threads,
        cancel: Option<&CancelToken>,
        phases: &mut FusedPhases,
        observe: &mut dyn FnMut(&'static str),
    ) -> Result<CpmResult, Cancelled> {
        let clique_count = self.sizes.len();
        if self.k_max < 2 {
            return Ok(CpmResult {
                levels: Vec::new(),
                clique_count,
            });
        }

        observe("pairs");
        let t = Instant::now();
        self.engine.end_consume();
        let pairs_workers = self.pairs_workers(threads);
        let hubs = self.engine.hub_rows(clique_count);
        self.engine
            .finish_pairs(&self.sizes, self.k_max, pairs_workers, cancel, &hubs);
        self.engine.build_extract_index(&self.sizes);
        if let Some(token) = cancel {
            token.check()?;
        }
        phases.pairs += t.elapsed();

        observe("sweep");
        let t = Instant::now();
        let certifier = self.certify.then(|| Certifier::new(hubs, &self.sizes));
        let sweep_workers = threads.resolve(self.sweep_work(), PAR_UNION_MIN);
        let (mut levels_desc, snap_time) = self.sweep_levels(sweep_workers, cancel, certifier)?;
        phases.sweep += t.elapsed().saturating_sub(snap_time);

        observe("extract");
        let t = Instant::now();
        let extract_workers = threads.resolve(clique_count, FUSED_EXTRACT_AUTO_CLIQUES_PER_WORKER);
        self.extract_levels(&mut levels_desc, extract_workers, cancel)?;
        phases.extract += t.elapsed() + snap_time;

        levels_desc.reverse();
        Ok(CpmResult {
            levels: levels_desc,
            clique_count,
        })
    }

    /// `Threads::Auto` resolution of the pairs phase against its own
    /// work volume (candidate pairs of the big-clique prepasses).
    fn pairs_workers(&self, threads: Threads) -> usize {
        let nb = self.engine.bigs.len();
        let work = nb * nb / 2 + self.sizes.len();
        threads.resolve(work, FUSED_PAIRS_AUTO_CANDIDATES_PER_WORKER)
    }

    /// The sweep's work bound: the largest single stratum or the
    /// ordinal universe (each keyed/partition merge replays one union
    /// per ordinal), whichever dominates.
    fn sweep_work(&self) -> usize {
        self.engine.strata.max_len().max(self.sizes.len())
    }

    /// The pool-parallel descending-`k` sweep: per level, workers drain
    /// the stratum pairs and the partition merges into one shared
    /// [`ConcurrentDsu`], then a barrier separates the unions from the
    /// leader's certification (exact mode, `certifier`) and level
    /// snapshot (both read the quiescent DSU, where `find` is the exact
    /// min-id root), and a second barrier separates the snapshot from
    /// the next level's unions. Sources smaller than [`PAR_UNION_MIN`]
    /// get an empty queue and are replayed leader-inline, so tiny levels
    /// never pay claim traffic. Between the barriers the leader also
    /// frees the level's spent sources, so the sweep never holds the
    /// strata and partitions of levels it has already settled.
    ///
    /// Returns the levels in descending `k` plus the wall time spent
    /// snapshotting (attributed to the extract phase).
    fn sweep_levels(
        &mut self,
        workers: usize,
        cancel: Option<&CancelToken>,
        certifier: Option<Certifier>,
    ) -> Result<(Vec<KLevel>, Duration), Cancelled> {
        let count = self.sizes.len();
        // The sweep takes every union source out of the engine and frees
        // each level's as soon as that level has quiesced. The
        // incremental key DSUs become root arrays: `Dsu::find` needs
        // `&mut`, which pool workers cannot share.
        let engine = &mut self.engine;
        let mut strata = std::mem::take(&mut engine.strata.by_level);
        let mut ranked = std::mem::take(&mut engine.level_cdsus);
        let by_size = std::mem::take(&mut engine.by_size);
        let mut roots3 = Some(std::mem::replace(&mut engine.dsu3, Dsu::new(0)).into_roots());
        let mut roots2 = Some(std::mem::replace(&mut engine.dsu2, Dsu::new(0)).into_roots());

        /// One level's union sources: its stratum pairs and the
        /// partitions it merges.
        #[derive(Default)]
        struct LevelWork<'a> {
            pairs: Vec<(u32, u32)>,
            merges: Vec<MergeSrc<'a>>,
        }
        struct LevelPlan<'a> {
            k: usize,
            /// Read by every worker while the level unions, emptied by
            /// the leader once they are done.
            work: RwLock<LevelWork<'a>>,
            pairs_queue: ChunkQueue,
            merge_queues: Vec<ChunkQueue>,
        }

        let sizes = &self.sizes[..];
        // Only sources worth stealing get a live queue; `gate` returns
        // the queue length (0 = leader-inline).
        let gate = |len: usize| {
            let len = if workers > 1 && len >= PAR_UNION_MIN {
                len
            } else {
                0
            };
            ChunkQueue::new(len, UNION_CHUNK)
        };
        let mut plans: Vec<LevelPlan> = Vec::with_capacity(self.k_max - 1);
        for k in (2..=self.k_max).rev() {
            let pairs = strata.get_mut(k).map(std::mem::take).unwrap_or_default();
            let ranked = ranked.get_mut(k).and_then(OnceLock::take);
            let keyed = match k {
                3 => roots3.take(),
                2 => roots2.take(),
                _ => None,
            };
            let merges: Vec<MergeSrc> = ranked
                .map(|cd| MergeSrc::Ranked(cd, &by_size))
                .into_iter()
                .chain(keyed.map(MergeSrc::Roots))
                .collect();
            plans.push(LevelPlan {
                k,
                pairs_queue: gate(pairs.len()),
                merge_queues: merges.iter().map(|m| gate(m.len())).collect(),
                work: RwLock::new(LevelWork { pairs, merges }),
            });
        }
        drop((strata, ranked));

        let cdsu = ConcurrentDsu::new(count);
        type SnapParts = (LevelSnapshotter, Vec<KLevel>, Duration, Option<Certifier>);
        let snap_parts: Mutex<SnapParts> = Mutex::new((
            LevelSnapshotter::new(count),
            Vec::with_capacity(self.k_max - 1),
            Duration::ZERO,
            certifier,
        ));
        Pool::global().run(workers, |w| {
            let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
            for plan in &plans {
                let work = plan.work.read().expect("fused sweep worker panicked");
                if plan.pairs_queue.is_empty() {
                    if w.is_leader() && !cancelled() {
                        for chunk in work.pairs.chunks(UNION_CHUNK) {
                            if cancelled() {
                                break;
                            }
                            for &(a, b) in chunk {
                                cdsu.union(a, b);
                            }
                        }
                    }
                } else {
                    let claim = || match cancel {
                        Some(token) => plan.pairs_queue.claim_unless(token),
                        None => plan.pairs_queue.claim(),
                    };
                    while let Some(range) = claim() {
                        for &(a, b) in &work.pairs[range] {
                            cdsu.union(a, b);
                        }
                    }
                }
                for (src, queue) in work.merges.iter().zip(&plan.merge_queues) {
                    if queue.is_empty() {
                        if w.is_leader() && !cancelled() {
                            let len = src.len();
                            for start in (0..len).step_by(UNION_CHUNK) {
                                if cancelled() {
                                    break;
                                }
                                let end = (start + UNION_CHUNK).min(len);
                                for i in start as u32..end as u32 {
                                    if let Some((a, b)) = src.edge(i) {
                                        cdsu.union(a, b);
                                    }
                                }
                            }
                        }
                    } else {
                        let claim = || match cancel {
                            Some(token) => queue.claim_unless(token),
                            None => queue.claim(),
                        };
                        while let Some(range) = claim() {
                            for i in range.start as u32..range.end as u32 {
                                if let Some((a, b)) = src.edge(i) {
                                    cdsu.union(a, b);
                                }
                            }
                        }
                    }
                }
                drop(work);
                // Quiesce, free the spent sources, certify and snapshot
                // the settled partition, then release everyone into the
                // next level.
                w.barrier();
                if w.is_leader() {
                    *plan.work.write().expect("fused sweep worker panicked") = LevelWork::default();
                    if !cancelled() {
                        let mut guard = snap_parts.lock().expect("fused sweep worker panicked");
                        let (snap, levels, snap_time, certifier) = &mut *guard;
                        if let Some(certifier) = certifier {
                            certifier.certify_level(sizes, plan.k, &cdsu);
                        }
                        let t = Instant::now();
                        let level =
                            snap.snapshot(sizes, plan.k, &mut |x| cdsu.find(x), levels.last_mut());
                        levels.push(level);
                        *snap_time += t.elapsed();
                    }
                }
                w.barrier();
            }
        });
        if let Some(token) = cancel {
            token.check()?;
        }
        let (_, levels, snap_time, _) = snap_parts
            .into_inner()
            .expect("fused sweep worker panicked");
        Ok((levels, snap_time))
    }

    /// Pool-parallel member extraction: the communities of every level
    /// flatten into one worklist, workers claim chunks and compute each
    /// community's canonical members independently (the per-community
    /// work never touches shared mutable state), and the buffers are
    /// written back by index afterwards, so every community gets the
    /// same members whatever the worker count.
    fn extract_levels(
        &self,
        levels: &mut [KLevel],
        workers: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<(), Cancelled> {
        let items: Vec<(u32, u32)> = levels
            .iter()
            .enumerate()
            .flat_map(|(li, l)| (0..l.communities.len() as u32).map(move |ci| (li as u32, ci)))
            .collect();
        let queue = ChunkQueue::new(items.len(), FUSED_EXTRACT_CHUNK);
        type Extracted = Vec<(u32, u32, Vec<NodeId>)>;
        let done: Mutex<Extracted> = Mutex::new(Vec::with_capacity(items.len()));
        let levels_ref = &*levels;
        Pool::global().run(workers, |_w| {
            let mut local: Extracted = Vec::new();
            let claim = || match cancel {
                Some(token) => queue.claim_unless(token),
                None => queue.claim(),
            };
            while let Some(range) = claim() {
                for ii in range {
                    let (li, ci) = items[ii];
                    let ids = &levels_ref[li as usize].communities[ci as usize].clique_ids;
                    local.push((li, ci, canonical_members(self.community_members(ids))));
                }
            }
            done.lock()
                .expect("fused extract worker panicked")
                .extend(local);
        });
        if let Some(token) = cancel {
            token.check()?;
        }
        for (li, ci, members) in done.into_inner().expect("fused extract worker panicked") {
            levels[li as usize].communities[ci as usize].members = members;
        }
        Ok(())
    }

    /// The raw (unsorted, possibly duplicated) member union of the
    /// cliques in `ids`, fetched from the engine's ordinal-indexed
    /// stores ([`AlmostFused::build_extract_index`]) — work
    /// proportional to the community's own membership, not to the whole
    /// census, which is what keeps the per-level extraction cheap
    /// despite never holding a clique list. Takes `&self` only, so
    /// extraction workers run it concurrently, one community at a time.
    fn community_members(&self, ids: &[u32]) -> Vec<NodeId> {
        let a = &self.engine;
        let mut members: Vec<NodeId> = Vec::new();
        // Bitmap-compressed bigs OR into one accumulator and decode once
        // per community: every big member is a hub vertex, so a
        // community's bigs — however many — contribute at most 256
        // member pushes.
        let mut bm = [0u64; 4];
        for &x in ids {
            let s = self.sizes[x as usize] as usize;
            if s == 2 {
                let i = a
                    .pairs2
                    .binary_search_by_key(&x, |&(o, _)| o)
                    .expect("size-2 ordinal is in pairs2");
                members.extend_from_slice(&a.pairs2[i].1);
            } else if s <= SMALL_FULL {
                let (b, e) = (
                    a.small_off[x as usize] as usize,
                    a.small_off[x as usize + 1] as usize,
                );
                members.extend_from_slice(&a.small_mem[b..e]);
            } else if !a.fallback {
                let i = a
                    .big_ord_idx
                    .binary_search_by_key(&x, |&(o, _)| o)
                    .expect("big ordinal is indexed");
                let rec = &a.bigs[a.big_ord_idx[i].1 as usize];
                for (acc, &word) in bm.iter_mut().zip(&rec.bm) {
                    *acc |= word;
                }
            } else {
                let bi = a
                    .big_ords
                    .binary_search(&x)
                    .expect("fallback big ordinal is recorded");
                members.extend_from_slice(&a.big_members[a.big_offsets[bi]..a.big_offsets[bi + 1]]);
            }
        }
        for (w, &word) in bm.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                members.push(a.hub_inv[b]);
            }
        }
        members
    }
}

impl AlmostFused {
    /// Indexes every clique's hub members ([`HubRows`]): smalls from
    /// the hub vertices' posting lists, bigs from their bitmaps (or, on
    /// the fallback path, the big posting lists), size-2 cliques from
    /// their two members. On the fallback path the hub ids are first
    /// extended to every big member — the hub set stays "all members of
    /// big cliques", only wider than 256.
    fn hub_rows(&mut self, count: usize) -> HubRows {
        if self.fallback {
            for &v in &self.big_members {
                if self.hub_bit[v as usize] == u32::MAX {
                    self.hub_bit[v as usize] = self.hub_inv.len() as u32;
                    self.hub_inv.push(v);
                }
            }
        }
        let visit = |f: &mut dyn FnMut(u32, u32)| {
            for (b, &v) in self.hub_inv.iter().enumerate() {
                let v = v as usize;
                let bigs = self.big_postings.get(v).map_or(&[][..], Vec::as_slice);
                for &x in self.small_postings[v].iter().chain(bigs) {
                    f(x, b as u32);
                }
            }
            for rec in &self.bigs {
                for (w, &word) in rec.bm.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        f(rec.ord, (w << 6) as u32 | bits.trailing_zeros());
                        bits &= bits - 1;
                    }
                }
            }
            for &(x, pair) in &self.pairs2 {
                for v in pair {
                    let b = self.hub_bit[v as usize];
                    if b != u32::MAX {
                        f(x, b);
                    }
                }
            }
        };
        let mut off = vec![0u32; count + 1];
        visit(&mut |x, _| off[x as usize + 1] += 1);
        for i in 0..count {
            off[i + 1] += off[i];
        }
        let mut rows = vec![0u32; off[count] as usize];
        let mut cursor = off.clone();
        visit(&mut |x, b| {
            rows[cursor[x as usize] as usize] = b;
            cursor[x as usize] += 1;
        });
        // Hub ids are assigned for good; only extraction's `hub_inv`
        // still maps them back.
        self.hub_bit = Vec::new();
        self.big_postings = Vec::new();
        HubRows {
            hubs: self.hub_inv.len(),
            off,
            rows,
        }
    }

    /// Builds the ordinal-indexed member CSR for the small cliques by
    /// transposing the per-vertex posting lists, plus the
    /// ordinal-sorted big-record index — the member stores the
    /// community-driven extraction reads. The posting lists are freed
    /// afterwards: all counting passes are done by the time this runs.
    fn build_extract_index(&mut self, sizes: &[u32]) {
        let count = sizes.len();
        let mut off = vec![0u32; count + 1];
        for (i, &s) in sizes.iter().enumerate() {
            if (3..=SMALL_FULL as u32).contains(&s) {
                off[i + 1] = s;
            }
        }
        for i in 0..count {
            off[i + 1] += off[i];
        }
        let mut mem = vec![0 as NodeId; off[count] as usize];
        let mut cursor = off.clone();
        for (v, posts) in self.small_postings.iter().enumerate() {
            for &x in posts {
                mem[cursor[x as usize] as usize] = v as NodeId;
                cursor[x as usize] += 1;
            }
        }
        self.small_off = off;
        self.small_mem = mem;
        self.small_postings = Vec::new();
        self.big_ord_idx = self
            .bigs
            .iter()
            .enumerate()
            .map(|(bi, r)| (r.ord, bi as u32))
            .collect();
        self.big_ord_idx.sort_unstable();
    }

    /// The fallback big×big scan (hub space > 256): 256-bit member
    /// blooms guard an early-abort sorted merge — a member of x absent
    /// from y contributes at most one bit to `sig(x) & !sig(y)`, so the
    /// stray-bit test never rejects a qualifying pair (big×small was
    /// already counted by the streaming mixed scan).
    fn finish_pairs_fallback(&mut self) {
        let nb = self.big_ords.len();
        if nb < 2 {
            return;
        }
        let mut order: Vec<usize> = (0..nb).collect();
        let size_of = |bi: usize| self.big_offsets[bi + 1] - self.big_offsets[bi];
        order.sort_unstable_by_key(|&bi| (std::cmp::Reverse(size_of(bi)), self.big_ords[bi]));
        let sigs: Vec<[u64; 4]> = order
            .iter()
            .map(|&bi| {
                let mut sig = [0u64; 4];
                for &v in &self.big_members[self.big_offsets[bi]..self.big_offsets[bi + 1]] {
                    let h = (v as u64).wrapping_mul(FIB) >> 56;
                    sig[(h >> 6) as usize] |= 1u64 << (h & 63);
                }
                sig
            })
            .collect();
        for xi in 1..nb {
            let bx = order[xi];
            let members = &self.big_members[self.big_offsets[bx]..self.big_offsets[bx + 1]];
            let s = members.len();
            let sx = sigs[xi];
            for (yi, sy) in sigs[..xi].iter().enumerate() {
                let stray = (sx[0] & !sy[0]).count_ones()
                    + (sx[1] & !sy[1]).count_ones()
                    + (sx[2] & !sy[2]).count_ones()
                    + (sx[3] & !sy[3]).count_ones();
                if stray as usize > MISS_DEPTH {
                    continue;
                }
                let by = order[yi];
                let other = &self.big_members[self.big_offsets[by]..self.big_offsets[by + 1]];
                if let Some(d) = missing_at_most(members, other, MISS_DEPTH) {
                    let level = (s - d + 1).min(s).max(2);
                    self.strata
                        .push(level, (self.big_ords[by], self.big_ords[bx]));
                }
            }
        }
    }

    /// The finish-time pair detection deferred by the streaming pass:
    /// big×big and big×small on the hub-bitmap fast path, or the
    /// bloom-guarded big×big scan in fallback, over the compressed big
    /// records. `sizes` is the per-ordinal clique size array.
    ///
    /// Only cliques of ≥ 3 members can overlap in `m ≥ 3` (below that
    /// the keys own the pair), and every member of a big clique lives in
    /// the *hub vertex set* — tiny on Internet substrates (203 ASes on
    /// the medium preset, against 10,000 nodes): hub cores nest, so the
    /// big cliques are rungs of a ladder over the same few hub vertices.
    /// *Big×big* records every near-containment (the smaller side
    /// missing at most [`MISS_DEPTH`] of its own members); *big×small*
    /// tests every small with ≥ 3 hub members against every big. What
    /// this leaves out — a big×big pair with a mid-range overlap — is
    /// where Internet substrates are densest in *chains* of
    /// near-containments and hubby smalls, which is why the divergence
    /// oracle measures zero on every preset.
    ///
    /// A linear prologue (descending-size big sort, transposed per-hub
    /// bitmaps) runs on the caller; `hubs` is the hub-membership CSR
    /// ([`Self::hub_rows`]). The two
    /// quadratic scans then drain two [`ChunkQueue`]s over `workers`
    /// pool workers: big×big over sorted-big rows, big×small over
    /// ordinals. Hits union into the per-level [`ConcurrentDsu`]s of
    /// `level_cdsus`, over size ranks ([`Self::by_size`]): a level's
    /// partition is fully determined by its pair set, whatever the
    /// interleaving, so the result is the same at every worker count.
    ///
    /// The > 256-hub fallback runs on the caller alone: it is rare and
    /// emits into ordered strata, which parallel workers could not do
    /// without a reassembly stage of their own.
    fn finish_pairs(
        &mut self,
        sizes: &[u32],
        k_max: usize,
        workers: usize,
        cancel: Option<&CancelToken>,
        hubs: &HubRows,
    ) {
        if self.fallback {
            self.finish_pairs_fallback();
            return;
        }
        if self.bigs.is_empty() {
            return;
        }
        self.bigs
            .sort_unstable_by_key(|r| (std::cmp::Reverse(r.size), r.ord));
        let nb = self.bigs.len();
        let w_big = nb.div_ceil(64);
        // Transposed index — per hub vertex, a bitmap over the sorted
        // bigs — shared by the big×big and big×small scans below.
        let mut trans = vec![0u64; self.hub_inv.len() * w_big];
        for (bi, rec) in self.bigs.iter().enumerate() {
            for w in 0..4 {
                let mut bits = rec.bm[w];
                while bits != 0 {
                    let b = (w << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    trans[b * w_big + (bi >> 6)] |= 1u64 << (bi & 63);
                }
            }
        }
        let count = sizes.len();
        // Levels never exceed the largest clique size, so `k_max + 2`
        // slots cover every detection level with room for the `.min(s)`
        // clamp's upper bound.
        self.level_cdsus = std::iter::repeat_with(OnceLock::new)
            .take(k_max + 2)
            .collect();
        // Every hit at level L joins two cliques of ≥ L members, so
        // level L's partition spans only the first n_L size ranks. The
        // sorted bigs are ranks `0..nb` (same order), so only smalls
        // need a rank lookup.
        let mut by_size: Vec<u32> = (0..count as u32).collect();
        by_size.sort_by_key(|&x| std::cmp::Reverse(sizes[x as usize]));
        debug_assert!(self.bigs.iter().zip(&by_size).all(|(r, &x)| r.ord == x));
        let mut rank = vec![0u32; count];
        for (r, &x) in by_size.iter().enumerate() {
            rank[x as usize] = r as u32;
        }
        self.by_size = by_size;

        let bigs = &self.bigs[..];
        let cdsus = &self.level_cdsus[..];
        let trans = &trans[..];
        let by_size = &self.by_size[..];
        let dsu_at = |level: usize| {
            cdsus[level].get_or_init(|| {
                ConcurrentDsu::new(
                    by_size.partition_point(|&x| sizes[x as usize] as usize >= level),
                )
            })
        };
        let queue_bb = ChunkQueue::new(nb, PAIRS_BIG_CHUNK);
        let queue_bs = ChunkQueue::new(count, PAIRS_SMALL_CHUNK);
        Pool::global().run(workers, |_w| {
            let mut rows: Vec<&[u64]> = Vec::new();
            // Big×big, bit-sliced on the *miss* count: a qualifying
            // pair lacks at most `MISS_DEPTH` of x's hub rows, so per
            // candidate word a 3-bit saturating counter of absences —
            // kept in registers, rippled branch-free from the
            // complemented rows — replaces one AND+popcount row per
            // earlier big. Almost every word has all 64 candidates
            // saturate (miss ≥ 8) after a handful of rows, and the
            // sticky mask then short-circuits the rest of x's rows.
            let claim = || match cancel {
                Some(token) => queue_bb.claim_unless(token),
                None => queue_bb.claim(),
            };
            while let Some(range) = claim() {
                for xi in range {
                    if xi == 0 {
                        continue;
                    }
                    let s = bigs[xi].size as usize;
                    let w_words = xi.div_ceil(64);
                    rows.clear();
                    for w4 in 0..4 {
                        let mut bits = bigs[xi].bm[w4];
                        while bits != 0 {
                            let b = (w4 << 6) | bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            rows.push(&trans[b * w_big..][..w_words]);
                        }
                    }
                    debug_assert_eq!(rows.len(), s);
                    for w in 0..w_words {
                        let (mut c0, mut c1, mut c2, mut sat) = (0u64, 0u64, 0u64, 0u64);
                        for r in &rows {
                            let mut v = !r[w];
                            let t = c0 & v;
                            c0 ^= v;
                            v = t;
                            let t = c1 & v;
                            c1 ^= v;
                            v = t;
                            let t = c2 & v;
                            c2 ^= v;
                            v = t;
                            sat |= v;
                            if sat == u64::MAX {
                                // Every candidate in the word already
                                // misses ≥ 8 rows; no survivors.
                                break;
                            }
                        }
                        // Unsaturated candidates carry an exact 3-bit
                        // miss count; the `c2 & c1` term pre-cuts 6
                        // and 7 so only genuine d ≤ MISS_DEPTH = 5 bits
                        // survive to the (defensive) per-hit check.
                        let mut hits = !(sat | (c2 & c1));
                        if w == xi >> 6 {
                            hits &= (1u64 << (xi & 63)) - 1;
                        }
                        while hits != 0 {
                            let i = hits.trailing_zeros() as usize;
                            hits &= hits - 1;
                            let yi = (w << 6) | i;
                            let d =
                                (((c0 >> i) & 1) | (((c1 >> i) & 1) << 1) | (((c2 >> i) & 1) << 2))
                                    as usize;
                            if d > MISS_DEPTH {
                                continue;
                            }
                            let level = (s - d + 1).min(s).max(2);
                            dsu_at(level).union(yi as u32, xi as u32);
                        }
                    }
                }
            }
            // Big×small, over the transposed per-hub-vertex bitmaps,
            // for the hubby smalls (≥ 3 hub members; the size-2 rows
            // have fewer, the big rows are skipped).
            let claim = || match cancel {
                Some(token) => queue_bs.claim_unless(token),
                None => queue_bs.claim(),
            };
            while let Some(range) = claim() {
                for x in range {
                    let hub_bits = hubs.of(x as u32);
                    let s = sizes[x] as usize;
                    if hub_bits.len() < 3 || s > SMALL_FULL {
                        continue;
                    }
                    rows.clear();
                    rows.extend(
                        hub_bits
                            .iter()
                            .map(|&b| &trans[b as usize * w_big..][..w_big]),
                    );
                    if let [r0, r1, r2] = rows[..] {
                        // Exactly three hub members: m ≥ 3 forces m = 3
                        // and the hit mask is one three-way AND per word.
                        let level = 4.min(s).max(2);
                        let dsu = dsu_at(level);
                        let rx = rank[x];
                        for w in 0..w_big {
                            let mut hits = r0[w] & r1[w] & r2[w];
                            while hits != 0 {
                                let i = hits.trailing_zeros() as usize;
                                hits &= hits - 1;
                                let yi = (w << 6) | i;
                                dsu.union(yi as u32, rx);
                            }
                        }
                        continue;
                    }
                    for w in 0..w_big {
                        // Ripple-carry each row's 0/1 bits into four
                        // count registers; counts stay ≤ SMALL_FULL <
                        // 16, so four planes are exact and the top
                        // carry is always zero.
                        let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
                        for r in &rows {
                            let mut v = r[w];
                            let t = c0 & v;
                            c0 ^= v;
                            v = t;
                            let t = c1 & v;
                            c1 ^= v;
                            v = t;
                            let t = c2 & v;
                            c2 ^= v;
                            v = t;
                            c3 ^= v;
                        }
                        // count ≥ 3 ⟺ bit1∧bit0, or any higher plane bit.
                        let mut hits = c3 | c2 | (c1 & c0);
                        while hits != 0 {
                            let i = hits.trailing_zeros() as usize;
                            hits &= hits - 1;
                            let yi = (w << 6) | i;
                            let m = ((c0 >> i) & 1)
                                | (((c1 >> i) & 1) << 1)
                                | (((c2 >> i) & 1) << 2)
                                | (((c3 >> i) & 1) << 3);
                            let level = ((m as usize) + 1).min(s).max(2);
                            dsu_at(level).union(yi as u32, rank[x]);
                        }
                    }
                }
            }
        });
    }
}

/// Clique percolation of `g` (exact mode, on the calling thread): the
/// communities of every `k` from 2 to the largest clique size and their
/// tree links. Enumeration streams straight into the engine — one
/// pass, no clique list. [`percolate_parallel`] runs the same engine on
/// the worker pool and is bit-identical at every worker count.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
///
/// // Two triangles sharing the edge {1, 2}: one 3-clique community.
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// let result = cpm::percolate(&g);
/// assert_eq!(result.k_max(), Some(3));
/// let level3 = result.level(3).unwrap();
/// assert_eq!(level3.communities.len(), 1);
/// assert_eq!(level3.communities[0].members, vec![0, 1, 2, 3]);
/// ```
pub fn percolate(g: &Graph) -> CpmResult {
    percolate_parallel(g, 1, Mode::Exact)
}

/// The exact k-clique communities of a single level: [`percolate`]
/// projected onto level `k` ([`CpmResult::cover`]). Returns sorted
/// member lists, sorted; empty when `k < 2` or no clique reaches size
/// `k`.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
///
/// let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
/// let comms = cpm::percolate_at(&g, 3);
/// assert_eq!(comms, vec![vec![0, 1, 2], vec![2, 3, 4]]);
/// ```
pub fn percolate_at(g: &Graph, k: usize) -> Vec<Vec<NodeId>> {
    match u32::try_from(k) {
        Ok(k) if k >= 2 => percolate(g).cover(k),
        _ => Vec::new(),
    }
}

/// Percolation in `mode` with pool-parallel enumeration *and* finish:
/// producers enumerate work-stolen chunks and fold them into the
/// engine in sequential order, then the finish-time phases (pair
/// detection, sweep, extraction) chunk over the same pool —
/// bit-identical to [`percolate`] (for [`Mode::Exact`]) at every worker
/// count.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use cpm::Mode;
///
/// let g = Graph::complete(6);
/// assert_eq!(cpm::percolate(&g), cpm::percolate_parallel(&g, 4, Mode::Exact));
/// ```
pub fn percolate_parallel(g: &Graph, threads: impl Into<Threads>, mode: Mode) -> CpmResult {
    let threads = entry_threads(threads.into(), g);
    let mut p = FusedPercolator::new(g.node_count(), mode);
    cliques::consume_max_cliques(g, threads, Kernel::Auto, &CancelToken::new(), &mut p)
        .expect("a fresh token never trips");
    p.finish_parallel(threads)
}

/// [`percolate_parallel`] with the [`FusedPhases`] wall-clock breakdown
/// — the hook behind the bench fused phase rows.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn percolate_fused_phases_parallel(
    g: &Graph,
    threads: impl Into<Threads>,
    mode: Mode,
) -> (CpmResult, FusedPhases) {
    percolate_fused_phases_probed(g, threads, mode, &mut |_| {})
}

/// [`percolate_fused_phases_parallel`] reporting each phase transition
/// (`"consume"`, `"pairs"`, `"sweep"`, `"extract"`) to `observe` as the
/// named phase *starts* — the hook behind the bench's per-phase peak
/// memory attribution.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn percolate_fused_phases_probed(
    g: &Graph,
    threads: impl Into<Threads>,
    mode: Mode,
    observe: &mut dyn FnMut(&'static str),
) -> (CpmResult, FusedPhases) {
    let threads = entry_threads(threads.into(), g);
    let mut phases = FusedPhases::default();
    let mut p = FusedPercolator::new(g.node_count(), mode);
    observe("consume");
    let t = Instant::now();
    cliques::consume_max_cliques(g, threads, Kernel::Auto, &CancelToken::new(), &mut p)
        .expect("a fresh token never trips");
    phases.consume = t.elapsed();
    let result = p
        .finish_impl(threads, None, &mut phases, observe)
        .expect("uncancellable finish cannot be cancelled");
    (result, phases)
}

/// [`percolate_parallel`] with an explicit enumeration [`Kernel`] and a
/// [`CancelToken`] polled between emitted chunks and at every
/// finish-time chunk claim, for the CLI and the daemon: cancellation
/// leaves the pool reusable and discards the partial consumer. Every
/// kernel yields a bit-identical result.
///
/// # Errors
///
/// Returns [`Cancelled`] once the token trips.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
pub fn percolate_fused_cancellable(
    g: &Graph,
    threads: impl Into<Threads>,
    kernel: Kernel,
    cancel: &CancelToken,
    mode: Mode,
) -> Result<CpmResult, Cancelled> {
    let threads = entry_threads(threads.into(), g);
    let mut p = FusedPercolator::new(g.node_count(), mode);
    cliques::consume_max_cliques(g, threads, kernel, cancel, &mut p)?;
    p.finish_cancellable(threads, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divergence;
    use crate::naive::naive_communities;
    use proptest::prelude::*;

    fn random_graph(n: u32, p: f64, seed: u64) -> Graph {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = asgraph::GraphBuilder::with_nodes(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.random_bool(p) {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }

    /// The sequential engine with an explicit kernel.
    fn run(g: &Graph, kernel: Kernel, mode: Mode) -> CpmResult {
        let mut p = FusedPercolator::new(g.node_count(), mode);
        cliques::consume_max_cliques(g, 1, kernel, &CancelToken::new(), &mut p)
            .expect("a fresh token never trips");
        p.finish()
    }

    /// Every community's parent at the level below contains it, and
    /// every community's clique ids are sorted, non-empty ordinals.
    #[track_caller]
    fn assert_well_formed(r: &CpmResult) {
        for w in r.levels.windows(2) {
            let (lower, upper) = (&w[0], &w[1]);
            for c in &upper.communities {
                let p = c.parent.expect("every community has a parent below k_max");
                let parent = &lower.communities[p as usize];
                assert!(c.members.iter().all(|&v| parent.contains(v)));
            }
        }
        for level in &r.levels {
            for c in &level.communities {
                assert!(!c.clique_ids.is_empty());
                assert!(c.clique_ids.windows(2).all(|w| w[0] < w[1]));
                assert!(c
                    .clique_ids
                    .iter()
                    .all(|&id| (id as usize) < r.clique_count));
            }
        }
    }

    /// Both modes agree with the literal definition at every level (and
    /// one above the top), [`percolate_at`] projects the same covers,
    /// and the almost result refines the exact one with zero
    /// divergence.
    #[track_caller]
    fn assert_matches_naive(g: &Graph) {
        let exact = run(g, Kernel::Auto, Mode::Exact);
        let almost = run(g, Kernel::Auto, Mode::Almost);
        assert_well_formed(&exact);
        assert_well_formed(&almost);
        assert!(divergence(&exact, &almost).is_zero());
        assert_eq!(exact.clique_count, cliques::max_cliques(g).len());
        for k in 2..=exact.k_max().unwrap_or(1) as usize + 1 {
            let expected = naive_communities(g, k);
            for (mode, r) in [(Mode::Exact, &exact), (Mode::Almost, &almost)] {
                assert_eq!(r.cover(k as u32), expected, "{mode} k = {k}");
            }
            assert_eq!(percolate_at(g, k), expected, "single k = {k}");
        }
    }

    /// Every level in `mode` against covers known by construction (the
    /// literal definition is too slow on K15+).
    #[track_caller]
    fn assert_covers(g: &Graph, mode: Mode, expected: &[(usize, Vec<Vec<NodeId>>)]) {
        let r = run(g, Kernel::Auto, mode);
        assert_well_formed(&r);
        assert_eq!(r.k_max(), expected.last().map(|(k, _)| *k as u32));
        for (k, cover) in expected {
            assert_eq!(&r.cover(*k as u32), cover, "{mode} k = {k}");
        }
    }

    #[test]
    fn fused_matches_definition_on_random_graphs() {
        for (n, p, seed) in [(40, 0.25, 1), (60, 0.15, 9), (80, 0.1, 4), (30, 0.5, 7)] {
            assert_matches_naive(&random_graph(n, p, seed));
        }
    }

    #[test]
    fn fused_handles_big_cliques() {
        // Cliques above SMALL_FULL force the hub-bitmap big paths:
        // three K20s chained with 4-vertex overlaps, plus a halo of
        // triangles {2, v, v+1} (v = 52..57) and the edge {58, 59}.
        let mut b = asgraph::GraphBuilder::with_nodes(60);
        for base in [0u32, 16, 32] {
            for u in base..base + 20 {
                for v in (u + 1)..base + 20 {
                    b.add_edge(u, v);
                }
            }
        }
        for v in 52..59u32 {
            b.add_edge(v, v + 1);
            b.add_edge(2, v);
        }
        let g = b.build();
        let range = |a: u32, b: u32| (a..b).collect::<Vec<NodeId>>();
        let mut halo = vec![2];
        halo.extend(52..59);
        let mut expected = vec![
            (2, vec![range(0, 60)]),
            (3, vec![range(0, 52), halo]),
            (4, vec![range(0, 52)]),
            (5, vec![range(0, 52)]),
        ];
        for k in 6..=20 {
            expected.push((k, vec![range(0, 20), range(16, 36), range(32, 52)]));
        }
        assert_covers(&g, Mode::Exact, &expected);
        // Almost mode's documented blind spot: a big×big overlap missing
        // more than MISS_DEPTH members of the smaller side (4 of 20
        // shared here) splits k = 4 and 5, where exact merges.
        for (k, cover) in &mut expected[2..4] {
            assert!(*k == 4 || *k == 5);
            *cover = vec![range(0, 20), range(16, 36), range(32, 52)];
        }
        assert_covers(&g, Mode::Almost, &expected);
    }

    #[test]
    fn fused_handles_hub_overflow_fallback() {
        // 25 K15 blocks, consecutive blocks sharing 3 vertices: 303
        // distinct big-clique members blow the 256-hub budget, so the
        // almost engine must switch to the fallback arena mid-stream
        // (retro-counting the bigs consumed before the switch).
        let blocks = 25u32;
        let n = 12 * (blocks - 1) + 15;
        let mut b = asgraph::GraphBuilder::with_nodes(n as usize);
        for i in 0..blocks {
            let base = 12 * i;
            for u in base..base + 15 {
                for v in (u + 1)..base + 15 {
                    b.add_edge(u, v);
                }
            }
        }
        let g = b.build();
        let all: Vec<NodeId> = (0..n).collect();
        let each: Vec<Vec<NodeId>> = (0..blocks)
            .map(|i| (12 * i..12 * i + 15).collect())
            .collect();
        let mut expected: Vec<(usize, Vec<Vec<NodeId>>)> =
            (2..=4).map(|k| (k, vec![all.clone()])).collect();
        expected.extend((5..=15).map(|k| (k, each.clone())));
        assert_covers(&g, Mode::Exact, &expected);
        // Almost mode: the 3-vertex big×big overlaps are out of
        // MISS_DEPTH reach, so k = 4 splits into the blocks (the edge
        // keys still join them at k ≤ 3).
        expected[2].1 = each;
        assert_covers(&g, Mode::Almost, &expected);
    }

    #[test]
    fn fused_is_identical_across_kernels() {
        let g = random_graph(70, 0.12, 21);
        for mode in [Mode::Exact, Mode::Almost] {
            let auto = run(&g, Kernel::Auto, mode);
            for kernel in [Kernel::Bitset, Kernel::Merge] {
                assert_eq!(auto, run(&g, kernel, mode), "{mode} kernel {kernel}");
            }
        }
    }

    #[test]
    fn degenerate_graphs() {
        let empty = Graph::from_edges(0, std::iter::empty::<(u32, u32)>());
        let isolated = Graph::from_edges(3, std::iter::empty::<(u32, u32)>());
        let one_edge = Graph::from_edges(2, [(0, 1)]);
        for mode in [Mode::Exact, Mode::Almost] {
            let r = run(&empty, Kernel::Auto, mode);
            assert_eq!(r.clique_count, 0);
            assert!(r.levels.is_empty());

            // Isolated vertices are maximal 1-cliques: counted, but no
            // level reaches k = 2.
            let r = run(&isolated, Kernel::Auto, mode);
            assert_eq!(r.clique_count, 3);
            assert!(r.levels.is_empty());
            assert!(r.cover(2).is_empty());

            let r = run(&one_edge, Kernel::Auto, mode);
            assert_eq!(r.clique_count, 1);
            assert_eq!(r.cover(2), vec![vec![0, 1]]);
            assert!(r.cover(0).is_empty());
            assert!(r.cover(1).is_empty());
        }
        assert!(percolate_at(&isolated, 2).is_empty());
        assert!(percolate_at(&one_edge, 0).is_empty());
        assert!(percolate_at(&one_edge, 1).is_empty());
    }

    #[test]
    fn phases_account_for_the_whole_run() {
        let g = random_graph(50, 0.2, 3);
        let (result, phases) = percolate_fused_phases_parallel(&g, 1, Mode::Almost);
        assert_eq!(result, run(&g, Kernel::Auto, Mode::Almost));
        assert!(phases.consume > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let g = Graph::complete(3);
        let _ = percolate_parallel(&g, 0, Mode::Exact);
    }

    #[test]
    fn auto_never_fans_out_below_the_percolate_crossover() {
        // Sub-crossover substrate (sparse300-sized): auto must snap to
        // one worker at the entry point — in both modes, which run one
        // engine — while fixed counts are always honoured and a
        // super-crossover graph keeps auto's per-phase sizing.
        let small = random_graph(300, 0.05, 7);
        assert!(small.edge_count() < 2 * AUTO_EDGES_PER_WORKER);
        assert_eq!(entry_threads(Threads::Auto, &small), Threads::Fixed(1));
        assert_eq!(entry_threads(Threads::Fixed(4), &small), Threads::Fixed(4));
        let big = random_graph(300, 0.4, 7);
        assert!(big.edge_count() >= 2 * AUTO_EDGES_PER_WORKER);
        if exec::available_parallelism() > 1 {
            assert_eq!(entry_threads(Threads::Auto, &big), Threads::Auto);
        } else {
            // One hardware thread: auto resolves to one worker above
            // the crossover too, and the clamp just makes it explicit.
            assert_eq!(entry_threads(Threads::Auto, &big), Threads::Fixed(1));
        }
    }

    #[test]
    fn small_full_is_the_largest_fully_countable_size() {
        // SMALL_FULL is exactly the largest size whose every binomial
        // stays under the cap — the size class whose pairwise overlaps
        // the counting pass can afford to resolve exactly.
        assert!((1..=SMALL_FULL).all(|l| binomial(SMALL_FULL, l) <= SUBSET_CAP));
        assert!(binomial(SMALL_FULL + 1, SMALL_FULL.div_ceil(2)) > SUBSET_CAP);
    }

    #[test]
    fn key_gates_follow_the_emission_budget() {
        // The streaming vertex/edge key gates are the emission gate
        // evaluated at l = 1 and l = 2; nothing above KEY_MAX_L is keyed.
        for s in 0..=200usize {
            assert_eq!(emits(s, 1), (1..=VERTEX_KEY_MAX_S).contains(&s), "s = {s}");
            assert_eq!(emits(s, 2), (2..=EDGE_KEY_MAX_S).contains(&s), "s = {s}");
            assert!(!emits(s, KEY_MAX_L + 1), "s = {s}");
        }
    }

    #[test]
    fn missing_at_most_stops_past_the_budget() {
        assert_eq!(missing_at_most(&[1, 2, 3], &[1, 2, 3, 4], 0), Some(0));
        assert_eq!(missing_at_most(&[1, 5, 9], &[1, 2, 3], 2), Some(2));
        assert_eq!(missing_at_most(&[1, 5, 9], &[1, 2, 3], 1), None);
        assert_eq!(missing_at_most(&[], &[1], 0), Some(0));
    }

    /// Small random soups keep proptest throughput high while still
    /// exercising every streaming gate (vertex keys, edge keys, small
    /// counting) — the fixtures above pin the big-clique paths.
    fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((0..n, 0..n), 0..max_edges)
    }

    proptest! {
        /// Both modes ≡ the literal definition on random graphs, every
        /// level, and [`percolate_at`] projects the same covers.
        #[test]
        fn fused_matches_definition_on_soups(edges in edge_soup(16, 60)) {
            let g = Graph::from_edges(16, edges);
            for mode in [Mode::Exact, Mode::Almost] {
                let r = run(&g, Kernel::Auto, mode);
                for k in 2..=r.k_max().unwrap_or(1) as usize + 1 {
                    let expected = naive_communities(&g, k);
                    prop_assert_eq!(&r.cover(k as u32), &expected, "mode {} k {}", mode, k);
                    if mode == Mode::Exact {
                        prop_assert_eq!(&percolate_at(&g, k), &expected, "single k {}", k);
                    }
                }
            }
        }
    }
}
