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
//! definition ([`crate::naive`]), and [`crate::naive::clique_reduction`]
//! states the reduction itself, the reference of
//! `crates/cpm/tests/certify.rs` up to the largest presets.
//!
//! **One descending sweep.** As `k` decreases, the set of active cliques
//! (size ≥ k) and active overlaps (≥ k−1) only grows, so a single
//! descending-`k` pass over one union–find yields the communities of
//! every level — and the component that absorbs a level-`k` community at
//! level `k−1` is its unique parent in the k-clique community tree
//! (Theorem 1 of the paper), so the tree falls out of the sweep.
//!
//! **The sink records, the finish counts.** The enumeration driver
//! ([`cliques::consume_max_cliques`]) streams cliques straight into
//! [`FusedPercolator`] in one deterministic order, and no clique list
//! ever exists. The sink keeps only what needs that order: ordinals and
//! sizes, the level-2 vertex keys (a per-vertex last-owner chain), the
//! level-3 edge keys of the small cliques (a persistent last-owner table
//! keyed by the packed edge — chains and first-seen stars have the same
//! connected components), per-vertex posting lists of the small
//! cliques, and each big clique as its ascending row of *hub ids*: every
//! member of a big clique is a hub vertex, numbered in arrival order
//! with no cap, so one CSR of `u32` rows stores all of them. Kumpula et
//! al. fold each clique in as it arrives only to avoid keeping a clique
//! list; the posting lists and hub rows already stand in for that list,
//! and the work they feed gives the same partitions in any order. So
//! the heavy passes run in the pooled
//! [`finish`](FusedPercolator::finish): the big cliques' edge keys (per
//! hub pair, chained to the pair's last small owner), the exact
//! small×small overlap counting over the posting lists (split
//! across workers, as Pollner & Palla split it), and the big×big and
//! big×small prepasses over hub bitmaps `⌈hubs / 64⌉` words wide, built
//! from the same rows that extraction later decodes the big cliques'
//! members from. One store and one path serve every hub count: the
//! 35k-AS preset's 263 hubs run the same scans as the medium preset's
//! 201. Every source unions into one partition per *detection level*, a
//! [`ConcurrentDsu`] over the size ranks of the cliques active there:
//! the vertex and edge keys at levels 2 and 3, and every counted or
//! detected overlap `m ≥ 3` at `m + 1`. No pair list is kept. The
//! descending sweep merges exactly one partition per level, and its
//! persistent union–find carries every detection to all lower levels
//! for free. That is also why a clique joins a component of bigs once
//! rather than every big it hits. Big×big
//! keeps each level's partition cumulative (every big×big union at that
//! level or above), so where a probe big is already joined at its own
//! size to a 64-big bitmap word that is one component, it skips the
//! word, and where it is joined only lower, one union at the level of
//! its nearest containment in the word stands for the rest. Big×small
//! runs after big×big: where all the bigs a small hits in one word are
//! already one component at the top hit's level, one union with that
//! component stands for all of them (`AlmostFused::finish_pairs`).
//!
//! **Exact = almost + certification.** Every union above is witnessed by
//! a real overlap, or by a chain of them at its level or above, so
//! [`Mode::Almost`] only ever *refines* the exact communities. The
//! clique pairs it does not count are:
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
//! snapshot. Its candidates are the active cliques with ≥ k−1 hub
//! members, grouped by component, each component with the distinct hubs
//! its candidates hold (a sparse list). The grouping is carried down the
//! levels: the partition only coarsens, so each level re-roots the
//! components of the level above through `find`, merges those that have
//! joined (each keeps all of its hubs and candidates), and looks up only
//! the cliques that became candidates at k. Components meet through the
//! hubs they share: a per-hub list of the level's components lets every
//! component with a big count its partners' shared hubs, and only
//! partners at ≥ k−1 are paired. A pair keeps, on each side, the
//! candidates with ≥ k−1 hubs in the other's set, reading the side with
//! fewer candidates first; those clique pairs with a big side are
//! tested by hub bitmap, and the first hit unions the pair. No fixed
//! point is needed: adjacency is a relation between cliques, so every
//! missing union already joins two of the level's original candidate
//! components. So a level costs what changed since the level above plus
//! the sum over hubs of the components sharing them, and the
//! certifier's memory follows the hub rows, not components × hubs.
//!
//! The finish ([`FusedPercolator::finish`]) runs on the worker pool: its
//! phases — pair detection, the descending-`k` partition merges, member
//! extraction — scale with workers while staying bit-identical at every
//! worker count; see the determinism notes on
//! `FusedPercolator::finish_impl`. Clique ids are stream ordinals
//! (positions in the deterministic sequential enumeration order), so
//! the result is also bit-identical across kernels.

use crate::dsu::Dsu;
use crate::dsu_concurrent::ConcurrentDsu;
use crate::mode::Mode;
use crate::result::{canonical_members, Community, CpmResult, KLevel};
use asgraph::{Graph, NodeId};
use cliques::kclique::binomial;
use cliques::{CliqueConsumer, Kernel};
use exec::{CancelToken, Cancelled, ChunkQueue, Pool, Threads};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Wall-clock attribution of one fused percolation, for the bench
/// per-phase rows: `consume` covers enumeration plus the sink's
/// recording (they are one pass), `pairs` the finish-time pair
/// detection, `sweep` the descending-`k` unions (with exact mode's
/// per-level certification), `extract` level snapshots and member
/// extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedPhases {
    /// Enumeration fused with the sink's per-clique recording (keys,
    /// posting lists, hub rows).
    pub consume: std::time::Duration,
    /// Finish-time pair detection: the big cliques' edge keys, the
    /// overlap-counting pass and the big×big / big×small prepasses.
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
/// small clique gets its overlap counted exactly, by the finish's
/// counting pass, whose posting lists hold small cliques only — hub
/// posting lists are dominated by large cliques, so the restriction
/// turns the quadratic pairwise phase into a cache-resident pass an
/// order of magnitude cheaper than counting every pair.
pub const SMALL_FULL: usize = 14;

/// The per-level key emission bound: shared vertices (`l = 1`, exact
/// `k = 2` components) and shared edges (`l = 2`, exact `k = 3`
/// components) are keyed for every clique. Higher subset sizes are
/// mostly-unique keys — all cost, no sharing — so everything from
/// `k = 4` up is covered by the finish's overlap counting and big-clique
/// prepasses instead.
pub const KEY_MAX_L: usize = 2;

/// Fibonacci hashing's multiplier: the top bits of `key × FIB` spread
/// consecutive keys evenly over the edge table's slots.
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

/// Ranks claimed per queue chunk while the sweep merges one level's
/// partition into its concurrent union–find. A rank costs a `find` and
/// at most one union, a handful of atomic ops, so chunks are coarse to
/// keep the shared counter out of the way.
pub const UNION_CHUNK: usize = 2048;

/// Below this many ranks a level's partition is merged by worker 0
/// alone: coordinating the team costs more than the unions.
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

/// `Threads::Auto` grain of the per-clique finish passes (the big
/// cliques' edge keys, overlap counting, member extraction): clique
/// ordinals per worker before fan-out pays.
const FUSED_AUTO_CLIQUES_PER_WORKER: usize = 4_096;

/// Persistent open-addressed `edge → last owner` table. The engine
/// only ever has *one* edge-keyed level (k = 3), so a single persistent
/// table with last-owner *chaining* reaches the same connected
/// components as a per-level first-seen table would (a chain and a
/// first-seen star over the same key class connect the same cliques).
/// The key is the packed edge itself, `u << 32 | v` with `u < v` —
/// never 0, so 0 marks an empty slot — so distinct edges never share a
/// key and no union is ever invented. The default table is empty and
/// allocates on its first insert.
#[derive(Default)]
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

    /// The current owner of the edge `{u, v}` (`u < v`), if any.
    fn get(&self, u: NodeId, v: NodeId) -> Option<u32> {
        debug_assert!(u < v);
        if self.slots.is_empty() {
            return None;
        }
        let key = (u as u64) << 32 | v as u64;
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let s = self.slots[i];
            if s.key == key {
                return Some(s.owner);
            }
            if s.key == 0 {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        let len = (old.len() * 2).max(1 << 12);
        self.shift = 64 - len.trailing_zeros();
        self.slots = vec![EdgeSlot::default(); len];
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

/// The finish's one union target: per detection level `L`, a
/// partition over the *size ranks* `0..n_L` of the cliques active at
/// `L` (both cliques of a level-`L` pair have at least `L` members).
/// Every source unions into the partition of its level — the folded
/// key DSUs at 2 and 3, the big cliques' edge keys at 3, big×big,
/// big×small and the counting pass at `m + 1` — and the sweep merges
/// exactly one partition per level. Pool workers union concurrently;
/// which unions they make may depend on the interleaving, but
/// [`ConcurrentDsu`]'s order-free min-id partition leaves each level
/// with the same components whatever it was. A level's partition is
/// created by whichever source first joins a pair there.
struct LevelPartitions {
    /// Size rank → ordinal: every ordinal by descending size, ties by
    /// ordinal, so the cliques of size ≥ `L` are the ranks `0..n_L`.
    by_size: Vec<u32>,
    /// Ordinal → size rank.
    rank: Vec<u32>,
    /// Per level `L`, `n_L`.
    len: Vec<u32>,
    dsus: Vec<OnceLock<ConcurrentDsu>>,
}

impl LevelPartitions {
    /// The rank order of `sizes` and one empty slot per level up to
    /// `k_max + 1` (room for big×small's `.min(s)` clamp).
    fn new(sizes: &[u32], k_max: usize) -> Self {
        // The sort is stable, so ties keep ordinal order.
        let mut by_size: Vec<u32> = (0..sizes.len() as u32).collect();
        by_size.sort_by_key(|&x| std::cmp::Reverse(sizes[x as usize]));
        let mut rank = vec![0u32; sizes.len()];
        for (r, &x) in by_size.iter().enumerate() {
            rank[x as usize] = r as u32;
        }
        let len = (0..k_max + 2)
            .map(|level| by_size.partition_point(|&x| sizes[x as usize] as usize >= level) as u32)
            .collect();
        LevelPartitions {
            by_size,
            rank,
            len,
            dsus: std::iter::repeat_with(OnceLock::new)
                .take(k_max + 2)
                .collect(),
        }
    }

    /// The partition of `level`, created on first use.
    fn dsu_at(&self, level: usize) -> &ConcurrentDsu {
        self.dsus[level].get_or_init(|| ConcurrentDsu::new(self.len[level] as usize))
    }

    /// Joins ordinals `a` and `b` at `level`.
    #[inline]
    fn union(&self, level: usize, a: u32, b: u32) {
        self.dsu_at(level)
            .union(self.rank[a as usize], self.rank[b as usize]);
    }
}

/// The engine state (see the module docs).
struct AlmostFused {
    /// Per-vertex last clique that emitted this vertex's key
    /// (`u32::MAX` = none yet); chains into `dsu2`.
    last2: Vec<u32>,
    /// Level-2 (vertex-key) components over clique ordinals, folded
    /// into the level-2 partition at finish ([`Self::fold_keys`]).
    dsu2: Dsu,
    /// Persistent edge-key table of the small cliques, chaining into
    /// `dsu3`; the finish chains the big cliques to its owners.
    edges: EdgeTable,
    /// Level-3 (edge-key) components over clique ordinals, folded like
    /// `dsu2`.
    dsu3: Dsu,
    /// Per-vertex posting lists of the *small* cliques
    /// (3 ≤ size ≤ [`SMALL_FULL`]), ascending — the finish's counting
    /// pass and the transposed member store for extraction.
    small_postings: Vec<Vec<u32>>,
    /// Size-2 cliques (ordinal, members) — active only at `k = 2`.
    pairs2: Vec<(u32, [NodeId; 2])>,
    /// Hub-id assignment (`u32::MAX` = not a hub), in hub-vertex
    /// *arrival* order and uncapped: every member of a big clique is a
    /// hub.
    hub_bit: Vec<u32>,
    hub_inv: Vec<NodeId>,
    /// The big cliques (more than [`SMALL_FULL`] members) in ordinal
    /// order, each as its ascending row of hub ids: a CSR that
    /// [`Self::hub_rows`] moves into the [`HubRows`].
    big_off: Vec<u32>,
    big_hubs: Vec<u32>,
    /// Transposed member store for extraction (ordinal-indexed CSR over
    /// the small cliques), built once at finish time from the posting
    /// lists — see [`Self::build_small_members`].
    small_off: Vec<u32>,
    small_mem: Vec<NodeId>,
}

impl AlmostFused {
    fn new(n: usize) -> Self {
        AlmostFused {
            last2: vec![u32::MAX; n],
            dsu2: Dsu::new(0),
            edges: EdgeTable::default(),
            dsu3: Dsu::new(0),
            small_postings: vec![Vec::new(); n],
            pairs2: Vec::new(),
            hub_bit: vec![u32::MAX; n],
            hub_inv: Vec::new(),
            big_off: vec![0],
            big_hubs: Vec::new(),
            small_off: Vec::new(),
            small_mem: Vec::new(),
        }
    }

    /// Records clique `x` (the next ordinal): only what needs stream
    /// order happens here — the vertex-key and small edge-key chains,
    /// the small posting lists and the big cliques' hub rows. All
    /// overlap counting and the big cliques' edge keys wait for the
    /// finish ([`Self::count_overlaps`]).
    fn consume(&mut self, c: &[NodeId], x: u32) {
        let s = c.len();
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

        match s {
            0 | 1 => {}
            2 => self.pairs2.push((x, [c[0], c[1]])),
            _ if s <= SMALL_FULL => {
                // Level-3 edge keys of the small cliques: the member
                // pair itself (members are sorted, so `c[i] < v`);
                // last-owner chaining. Big cliques key theirs at finish.
                debug_assert!(emits(s, 2));
                for i in 0..s - 1 {
                    let u = c[i];
                    for &v in &c[i + 1..] {
                        if let Some(prev) = self.edges.exchange(u, v, x) {
                            self.dsu3.union(prev, x);
                        }
                    }
                }
                for &v in c {
                    self.small_postings[v as usize].push(x);
                }
            }
            _ => self.consume_big(c),
        }
    }

    /// Appends big clique `c`'s ascending row of hub ids, giving each
    /// first-seen member the next hub id.
    fn consume_big(&mut self, c: &[NodeId]) {
        let start = self.big_hubs.len();
        for &v in c {
            let mut b = self.hub_bit[v as usize];
            if b == u32::MAX {
                b = self.hub_inv.len() as u32;
                self.hub_bit[v as usize] = b;
                self.hub_inv.push(v);
            }
            self.big_hubs.push(b);
        }
        // Hub ids follow arrival, not vertex order.
        self.big_hubs[start..].sort_unstable();
        self.big_off.push(self.big_hubs.len() as u32);
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
/// of each clique's hub members. A big clique's row is its whole member
/// list, ascending (every big member is a hub); a small's is the part
/// of it inside the hub set. Built once at finish time
/// ([`AlmostFused::hub_rows`]) and the one big-clique store from then
/// on: the big cliques' edge keys, the big×big and big×small prepasses,
/// exact mode's certification and member extraction all read it.
struct HubRows {
    /// Hub vertices indexed: the width of a hub bitmap in bits.
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

/// Hub id → the ascending ordinals of the big cliques containing it
/// that emit edge keys ([`SMALL_FULL`] < size ≤ [`EDGE_KEY_MAX_S`]): a
/// CSR transposed from the [`HubRows`], for the big-clique edge pass
/// ([`AlmostFused::key_big_edges`]).
struct KeyedBigs {
    off: Vec<u32>,
    ords: Vec<u32>,
}

impl KeyedBigs {
    fn new(sizes: &[u32], hubs: &HubRows) -> Self {
        let (off, ords) = csr(hubs.hubs, |f| {
            for x in 0..sizes.len() as u32 {
                if (SMALL_FULL + 1..=EDGE_KEY_MAX_S).contains(&(sizes[x as usize] as usize)) {
                    for &b in hubs.of(x) {
                        f(b, x);
                    }
                }
            }
        });
        KeyedBigs { off, ords }
    }

    #[inline]
    fn of(&self, hub: usize) -> &[u32] {
        &self.ords[self.off[hub] as usize..self.off[hub + 1] as usize]
    }
}

/// A CSR over `rows` rows from the `(row, value)` entries `visit`
/// reports to its callback: offsets, then values. `visit` runs twice
/// (count, then fill), so each row keeps its values in report order.
fn csr(rows: usize, visit: impl Fn(&mut dyn FnMut(u32, u32))) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; rows + 1];
    visit(&mut |r, _| off[r as usize + 1] += 1);
    for i in 0..rows {
        off[i + 1] += off[i];
    }
    let mut values = vec![0u32; off[rows] as usize];
    let mut cursor = off.clone();
    visit(&mut |r, v| {
        values[cursor[r as usize] as usize] = v;
        cursor[r as usize] += 1;
    });
    (off, values)
}

/// The single-component words of the transposed big index, from the
/// quiescent big×big partitions `cdsus` (per level, over size ranks;
/// the first `nb` ranks are the bigs): per level `L` in
/// `4..=SMALL_FULL + 1` and word `w`, the representative rank of the
/// component holding all of the word's bigs once every big×big union
/// at `L` or above is in, or `u32::MAX` when they span more than one.
/// Folds the levels top-down into one union–find on the caller; `None`
/// once `cancel` trips.
fn single_component_words(
    cdsus: &[OnceLock<ConcurrentDsu>],
    nb: usize,
    cancel: Option<&CancelToken>,
) -> Option<Vec<Vec<u32>>> {
    let mut dsu = Dsu::new(nb);
    let mut reps = vec![Vec::new(); SMALL_FULL + 2];
    for level in (4..cdsus.len()).rev() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        if let Some(cd) = cdsus[level].get() {
            // Big×big joins bigs only, so past `nb` every rank is alone.
            for r in 1..cd.len().min(nb) as u32 {
                let root = cd.find(r);
                if root != r {
                    dsu.union(root, r);
                }
            }
        }
        if level <= SMALL_FULL + 1 {
            reps[level] = (0..nb as u32)
                .step_by(64)
                .map(|lo| {
                    let rep = dsu.find(lo);
                    let hi = (lo + 64).min(nb as u32);
                    if (lo + 1..hi).all(|r| dsu.find(r) == rep) {
                        rep
                    } else {
                        u32::MAX
                    }
                })
                .collect();
        }
    }
    Some(reps)
}

/// The big×big miss scan of one 64-big candidate word, bit-sliced: per
/// lane, a 3-bit counter of the probe's hub `rows` (each sliced to the
/// candidate words) that the candidate lacks, in the planes
/// `[c0, c1, c2]`. Every counter starts at `8 − limit`, so the carry
/// out of the top plane flags a lane in the returned mask as soon as it
/// has missed `limit` rows, and the scan stops once every lane is
/// flagged — after a handful of rows for almost every word. Lanes set
/// in `void` start flagged. An unflagged lane missed its counter minus
/// `8 − limit` rows.
#[inline]
fn miss_scan(rows: &[&[u64]], w: usize, limit: usize, void: u64) -> ([u64; 3], u64) {
    debug_assert!((1..=8).contains(&limit));
    let start = 8 - limit;
    let plane = |bit: usize| if start & bit != 0 { u64::MAX } else { 0 };
    let (mut c0, mut c1, mut c2, mut sat) = (plane(1), plane(2), plane(4), void);
    for r in rows {
        if sat == u64::MAX {
            break;
        }
        let mut v = !r[w];
        let t = c0 & v;
        c0 ^= v;
        v = t;
        let t = c1 & v;
        c1 ^= v;
        v = t;
        let t = c2 & v;
        c2 ^= v;
        sat |= t;
    }
    ([c0, c1, c2], sat)
}

/// A big×big worker's record of which 64-big words of the transposed
/// index are one component at each level of the cumulative partitions
/// (per level, over size ranks). Partitions only coarsen, so a word
/// found whole stays whole; a word found split is tested again only
/// once its level has merged since.
struct WordComponents {
    words: usize,
    /// Per `(level, word)`: the word's first rank once the word is one
    /// component, else `u32::MAX`.
    whole: Vec<u32>,
    /// Per `(level, word)`: the level's merge count when the word was
    /// last found split (`u32::MAX` = never tested).
    tested: Vec<u32>,
}

impl WordComponents {
    fn new(levels: usize, words: usize) -> Self {
        WordComponents {
            words,
            whole: vec![u32::MAX; levels * words],
            tested: vec![u32::MAX; levels * words],
        }
    }

    /// A rank of word `w` if its 64 bigs are one component of `dsu`, the
    /// partition of `level`, which has made `merges` real merges so far.
    /// A `Some` is always true; a `None` may be stale.
    fn whole(
        &mut self,
        level: usize,
        w: usize,
        dsu: Option<&ConcurrentDsu>,
        merges: u32,
    ) -> Option<u32> {
        let i = level * self.words + w;
        if self.whole[i] != u32::MAX {
            return Some(self.whole[i]);
        }
        let dsu = dsu?;
        if self.tested[i] == merges {
            return None;
        }
        // Take the count before testing, so a merge that races the test
        // forces the next one.
        self.tested[i] = merges;
        let lo = (w << 6) as u32;
        let root = dsu.find(lo);
        // Equal roots are a real join, whatever unions race the finds.
        if (1..64).all(|j| dsu.find(lo + j) == root) {
            self.whole[i] = lo;
            Some(lo)
        } else {
            None
        }
    }
}

/// Per small clique of the big×small scan, the highest level at which
/// it has already been joined to each representative: a union at level
/// `L` holds at every level below, so a second one at or under `L` is
/// redundant. Reset per clique through the touched list.
struct RepLevels {
    level: Vec<u8>,
    touched: Vec<u32>,
}

impl RepLevels {
    fn new(nb: usize) -> Self {
        RepLevels {
            level: vec![0; nb],
            touched: Vec::new(),
        }
    }

    /// Whether joining `rep` at `level` is new; records it if so.
    #[inline]
    fn first(&mut self, rep: u32, level: usize) -> bool {
        let seen = &mut self.level[rep as usize];
        if *seen as usize >= level {
            return false;
        }
        if *seen == 0 {
            self.touched.push(rep);
        }
        *seen = level as u8;
        true
    }

    fn clear(&mut self) {
        for rep in self.touched.drain(..) {
            self.level[rep as usize] = 0;
        }
    }
}

/// Exact mode's per-level certification pass (see the module docs):
/// every union the engine misses involves a big clique and shares only
/// hub vertices, so hub tests between the level's components find them
/// all. Runs on the sweep leader against the quiescent partition; the
/// unions it adds depend only on that partition, so the result stays
/// bit-identical at every worker count.
///
/// Each level pays for what changed since the level above. The
/// partition only coarsens as `k` descends, so last level's components
/// are re-rooted and merged, and only the candidates that became active
/// at `k` are looked up; components meet only through the hubs they
/// share.
struct Certifier<'h> {
    /// Every clique with a hub member, grouped by `top` = min(size, hub
    /// members + 1), ascending by ordinal within a group: `top` is the
    /// highest level at which the clique is active with ≥ k−1 hub
    /// members, so it becomes a candidate at level `top`.
    cands: Vec<u32>,
    /// `cands[by_top[t]..by_top[t + 1]]` are the cliques of `top` = t.
    by_top: Vec<u32>,
    /// The components of the last certified level that hold a
    /// candidate.
    comps: Vec<Component>,
    /// Every clique's hub members.
    hub: &'h HubRows,
    /// The largest big-clique size: above it no big clique is active,
    /// so no union can be missing.
    big_max: usize,
    /// Root ordinal → index in `comps`, valid where `stamp` equals
    /// `epoch`.
    comp_of_root: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Two hub bitmaps (`⌈hubs / 64⌉` words), zero between uses: a
    /// component's hub set and a clique's row.
    set: Vec<u64>,
    probe: Vec<u64>,
}

/// A component of the certifier's level: its candidates and the
/// distinct hubs they hold, both sparse.
struct Component {
    /// An ordinal of the component: its root when last grouped.
    root: u32,
    /// Whether a candidate is a big clique.
    big: bool,
    /// The candidates' hub ids, distinct.
    hubs: Vec<u32>,
    /// The candidates' ordinals.
    cands: Vec<u32>,
}

/// Sets the bits `ids` in the bitmap `bm`.
fn set_bits(bm: &mut [u64], ids: &[u32]) {
    for &b in ids {
        bm[(b >> 6) as usize] |= 1 << (b & 63);
    }
}

/// Zeroes the words of `bm` that hold the bits `ids`: once `ids` are the
/// only bits set, the bitmap is zero again.
fn clear_bits(bm: &mut [u64], ids: &[u32]) {
    for &b in ids {
        bm[(b >> 6) as usize] = 0;
    }
}

/// Appends to `hubs` the ids of `ids` not set in the bitmap `seen`,
/// setting them.
fn add_new(seen: &mut [u64], hubs: &mut Vec<u32>, ids: &[u32]) {
    for &b in ids {
        let (w, bit) = ((b >> 6) as usize, 1u64 << (b & 63));
        if seen[w] & bit == 0 {
            seen[w] |= bit;
            hubs.push(b);
        }
    }
}

/// Whether at least `need` of `row`'s hub ids are set in the hub bitmap
/// `bm`. Counts without branching, eight ids at a time, and stops at
/// the first eight that rule it out.
#[inline]
fn holds_at_least(row: &[u32], bm: &[u64], need: usize) -> bool {
    let Some(slack) = row.len().checked_sub(need) else {
        return false;
    };
    let mut misses = 0;
    for ids in row.chunks(8) {
        misses += ids
            .iter()
            .map(|&b| (!bm[(b >> 6) as usize] >> (b & 63) & 1) as usize)
            .sum::<usize>();
        if misses > slack {
            return false;
        }
    }
    true
}

impl<'h> Certifier<'h> {
    fn new(hub: &'h HubRows, sizes: &[u32], k_max: usize) -> Self {
        let count = sizes.len();
        let (by_top, cands) = csr(k_max + 1, |f| {
            for x in 0..count as u32 {
                let row = hub.of(x).len() as u32;
                if row > 0 {
                    f(sizes[x as usize].min(row + 1), x);
                }
            }
        });
        let big_max = sizes
            .iter()
            .map(|&s| s as usize)
            .filter(|&s| s > SMALL_FULL)
            .max()
            .unwrap_or(0);
        let width = hub.hubs.div_ceil(64);
        Certifier {
            cands,
            by_top,
            comps: Vec::new(),
            hub,
            big_max,
            comp_of_root: vec![0; count],
            stamp: vec![u32::MAX; count],
            epoch: 0,
            set: vec![0; width],
            probe: vec![0; width],
        }
    }

    /// Certifies level `k` of the quiescent sweep partition `dsu`:
    /// unions every component pair that a missed clique adjacency
    /// joins.
    fn certify_level(&mut self, sizes: &[u32], k: usize, dsu: &ConcurrentDsu) {
        if k > self.big_max {
            return;
        }
        self.regroup(sizes, k, dsu);
        if !self.comps.iter().any(|c| c.big) {
            return;
        }
        let need = k - 1;
        // Per hub, the components holding it. Components sharing fewer
        // than k−1 hubs hold no missed pair, so each component with a
        // big counts its partners' shared hubs through these lists and
        // pairs only with those at k−1 or more.
        let (off, by_hub) = csr(self.hub.hubs, |f| {
            for (c, comp) in self.comps.iter().enumerate() {
                for &b in &comp.hubs {
                    f(b, c as u32);
                }
            }
        });
        let mut shared = vec![0u32; self.comps.len()];
        let mut touched: Vec<u32> = Vec::new();
        for a in 0..self.comps.len() {
            if !self.comps[a].big {
                continue;
            }
            for &h in &self.comps[a].hubs {
                for &b in &by_hub[off[h as usize] as usize..off[h as usize + 1] as usize] {
                    if shared[b as usize] == 0 {
                        touched.push(b);
                    }
                    shared[b as usize] += 1;
                }
            }
            for &b in &touched {
                let b = b as usize;
                // Two components with bigs are paired once, from the
                // lower index.
                let partner = b != a && !(self.comps[b].big && b < a);
                if partner && shared[b] as usize >= need {
                    self.pair(sizes, need, a, b, dsu);
                }
                shared[b] = 0;
            }
            touched.clear();
        }
    }

    /// Brings `comps` to level `k`: re-roots last level's components,
    /// merging those the partition has joined since (each keeps all of
    /// its hubs and candidates), and folds in the candidates that
    /// became active at `k`.
    fn regroup(&mut self, sizes: &[u32], k: usize, dsu: &ConcurrentDsu) {
        self.epoch += 1;
        let mut comps: Vec<Component> = Vec::with_capacity(self.comps.len());
        let mut merged: Vec<u32> = Vec::new();
        for mut c in std::mem::take(&mut self.comps) {
            c.root = dsu.find(c.root);
            let Some(i) = self.index_of(c.root) else {
                self.claim(c.root, comps.len());
                comps.push(c);
                continue;
            };
            let into = &mut comps[i as usize];
            // Append the shorter candidate list to the longer.
            if into.cands.len() < c.cands.len() {
                std::mem::swap(&mut into.cands, &mut c.cands);
            }
            into.cands.append(&mut c.cands);
            into.hubs.append(&mut c.hubs);
            into.big |= c.big;
            merged.push(i);
        }
        merged.sort_unstable();
        merged.dedup();
        for i in merged {
            let hubs = &mut comps[i as usize].hubs;
            hubs.sort_unstable();
            hubs.dedup();
        }
        // The cliques that became candidates at `k`, by component, each
        // component's hub set in `self.set` while its cliques' hubs are
        // added, so that each is added once.
        let mut adds: Vec<(u32, u32)> = Vec::new();
        for i in self.by_top[k]..self.by_top[k + 1] {
            let x = self.cands[i as usize];
            let r = dsu.find(x);
            let i = self.index_of(r).unwrap_or_else(|| {
                self.claim(r, comps.len());
                comps.push(Component {
                    root: r,
                    big: false,
                    hubs: Vec::new(),
                    cands: Vec::new(),
                });
                comps.len() as u32 - 1
            });
            adds.push((i, x));
        }
        adds.sort_unstable();
        for run in adds.chunk_by(|p, q| p.0 == q.0) {
            let c = &mut comps[run[0].0 as usize];
            set_bits(&mut self.set, &c.hubs);
            for &(_, x) in run {
                c.cands.push(x);
                c.big |= is_big(sizes, x);
                // A component holding every hub gains none.
                if c.hubs.len() < self.hub.hubs {
                    add_new(&mut self.set, &mut c.hubs, self.hub.of(x));
                }
            }
            clear_bits(&mut self.set, &c.hubs);
        }
        self.comps = comps;
    }

    /// The index in `comps` of the component rooted at `r` at this
    /// level, once [`Self::claim`]ed.
    fn index_of(&self, r: u32) -> Option<u32> {
        (self.stamp[r as usize] == self.epoch).then(|| self.comp_of_root[r as usize])
    }

    fn claim(&mut self, r: u32, i: usize) {
        self.stamp[r as usize] = self.epoch;
        self.comp_of_root[r as usize] = i as u32;
    }

    /// The candidates of component `c` (only its bigs, or all) with at
    /// least `need` hubs in component `partner`'s hub set: only these
    /// can be adjacent to a clique of `partner`.
    fn near(
        &mut self,
        sizes: &[u32],
        need: usize,
        c: usize,
        partner: usize,
        big_only: bool,
    ) -> Vec<u32> {
        set_bits(&mut self.set, &self.comps[partner].hubs);
        let near = self.comps[c]
            .cands
            .iter()
            .copied()
            .filter(|&x| {
                (!big_only || is_big(sizes, x)) && holds_at_least(self.hub.of(x), &self.set, need)
            })
            .collect();
        clear_bits(&mut self.set, &self.comps[partner].hubs);
        near
    }

    /// Tests the near candidates of components `a` and `b` against each
    /// other and unions the first pair, with a big side, that shares
    /// ≥ `need` vertices: a big's members are all hubs, so its row
    /// against the other's counts the overlap exactly. Small×small pairs
    /// need no test, since the engine counts them exactly. The side with
    /// fewer candidates is read first: if it is empty the test ends, and
    /// if it has no big, only the other side's bigs are read.
    fn pair(&mut self, sizes: &[u32], need: usize, a: usize, b: usize, dsu: &ConcurrentDsu) {
        let (a, b) = if self.comps[a].cands.len() <= self.comps[b].cands.len() {
            (a, b)
        } else {
            (b, a)
        };
        let near_a = self.near(sizes, need, a, b, false);
        if near_a.is_empty() {
            return;
        }
        let big_only = !near_a.iter().any(|&x| is_big(sizes, x));
        let near_b = self.near(sizes, need, b, a, big_only);
        for &x in &near_a {
            let row = self.hub.of(x);
            set_bits(&mut self.probe, row);
            let hit = near_b.iter().find(|&&y| {
                (is_big(sizes, x) || is_big(sizes, y))
                    && holds_at_least(self.hub.of(y), &self.probe, need)
            });
            clear_bits(&mut self.probe, row);
            if let Some(&y) = hit {
                dsu.union(x, y);
                return;
            }
        }
    }
}

/// Whether clique `x` is big (more than [`SMALL_FULL`] members).
#[inline]
fn is_big(sizes: &[u32], x: u32) -> bool {
    sizes[x as usize] as usize > SMALL_FULL
}

/// Percolation as a clique sink: feed every maximal clique (sorted
/// members, each exactly once, deterministic order — the
/// [`cliques::consume_max_cliques`] driver guarantees this) to
/// [`consume`](CliqueConsumer::consume), then call
/// [`finish`](Self::finish) for the multi-level result; a single level
/// is its projection ([`CpmResult::cover`]). At no point does a clique
/// list exist: peak memory is the engine's working state.
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
        let x = self.sizes.len() as u32;
        self.sizes.push(clique.len() as u32);
        self.k_max = self.k_max.max(clique.len());
        self.engine.consume(clique, x);
    }

    /// Cliques consumed so far.
    pub fn clique_count(&self) -> usize {
        self.sizes.len()
    }

    /// The pair detection, the descending-`k` sweep and the member
    /// extraction, each chunked over up to `threads` workers of the
    /// persistent [`Pool`] ([`Threads::Auto`] resolves each phase
    /// against its own work volume; one worker runs inline on the
    /// caller). Bit-identical at every worker count.
    ///
    /// With a token, every chunk claim and level barrier polls it:
    /// workers stop taking work, run out through the job protocol (the
    /// pool stays reusable), the partially built result is discarded,
    /// and the call returns [`Cancelled`]. `None` polls nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] once the token trips; never without one.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is a fixed count of 0.
    pub fn finish(
        self,
        threads: impl Into<Threads>,
        cancel: Option<&CancelToken>,
    ) -> Result<CpmResult, Cancelled> {
        let mut phases = FusedPhases::default();
        self.finish_impl(threads.into(), cancel, &mut phases, &mut |_| {})
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
    /// ascending ordinals, and members are canonicalised). Every source
    /// unions into [`LevelPartitions`], and [`ConcurrentDsu`]'s unions
    /// commute partition-wise. Most sources make the same unions in
    /// every schedule; big×big does not (a worker skips pairs another
    /// worker's unions already imply), but each level's partition does
    /// not move (`AlmostFused::finish_pairs`). So chunking unions over
    /// workers — in any interleaving — cannot change the output; exact
    /// mode's certification runs on the leader between a level's union
    /// barrier and its snapshot, and depends only on that partition.
    /// Phase transitions are reported to `observe` (the bench's
    /// per-phase memory hook).
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
        // The per-vertex key owners are the stream's alone.
        self.engine.last2 = Vec::new();
        let pairs_workers = self.pairs_workers(threads);
        let count_workers = threads.resolve(clique_count, FUSED_AUTO_CLIQUES_PER_WORKER);
        let levels = LevelPartitions::new(&self.sizes, self.k_max);
        self.engine.fold_keys(&levels);
        let hubs = self.engine.hub_rows(&self.sizes);
        self.engine
            .key_big_edges(&self.sizes, &hubs, &levels, count_workers, cancel);
        // Big×big reads its own partitions to skip implied pairs, so it
        // runs before the counting pass adds to them.
        self.engine
            .finish_pairs(&self.sizes, &levels, pairs_workers, cancel, &hubs);
        self.engine.build_small_members(clique_count);
        self.engine
            .count_overlaps(&self.sizes, &levels, count_workers, cancel);
        if let Some(token) = cancel {
            token.check()?;
        }
        phases.pairs += t.elapsed();

        observe("sweep");
        let t = Instant::now();
        let certifier = self
            .certify
            .then(|| Certifier::new(&hubs, &self.sizes, self.k_max));
        // A level merges at most one partition of at most `clique_count`
        // ranks.
        let sweep_workers = threads.resolve(clique_count, PAR_UNION_MIN);
        let (mut levels_desc, snap_time) =
            self.sweep_levels(levels, sweep_workers, cancel, certifier)?;
        phases.sweep += t.elapsed().saturating_sub(snap_time);

        observe("extract");
        let t = Instant::now();
        let extract_workers = threads.resolve(clique_count, FUSED_AUTO_CLIQUES_PER_WORKER);
        self.extract_levels(&hubs, &mut levels_desc, extract_workers, cancel)?;
        phases.extract += t.elapsed() + snap_time;

        levels_desc.reverse();
        Ok(CpmResult {
            levels: levels_desc,
            clique_count,
        })
    }

    /// `Threads::Auto` resolution of the pairs phase against its own
    /// work volume (candidate pairs of the big-clique prepasses). Reads
    /// the big-clique count off the stored rows, so it runs before
    /// [`AlmostFused::hub_rows`] moves them.
    fn pairs_workers(&self, threads: Threads) -> usize {
        let nb = self.engine.big_off.len() - 1;
        let work = nb * nb / 2 + self.sizes.len();
        threads.resolve(work, FUSED_PAIRS_AUTO_CANDIDATES_PER_WORKER)
    }

    /// The pool-parallel descending-`k` sweep: per level, workers merge
    /// that level's partition (rank `i` joins the ordinal of its root)
    /// into one shared [`ConcurrentDsu`] over ordinals, then a barrier
    /// separates the unions from the leader's certification (exact
    /// mode, `certifier`) and level snapshot (both read the quiescent
    /// DSU, where `find` is the exact min-id root), and a second barrier
    /// separates the snapshot from the next level's unions. A partition
    /// smaller than [`PAR_UNION_MIN`] is merged by the leader alone, so
    /// tiny levels never pay claim traffic. Between the barriers the
    /// leader also frees the level's partition, so the sweep never holds
    /// the partitions of levels it has already settled.
    ///
    /// Returns the levels in descending `k` plus the wall time spent
    /// snapshotting (attributed to the extract phase).
    fn sweep_levels(
        &self,
        levels: LevelPartitions,
        workers: usize,
        cancel: Option<&CancelToken>,
        certifier: Option<Certifier<'_>>,
    ) -> Result<(Vec<KLevel>, Duration), Cancelled> {
        let count = self.sizes.len();
        let LevelPartitions {
            by_size, mut dsus, ..
        } = levels;

        struct LevelPlan {
            k: usize,
            /// Read by every worker while the level unions, dropped by
            /// the leader once they are done.
            partition: RwLock<Option<ConcurrentDsu>>,
            queue: ChunkQueue,
            /// Whether every worker claims from `queue`, or the leader
            /// alone.
            shared: bool,
        }
        let plans: Vec<LevelPlan> = (2..=self.k_max)
            .rev()
            .map(|k| {
                let partition = dsus[k].take();
                let len = partition.as_ref().map_or(0, ConcurrentDsu::len);
                LevelPlan {
                    k,
                    partition: RwLock::new(partition),
                    queue: ChunkQueue::new(len, UNION_CHUNK),
                    shared: workers > 1 && len >= PAR_UNION_MIN,
                }
            })
            .collect();
        drop(dsus);

        let sizes = &self.sizes[..];
        let cdsu = ConcurrentDsu::new(count);
        type SnapParts<'h> = (
            LevelSnapshotter,
            Vec<KLevel>,
            Duration,
            Option<Certifier<'h>>,
        );
        let snap_parts: Mutex<SnapParts> = Mutex::new((
            LevelSnapshotter::new(count),
            Vec::with_capacity(self.k_max - 1),
            Duration::ZERO,
            certifier,
        ));
        Pool::global().run(workers, |w| {
            let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
            for plan in &plans {
                if plan.shared || w.is_leader() {
                    let partition = plan.partition.read().expect("fused sweep worker panicked");
                    let claim = || match cancel {
                        Some(token) => plan.queue.claim_unless(token),
                        None => plan.queue.claim(),
                    };
                    if let Some(d) = &*partition {
                        while let Some(range) = claim() {
                            for i in range.start as u32..range.end as u32 {
                                let r = d.find(i);
                                if r != i {
                                    cdsu.union(by_size[r as usize], by_size[i as usize]);
                                }
                            }
                        }
                    }
                }
                // Quiesce, free the spent partition, certify and snapshot
                // the settled union–find, then release everyone into the
                // next level.
                w.barrier();
                if w.is_leader() {
                    *plan.partition.write().expect("fused sweep worker panicked") = None;
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
    /// work touches only the worker's own hub accumulator), and the
    /// buffers are written back by index afterwards, so every community
    /// gets the same members whatever the worker count.
    fn extract_levels(
        &self,
        hubs: &HubRows,
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
            let mut acc = vec![0u64; hubs.hubs.div_ceil(64)];
            let claim = || match cancel {
                Some(token) => queue.claim_unless(token),
                None => queue.claim(),
            };
            while let Some(range) = claim() {
                for ii in range {
                    let (li, ci) = items[ii];
                    let ids = &levels_ref[li as usize].communities[ci as usize].clique_ids;
                    let members = self.community_members(hubs, ids, &mut acc);
                    local.push((li, ci, canonical_members(members)));
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
    /// stores ([`AlmostFused::build_small_members`]) and the big
    /// cliques' hub rows — work proportional to the community's own
    /// membership, not to the whole census, which is what keeps the
    /// per-level extraction cheap despite never holding a clique list.
    /// Takes `&self` only, so extraction workers run it concurrently,
    /// one community at a time, each with its own zeroed hub bitmap
    /// `acc`, which it leaves zeroed.
    fn community_members(&self, hubs: &HubRows, ids: &[u32], acc: &mut [u64]) -> Vec<NodeId> {
        let a = &self.engine;
        let mut members: Vec<NodeId> = Vec::new();
        // Big cliques' hub rows OR into one accumulator and decode once
        // per community: every big member is a hub vertex, so a
        // community's bigs — however many — push each hub once. Only the
        // words between the lowest and the highest hub seen are decoded.
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &x in ids {
            let s = self.sizes[x as usize] as usize;
            if s == 2 {
                let i = a
                    .pairs2
                    .binary_search_by_key(&x, |&(o, _)| o)
                    .expect("size-2 ordinal is in pairs2");
                members.extend_from_slice(&a.pairs2[i].1);
            } else if s <= SMALL_FULL {
                members.extend_from_slice(a.small_members(x));
            } else {
                let row = hubs.of(x);
                lo = lo.min(row[0] as usize >> 6);
                hi = hi.max((row[row.len() - 1] as usize >> 6) + 1);
                for &b in row {
                    acc[(b >> 6) as usize] |= 1 << (b & 63);
                }
            }
        }
        let lo = lo.min(hi);
        for (w, word) in (lo..).zip(&mut acc[lo..hi]) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                members.push(a.hub_inv[(w << 6) | bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        members
    }
}

impl AlmostFused {
    /// Indexes every clique's hub members ([`HubRows`]): smalls from
    /// the hub vertices' posting lists, bigs by moving in their stored
    /// rows, size-2 cliques from their two members. `sizes` is the
    /// per-ordinal clique size array.
    fn hub_rows(&mut self, sizes: &[u32]) -> HubRows {
        let big_off = std::mem::take(&mut self.big_off);
        let big_hubs = std::mem::take(&mut self.big_hubs);
        let visit = |f: &mut dyn FnMut(u32, u32)| {
            for (b, &v) in self.hub_inv.iter().enumerate() {
                for &x in &self.small_postings[v as usize] {
                    f(x, b as u32);
                }
            }
            let bigs = (0..sizes.len() as u32).filter(|&x| sizes[x as usize] as usize > SMALL_FULL);
            for (x, span) in bigs.zip(big_off.windows(2)) {
                for &b in &big_hubs[span[0] as usize..span[1] as usize] {
                    f(x, b);
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
        let (off, rows) = csr(sizes.len(), visit);
        // Hub ids are assigned for good; only extraction's `hub_inv`
        // still maps them back.
        self.hub_bit = Vec::new();
        HubRows {
            hubs: self.hub_inv.len(),
            off,
            rows,
        }
    }

    /// Builds the ordinal-indexed member CSR of the small cliques by
    /// transposing the per-vertex posting lists: the counting pass
    /// reads each clique's members from it, and extraction afterwards.
    fn build_small_members(&mut self, count: usize) {
        (self.small_off, self.small_mem) = csr(count, |f| {
            for (v, posts) in self.small_postings.iter().enumerate() {
                for &x in posts {
                    f(x, v as NodeId);
                }
            }
        });
    }

    /// The members of small clique `x` ([`Self::build_small_members`]).
    #[inline]
    fn small_members(&self, x: u32) -> &[NodeId] {
        let (b, e) = (self.small_off[x as usize], self.small_off[x as usize + 1]);
        &self.small_mem[b as usize..e as usize]
    }

    /// The overlap-counting pass, pooled over `workers`. The stream
    /// only recorded posting lists; here every clique `x` scans its
    /// members' posting lists for *earlier* ordinals, accumulating
    /// `|x ∩ y|` in a per-worker dense counter, so each small×small
    /// pair is counted once, from its later side ([`Self::finish_pairs`]
    /// counts big×small over the hub rows). Each overlap
    /// `m >` [`KEY_MAX_L`] unions the pair at its detection level
    /// `m + 1` (`m ≤ 2` is owned by the keys). Workers claim ordinal
    /// chunks; each level's partition is the same whatever order its
    /// unions came in, so the result is the same at every worker count.
    /// The posting lists are freed at the end: nothing reads them
    /// afterwards.
    fn count_overlaps(
        &mut self,
        sizes: &[u32],
        levels: &LevelPartitions,
        workers: usize,
        cancel: Option<&CancelToken>,
    ) {
        let count = sizes.len();
        let queue = ChunkQueue::new(count, PAIRS_SMALL_CHUNK);
        let this = &*self;
        Pool::global().run(workers, |_w| {
            let mut counter = vec![0u8; count];
            let mut touched: Vec<u32> = Vec::new();
            let claim = || match cancel {
                Some(token) => queue.claim_unless(token),
                None => queue.claim(),
            };
            while let Some(range) = claim() {
                for x in range.start as u32..range.end as u32 {
                    if !(3..=SMALL_FULL).contains(&(sizes[x as usize] as usize)) {
                        continue;
                    }
                    for &v in this.small_members(x) {
                        let posts = &this.small_postings[v as usize];
                        for &y in posts.iter().take_while(|&&y| y < x) {
                            if counter[y as usize] == 0 {
                                touched.push(y);
                            }
                            counter[y as usize] += 1;
                        }
                    }
                    for &y in &touched {
                        let m = std::mem::take(&mut counter[y as usize]) as usize;
                        if m > KEY_MAX_L {
                            levels.union(m + 1, y, x);
                        }
                    }
                    touched.clear();
                }
            }
        });
        self.small_postings = Vec::new();
    }

    /// Folds the stream's vertex- and edge-key DSUs (over ordinals) into
    /// the partitions of levels 2 and 3 and frees them.
    fn fold_keys(&mut self, levels: &LevelPartitions) {
        for (level, dsu) in [(2, &mut self.dsu2), (3, &mut self.dsu3)] {
            let mut dsu = std::mem::replace(dsu, Dsu::new(0));
            for x in 0..dsu.len() as u32 {
                let root = dsu.find(x);
                if root != x {
                    levels.union(level, root, x);
                }
            }
        }
    }

    /// The level-3 edge keys of the big cliques that emit them
    /// ([`SMALL_FULL`] < size ≤ [`EDGE_KEY_MAX_S`]), over hub pairs:
    /// every member of a big clique is a hub, so per hub `u` the keyed
    /// bigs containing `u` visit their hubs `v > u`, and each hub pair
    /// chains its bigs (ascending ordinals) to the pair's last small
    /// owner in the edge table — one table probe per hub pair, none per
    /// big edge. Chains and the stream's last-owner chains over the same
    /// edge connect the same cliques.
    ///
    /// Hubs `u` are claimed by `workers` pool workers, which union
    /// straight into the level-3 partition (its partition does not
    /// depend on the interleaving). The edge table is freed on return:
    /// the stream's keys are all in.
    fn key_big_edges(
        &mut self,
        sizes: &[u32],
        hubs: &HubRows,
        levels: &LevelPartitions,
        workers: usize,
        cancel: Option<&CancelToken>,
    ) {
        let edges = std::mem::take(&mut self.edges);
        let keyed = KeyedBigs::new(sizes, hubs);
        // Hub rounds vary widely in cost: claim them one at a time.
        let queue = ChunkQueue::new(hubs.hubs, 1);
        let hub_inv = &self.hub_inv[..];
        Pool::global().run(workers, |_w| {
            // Per hub pair `(u, v)` of the claimed `u`: the last big
            // chained.
            let mut last = vec![u32::MAX; hubs.hubs];
            let mut touched: Vec<u32> = Vec::new();
            let claim = || match cancel {
                Some(token) => queue.claim_unless(token),
                None => queue.claim(),
            };
            while let Some(range) = claim() {
                for u in range {
                    let hub_u = hub_inv[u];
                    for &x in keyed.of(u) {
                        let row = hubs.of(x);
                        // A clique's hub row is ascending, so its hubs
                        // above `u` are a suffix; consecutive hubs mostly
                        // share a partner.
                        let mut partner_seen = u32::MAX;
                        for &v in &row[row.partition_point(|&b| b as usize <= u)..] {
                            let prev = std::mem::replace(&mut last[v as usize], x);
                            let partner = if prev != u32::MAX {
                                prev
                            } else {
                                touched.push(v);
                                let hub_v = hub_inv[v as usize];
                                match edges.get(hub_u.min(hub_v), hub_u.max(hub_v)) {
                                    Some(owner) => owner,
                                    None => continue,
                                }
                            };
                            if partner != partner_seen {
                                levels.union(3, partner, x);
                                partner_seen = partner;
                            }
                        }
                    }
                    for v in touched.drain(..) {
                        last[v as usize] = u32::MAX;
                    }
                }
            }
        });
    }

    /// The big-clique prepasses, big×big and big×small, over the hub
    /// rows. `sizes` is the per-ordinal clique size array.
    ///
    /// Only cliques of ≥ 3 members can overlap in `m ≥ 3` (below that
    /// the keys own the pair), and every member of a big clique lives in
    /// the *hub vertex set* — tiny on Internet substrates (203 ASes on
    /// the medium preset, against 10,000 nodes): hub cores nest, so the
    /// big cliques are rungs of a ladder over the same few hub vertices.
    /// *Big×big* joins every near-containment (the smaller side
    /// missing at most [`MISS_DEPTH`] of its own members); *big×small*
    /// counts, for every small with ≥ 3 hub members, its overlap with
    /// every big. What this leaves out — a big×big pair with a mid-range
    /// overlap — is where Internet substrates are densest in *chains* of
    /// near-containments and hubby smalls, which is why the divergence
    /// oracle measures zero on every preset.
    ///
    /// A linear prologue (the transposed per-hub bitmaps over the
    /// first `nb` size ranks, which are the sorted bigs, `hubs ×
    /// ⌈nb / 64⌉` words) runs on the caller; `hubs` is the
    /// hub-membership CSR ([`Self::hub_rows`]). Big×big then drains a
    /// [`ChunkQueue`] of sorted-big rows over `workers` pool workers
    /// into the per-level partitions of `levels`, which it keeps
    /// *cumulative*: a real merge at level `L` is repeated at
    /// `L − 1`, `L − 2`, … until a level reports the pair already
    /// joined, so level `L` holds every big×big union at `L` or above.
    /// That lets big×big join a component once, as big×small does. Per
    /// probe `x` of size `s` and full 64-big word that is one component
    /// at `s` ([`WordComponents`]), let `t` be the highest level in
    /// `s − MISS_DEPTH + 1..=s` at which `x` is already joined to the
    /// word. If `t = s` the word is skipped unscanned; otherwise its
    /// scan stops counting at `s − t + 1` misses ([`miss_scan`]), and
    /// one union at the level of the fewest misses among the survivors
    /// stands for all of them, the others being joined to that one
    /// through the word at `s`. Words spanning several components, and
    /// the last partial word, union hit by hit (on the medium preset
    /// 4.42 M union calls become about 0.42 M). Once big×big has
    /// quiesced, the caller folds its partitions top-down
    /// ([`single_component_words`]): per level `L` and word, whether all
    /// the word's bigs are one component at `L`. Big×small then drains a
    /// queue of ordinals. Per small `x` and word, it takes the top
    /// overlap `M` among the word's hits; if the word is one component
    /// at `M + 1`, one union joins `x` to it at `x`'s level for `M`, and
    /// the word's other hits are skipped. They add nothing: each of
    /// those bigs is already joined at `M + 1` to the top hit, which `x`
    /// really overlaps in `M`, and each hit's own level is at most `x`'s
    /// level for `M`, below which the sweep carries every union. Only
    /// words spanning several components union hit by hit (on the
    /// medium preset 6.79 M hits become about 130 k unions).
    ///
    /// Which unions big×big makes depends on the interleaving — a
    /// worker skips what another has already joined — but not what they
    /// join: a `find` that sees two ranks joined is never wrong, and
    /// partitions only coarsen, so every pair skipped at level `L` is
    /// implied by unions at `L` or above, and every union made is a real
    /// pair at its level or implied by one. So each level's partition,
    /// folded top-down, is the one the detected pairs generate, and
    /// big×small's pair set follows from it; the result is the same at
    /// every worker count.
    fn finish_pairs(
        &self,
        sizes: &[u32],
        levels: &LevelPartitions,
        workers: usize,
        cancel: Option<&CancelToken>,
        hubs: &HubRows,
    ) {
        let count = sizes.len();
        // The bigs, ranks `0..nb`, are sorted by descending size, ties
        // by ordinal; only smalls need a rank lookup.
        let nb = levels.len.get(SMALL_FULL + 1).map_or(0, |&n| n as usize);
        if nb == 0 {
            return;
        }
        let bigs = &levels.by_size[..nb];
        let w_big = nb.div_ceil(64);
        // Transposed index — per hub vertex, a bitmap over the sorted
        // bigs — shared by the big×big and big×small scans below.
        let mut trans = vec![0u64; hubs.hubs * w_big];
        for (bi, &x) in bigs.iter().enumerate() {
            for &b in hubs.of(x) {
                trans[b as usize * w_big + (bi >> 6)] |= 1u64 << (bi & 63);
            }
        }

        let cdsus = &levels.dsus[..];
        let trans = &trans[..];
        // Big×big keeps its partitions cumulative: a real merge at `L`
        // is applied at `L − 1`, `L − 2`, … down to the lowest level a
        // big×big pair reaches, and stops at the first level where the
        // pair is already joined (every union there is carried below
        // it). So level `L`'s partition holds every big×big union at `L`
        // or above, and one look at it tells whether a pair is already
        // implied. `merges` counts each level's real merges; the count
        // publishes no data (a stale read only delays a retest in
        // `WordComponents`), so `Relaxed` serves.
        let floor = sizes[bigs[nb - 1] as usize] as usize + 1 - MISS_DEPTH;
        let merges: Vec<AtomicU32> = (0..cdsus.len()).map(|_| AtomicU32::new(0)).collect();
        let merge = |level: usize, a: u32, b: u32| {
            let mut l = level;
            while l >= floor && levels.dsu_at(l).union(a, b) {
                merges[l].fetch_add(1, Ordering::Relaxed);
                l -= 1;
            }
        };
        let queue_bb = ChunkQueue::new(nb, PAIRS_BIG_CHUNK);
        Pool::global().run(workers, |_w| {
            let mut rows: Vec<&[u64]> = Vec::new();
            let mut whole = WordComponents::new(cdsus.len(), w_big);
            // Big×big, bit-sliced on the *miss* count: a qualifying
            // pair lacks at most `MISS_DEPTH` of x's hub rows, so per
            // candidate word a 3-bit saturating counter of absences
            // replaces one AND+popcount row per earlier big
            // ([`miss_scan`]). A full word that is one component at
            // x's size `s` needs no pair by pair unions: if x is
            // already joined to it at `s`, every pair with it is
            // implied and the word is not scanned; if x is joined to it
            // at most at `t < s`, only the pairs above `t` (miss ≤
            // `s − t`) add anything, and the one with the fewest misses
            // — the highest level — stands for all of them, the rest
            // being joined to it through the word at `s`. Other words
            // union hit by hit.
            let claim = || match cancel {
                Some(token) => queue_bb.claim_unless(token),
                None => queue_bb.claim(),
            };
            while let Some(range) = claim() {
                for xi in range {
                    let x = xi as u32;
                    let row = hubs.of(bigs[xi]);
                    let s = row.len();
                    // Words `0..full` hold 64 earlier bigs each; a last,
                    // partial word holds the rest.
                    let full = xi >> 6;
                    rows.clear();
                    rows.extend(
                        row.iter()
                            .map(|&b| &trans[b as usize * w_big..][..xi.div_ceil(64)]),
                    );
                    for w in 0..xi.div_ceil(64) {
                        let joined = if w < full {
                            let merged = merges[s].load(Ordering::Relaxed);
                            whole.whole(s, w, cdsus[s].get(), merged)
                        } else {
                            None
                        };
                        if let Some(rep) = joined {
                            let t = (s + 1 - MISS_DEPTH..=s)
                                .rev()
                                .find(|&l| cdsus[l].get().is_some_and(|d| d.find(rep) == d.find(x)))
                                .unwrap_or(s - MISS_DEPTH);
                            if t == s {
                                continue;
                            }
                            let limit = s - t + 1;
                            let (c, sat) = miss_scan(&rows, w, limit, 0);
                            let mut top = !sat;
                            if top == 0 {
                                continue;
                            }
                            // The fewest misses among the survivors, plane
                            // by plane from the top.
                            let mut count = 0;
                            for (bit, plane) in [(4, c[2]), (2, c[1]), (1, c[0])] {
                                if top & !plane != 0 {
                                    top &= !plane;
                                } else {
                                    count |= bit;
                                }
                            }
                            let d = count - (8 - limit);
                            let yi = (w << 6) as u32 | top.trailing_zeros();
                            merge((s - d + 1).min(s), yi, x);
                            continue;
                        }
                        let void = if w < full {
                            0
                        } else {
                            !((1u64 << (xi & 63)) - 1)
                        };
                        let (c, sat) = miss_scan(&rows, w, MISS_DEPTH + 1, void);
                        let mut hits = !sat;
                        while hits != 0 {
                            let i = hits.trailing_zeros();
                            hits &= hits - 1;
                            let count = ((c[0] >> i) & 1)
                                | (((c[1] >> i) & 1) << 1)
                                | (((c[2] >> i) & 1) << 2);
                            let d = count as usize + MISS_DEPTH + 1 - 8;
                            merge((s - d + 1).min(s), (w << 6) as u32 | i, x);
                        }
                    }
                }
            }
        });
        // Big×big has quiesced: its components decide which words of
        // the transposed index big×small may treat as one big.
        let Some(reps) = single_component_words(cdsus, nb, cancel) else {
            return;
        };
        let queue_bs = ChunkQueue::new(count, PAIRS_SMALL_CHUNK);
        Pool::global().run(workers, |_w| {
            let mut rows: Vec<&[u64]> = Vec::new();
            let mut joined = RepLevels::new(nb);
            // Big×small, over the transposed per-hub-vertex bitmaps,
            // for the hubby smalls (≥ 3 hub members; the size-2 rows
            // have fewer, the big rows are skipped). A word whose bigs
            // are one component at its top hit count + 1 takes one
            // union with that component; only the other words union hit
            // by hit.
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
                    let rx = levels.rank[x];
                    joined.clear();
                    if let [r0, r1, r2] = rows[..] {
                        // Exactly three hub members: m ≥ 3 forces m = 3
                        // and the hit mask is one three-way AND per word.
                        let level = 4.min(s).max(2);
                        let dsu = levels.dsu_at(level);
                        for w in 0..w_big {
                            let mut hits = r0[w] & r1[w] & r2[w];
                            let rep = reps[4][w];
                            if hits != 0 && rep != u32::MAX {
                                if joined.first(rep, level) {
                                    dsu.union(rep, rx);
                                }
                                continue;
                            }
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
                        if hits == 0 {
                            continue;
                        }
                        // The top count among the hits, plane by plane.
                        let (mut top, mut m_top) = (hits, 0);
                        for (bit, plane) in [(8, c3), (4, c2), (2, c1), (1, c0)] {
                            if top & plane != 0 {
                                top &= plane;
                                m_top |= bit;
                            }
                        }
                        let rep = reps[m_top + 1][w];
                        if rep != u32::MAX {
                            let level = (m_top + 1).min(s).max(2);
                            if joined.first(rep, level) {
                                levels.dsu_at(level).union(rep, rx);
                            }
                            continue;
                        }
                        while hits != 0 {
                            let i = hits.trailing_zeros() as usize;
                            hits &= hits - 1;
                            let yi = (w << 6) | i;
                            let m = ((c0 >> i) & 1)
                                | (((c1 >> i) & 1) << 1)
                                | (((c2 >> i) & 1) << 2)
                                | (((c3 >> i) & 1) << 3);
                            let level = ((m as usize) + 1).min(s).max(2);
                            levels.dsu_at(level).union(yi as u32, rx);
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
    p.finish(threads, None)
        .expect("uncancellable finish cannot be cancelled")
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
    p.finish(threads, Some(cancel))
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
        p.finish(1, None)
            .expect("uncancellable finish cannot be cancelled")
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
    /// one above the top), [`percolate`] projects the same covers,
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
            assert_eq!(percolate(g).cover(k as u32), expected, "single k = {k}");
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
        // Cliques above SMALL_FULL force the big-clique paths:
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
    fn fused_handles_wide_hub_rows() {
        // 25 K15 blocks, consecutive blocks sharing 3 vertices: 303
        // distinct big-clique members, so hub ids run past 256 and the
        // hub bitmaps are five words wide.
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
        assert!(percolate(&isolated).cover(2).is_empty());
        assert!(percolate(&one_edge).cover(0).is_empty());
        assert!(percolate(&one_edge).cover(1).is_empty());
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
        // The vertex/edge key gates are the emission gate
        // evaluated at l = 1 and l = 2; nothing above KEY_MAX_L is keyed.
        for s in 0..=200usize {
            assert_eq!(emits(s, 1), (1..=VERTEX_KEY_MAX_S).contains(&s), "s = {s}");
            assert_eq!(emits(s, 2), (2..=EDGE_KEY_MAX_S).contains(&s), "s = {s}");
            assert!(!emits(s, KEY_MAX_L + 1), "s = {s}");
        }
    }

    /// Small random soups keep proptest throughput high while still
    /// exercising every key gate (vertex keys, edge keys, small
    /// counting) — the fixtures above pin the big-clique paths.
    fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((0..n, 0..n), 0..max_edges)
    }

    proptest! {
        /// Both modes ≡ the literal definition on random graphs, every
        /// level, and [`percolate`] projects the same covers.
        #[test]
        fn fused_matches_definition_on_soups(edges in edge_soup(16, 60)) {
            let g = Graph::from_edges(16, edges);
            for mode in [Mode::Exact, Mode::Almost] {
                let r = run(&g, Kernel::Auto, mode);
                for k in 2..=r.k_max().unwrap_or(1) as usize + 1 {
                    let expected = naive_communities(&g, k);
                    prop_assert_eq!(&r.cover(k as u32), &expected, "mode {} k {}", mode, k);
                    if mode == Mode::Exact {
                        prop_assert_eq!(&percolate(&g).cover(k as u32), &expected, "single k {}", k);
                    }
                }
            }
        }
    }
}
