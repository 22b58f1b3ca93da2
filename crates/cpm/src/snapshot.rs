//! The immutable, serialisable query index over one percolation run.
//!
//! `percolate` answers "what are the communities?" once and prints.
//! The serving layer (crates/serve) instead wants to answer *queries* —
//! "which k-communities does AS `x` belong to?", "what is the smallest
//! community containing both `a` and `b`?" — millions of times over the
//! same result. [`SnapshotIndex`] is that result frozen into lookup
//! shape:
//!
//! * the **community tree** (every [`KLevel`] with its Theorem-1 parent
//!   links, plus the inverse children links),
//! * **per-node membership postings** (`node → [(k, idx)]`, sorted), so
//!   membership queries are one slice lookup instead of a level scan,
//! * community **member lists and sizes** for the payloads.
//!
//! Postings and children are derived data: only the levels travel in
//! the serialised form ([`SnapshotIndex::to_bytes`]), and loading
//! rebuilds the rest. The byte format is versioned, length-prefixed and
//! checksummed, and the decoder is hardened in the same spirit as the
//! clique-log reader: every count is bounded by the declared totals and
//! the remaining bytes, member lists must be strictly ascending and
//! in-range, and any violation is `ErrorKind::InvalidData` — never a
//! panic, never an unbounded allocation.

use crate::result::{Community, CommunityId, KLevel};
use asgraph::NodeId;
use std::io;

/// Magic prefix of a serialised snapshot ("kclique community snapshot,
/// version 1"). Distinct from the clique-log magics so loaders can
/// sniff which artifact a file holds.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"KCSNAP1\n";

/// Hard cap on the serialised form this decoder will even attempt:
/// bounds every pre-allocation, so a corrupt length field can demand at
/// most this much memory, not 2^64 bytes.
const MAX_DECODE_ITEMS: u64 = 1 << 32;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// One community in the frozen index: its sorted members plus the tree
/// links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapCommunity {
    /// Sorted, deduplicated member vertices.
    pub members: Vec<NodeId>,
    /// Index of the containing community one level down (`k − 1`);
    /// `None` only at the bottom level `k = 2`.
    pub parent: Option<u32>,
    /// Indices of the communities one level up (`k + 1`) nested inside
    /// this one (the inverse of their `parent` links).
    pub children: Vec<u32>,
}

impl SnapCommunity {
    /// Number of member vertices.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether vertex `v` belongs to this community.
    pub fn contains(&self, v: NodeId) -> bool {
        self.members.binary_search(&v).is_ok()
    }
}

/// One `k` level of the frozen index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapLevel {
    /// The clique order.
    pub k: u32,
    /// Communities at this level, index-stable with the source
    /// [`KLevel`].
    pub communities: Vec<SnapCommunity>,
}

/// An immutable, query-shaped snapshot of one full percolation sweep.
///
/// Build it from a multi-k result's levels
/// ([`SnapshotIndex::from_levels`] over `cpm::CpmResult::levels`,
/// whether the engine was fed by live enumeration or a clique-log
/// replay), serialise it with
/// [`SnapshotIndex::to_bytes`], and answer queries in microseconds via
/// [`membership`](SnapshotIndex::membership) /
/// [`community`](SnapshotIndex::community) /
/// [`common_community`](SnapshotIndex::common_community).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotIndex {
    node_count: usize,
    levels: Vec<SnapLevel>,
    /// `postings[v]` = every `(k, idx)` community containing `v`,
    /// sorted ascending by `(k, idx)`. Flat pool + offsets keeps the
    /// whole structure in two allocations.
    posting_pool: Vec<(u32, u32)>,
    posting_offsets: Vec<u32>,
}

impl SnapshotIndex {
    /// Freezes a multi-k sweep result into query shape.
    ///
    /// `levels` must be ascending in `k` with valid parent links (the
    /// invariant both `cpm::percolate` and the streaming sweep
    /// guarantee); `node_count` bounds the vertex id space.
    ///
    /// # Panics
    ///
    /// Panics if a member id is `>= node_count` or a parent index is
    /// out of range — these are construction bugs, not input data.
    pub fn from_levels(node_count: usize, levels: &[KLevel]) -> Self {
        let snap_levels: Vec<SnapLevel> = levels
            .iter()
            .map(|l| SnapLevel {
                k: l.k,
                communities: l
                    .communities
                    .iter()
                    .map(|c: &Community| SnapCommunity {
                        members: c.members.clone(),
                        parent: c.parent,
                        children: Vec::new(),
                    })
                    .collect(),
            })
            .collect();
        Self::finish(node_count, snap_levels)
    }

    /// Wires the derived structures (children links, membership
    /// postings) onto freshly built or freshly decoded levels.
    fn finish(node_count: usize, mut levels: Vec<SnapLevel>) -> Self {
        // Children: invert the parent links, level by level.
        for li in 1..levels.len() {
            let (below, above) = levels.split_at_mut(li);
            let below = &mut below[li - 1];
            for (idx, c) in above[0].communities.iter().enumerate() {
                if let Some(p) = c.parent {
                    below.communities[p as usize].children.push(idx as u32);
                }
            }
        }
        // Postings: counting pass, offset pass, fill pass — two flat
        // allocations, no per-node Vec churn.
        let mut counts = vec![0u32; node_count];
        for l in &levels {
            for c in &l.communities {
                for &v in &c.members {
                    counts[v as usize] += 1;
                }
            }
        }
        let mut posting_offsets = Vec::with_capacity(node_count + 1);
        let mut total = 0u32;
        posting_offsets.push(0);
        for &c in &counts {
            total += c;
            posting_offsets.push(total);
        }
        let mut cursor: Vec<u32> = posting_offsets[..node_count].to_vec();
        let mut posting_pool = vec![(0u32, 0u32); total as usize];
        // Levels ascend in k and communities ascend in idx, so filling
        // in iteration order leaves every node's slice sorted.
        for l in &levels {
            for (idx, c) in l.communities.iter().enumerate() {
                for &v in &c.members {
                    let slot = &mut cursor[v as usize];
                    posting_pool[*slot as usize] = (l.k, idx as u32);
                    *slot += 1;
                }
            }
        }
        SnapshotIndex {
            node_count,
            levels,
            posting_pool,
            posting_offsets,
        }
    }

    /// Size of the vertex id space.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The levels, ascending in `k`.
    pub fn levels(&self) -> &[SnapLevel] {
        &self.levels
    }

    /// The largest `k` with at least one community.
    pub fn k_max(&self) -> Option<u32> {
        self.levels.last().map(|l| l.k)
    }

    /// Total community count across all levels.
    pub fn total_communities(&self) -> usize {
        self.levels.iter().map(|l| l.communities.len()).sum()
    }

    /// The level holding order-`k` communities, if present.
    pub fn level(&self, k: u32) -> Option<&SnapLevel> {
        let first = self.levels.first()?.k;
        if k < first {
            return None;
        }
        self.levels.get((k - first) as usize)
    }

    /// The community designated by `id`.
    pub fn community(&self, id: CommunityId) -> Option<&SnapCommunity> {
        self.level(id.k)?.communities.get(id.idx as usize)
    }

    /// Every `(k, idx)` community containing `v`, ascending in
    /// `(k, idx)`. Empty (not an error) for out-of-range `v`.
    pub fn postings(&self, v: NodeId) -> &[(u32, u32)] {
        let v = v as usize;
        if v >= self.node_count {
            return &[];
        }
        let lo = self.posting_offsets[v] as usize;
        let hi = self.posting_offsets[v + 1] as usize;
        &self.posting_pool[lo..hi]
    }

    /// Ids of the communities containing `v` — at level `k` when given,
    /// at every level otherwise. One slice walk over the node's
    /// postings; no level scan.
    pub fn membership(&self, v: NodeId, k: Option<u32>) -> Vec<CommunityId> {
        self.postings(v)
            .iter()
            .filter(|(pk, _)| k.is_none_or(|k| *pk == k))
            .map(|&(k, idx)| CommunityId { k, idx })
            .collect()
    }

    /// The smallest community containing both `a` and `b` at level
    /// `min_k` or above: communities nest as `k` grows, so the deepest
    /// level with a shared community holds the smallest one (ties
    /// broken by member count, then index).
    pub fn common_community(&self, a: NodeId, b: NodeId, min_k: u32) -> Option<CommunityId> {
        let pa = self.postings(a);
        let pb = self.postings(b);
        let mut best: Option<CommunityId> = None;
        // Merge-walk the two sorted posting slices for exact (k, idx)
        // matches; later matches are deeper (larger k) and win.
        let (mut i, mut j) = (0, 0);
        while i < pa.len() && j < pb.len() {
            match pa[i].cmp(&pb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let (k, idx) = pa[i];
                    if k >= min_k {
                        let candidate = CommunityId { k, idx };
                        best = match best {
                            Some(prev) if prev.k == k => {
                                // Same level: keep the smaller community.
                                let ps = self.community(prev).map_or(usize::MAX, |c| c.size());
                                let cs = self.community(candidate).map_or(usize::MAX, |c| c.size());
                                Some(if cs < ps { candidate } else { prev })
                            }
                            _ => Some(candidate),
                        };
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// The chain of ancestors of `id`, walking the Theorem-1 parent
    /// links down to the bottom level (nearest ancestor first).
    pub fn ancestors(&self, id: CommunityId) -> Vec<CommunityId> {
        let mut out = Vec::new();
        let mut cur = id;
        while let Some(c) = self.community(cur) {
            match c.parent {
                Some(p) => {
                    cur = CommunityId {
                        k: cur.k - 1,
                        idx: p,
                    };
                    out.push(cur);
                }
                None => break,
            }
        }
        out
    }

    /// The communities one level up nested directly inside `id`.
    pub fn children(&self, id: CommunityId) -> Vec<CommunityId> {
        match self.community(id) {
            None => Vec::new(),
            Some(c) => c
                .children
                .iter()
                .map(|&idx| CommunityId { k: id.k + 1, idx })
                .collect(),
        }
    }

    /// Serialises the index (levels only; postings and children are
    /// rebuilt on load) into a self-describing, checksummed byte
    /// vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        push_u64(&mut out, self.node_count as u64);
        push_u32(&mut out, self.levels.len() as u32);
        for l in &self.levels {
            push_u32(&mut out, l.k);
            push_u32(&mut out, l.communities.len() as u32);
            for c in &l.communities {
                push_u32(&mut out, c.parent.map_or(u32::MAX, |p| p));
                push_u32(&mut out, c.members.len() as u32);
                for &m in &c.members {
                    push_u32(&mut out, m);
                }
            }
        }
        let sum = fnv1a64(&out);
        push_u64(&mut out, sum);
        out
    }

    /// Decodes a snapshot serialised by [`SnapshotIndex::to_bytes`].
    ///
    /// # Errors
    ///
    /// `ErrorKind::InvalidData` for a bad magic, truncated input,
    /// checksum mismatch, out-of-range member/parent ids, or
    /// non-ascending member lists. Allocation is bounded by the input
    /// length, never by a corrupt count field alone.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
            return Err(invalid("not a snapshot (truncated before magic)"));
        }
        if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(invalid("not a snapshot (bad magic)"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let declared = u64::from_le_bytes(tail.try_into().expect("split keeps 8 bytes"));
        if fnv1a64(body) != declared {
            return Err(invalid("snapshot checksum mismatch"));
        }
        let mut r = Cursor {
            buf: &body[SNAPSHOT_MAGIC.len()..],
            pos: 0,
        };
        let node_count = r.u64()?;
        if node_count > MAX_DECODE_ITEMS {
            return Err(invalid("snapshot node count out of range"));
        }
        let node_count = node_count as usize;
        let level_count = r.u32()? as usize;
        let mut levels = Vec::new();
        let mut prev_k: Option<u32> = None;
        for _ in 0..level_count {
            let k = r.u32()?;
            match prev_k {
                None if k < 2 => return Err(invalid("snapshot level k below 2")),
                Some(p) if k != p + 1 => return Err(invalid("snapshot levels not consecutive")),
                _ => {}
            }
            prev_k = Some(k);
            let count = r.u32()? as usize;
            // Each community costs >= 8 bytes on the wire, so `count`
            // is bounded by the remaining input.
            if count > r.remaining() / 8 {
                return Err(invalid("snapshot community count exceeds input"));
            }
            let below_count = levels
                .last()
                .map(|l: &SnapLevel| l.communities.len() as u32);
            let mut communities = Vec::with_capacity(count);
            for _ in 0..count {
                let parent_raw = r.u32()?;
                let parent = if parent_raw == u32::MAX {
                    None
                } else {
                    match below_count {
                        Some(n) if parent_raw < n => Some(parent_raw),
                        _ => return Err(invalid("snapshot parent index out of range")),
                    }
                };
                let member_count = r.u32()? as usize;
                if member_count > r.remaining() / 4 {
                    return Err(invalid("snapshot member count exceeds input"));
                }
                let mut members = Vec::with_capacity(member_count);
                let mut prev: Option<u32> = None;
                for _ in 0..member_count {
                    let m = r.u32()?;
                    if m as u64 >= node_count as u64 {
                        return Err(invalid("snapshot member id out of range"));
                    }
                    if prev.is_some_and(|p| p >= m) {
                        return Err(invalid("snapshot members not strictly ascending"));
                    }
                    prev = Some(m);
                    members.push(m);
                }
                communities.push(SnapCommunity {
                    members,
                    parent,
                    children: Vec::new(),
                });
            }
            levels.push(SnapLevel { k, communities });
        }
        if r.remaining() != 0 {
            return Err(invalid("snapshot has trailing bytes"));
        }
        Ok(Self::finish(node_count, levels))
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// 64-bit FNV-1a over the serialised body: not cryptographic, exactly
/// strong enough to turn a torn or bit-flipped snapshot file into a
/// clean `InvalidData` instead of garbage queries.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bounds-checked little-endian reader over the decode body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        if self.remaining() < n {
            return Err(invalid("snapshot truncated mid-record"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take returns 4 bytes"),
        ))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take returns 8 bytes"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percolate;
    use asgraph::Graph;

    fn fixture() -> Graph {
        // Two K4s sharing a triangle plus a pendant triangle: three
        // levels, real nesting, one overlapping node.
        Graph::from_edges(
            7,
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
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        )
    }

    fn index() -> SnapshotIndex {
        let r = percolate(&fixture());
        SnapshotIndex::from_levels(7, &r.levels)
    }

    #[test]
    fn membership_matches_percolate() {
        let g = fixture();
        let r = percolate(&g);
        let idx = SnapshotIndex::from_levels(g.node_count(), &r.levels);
        for level in &r.levels {
            for v in 0..g.node_count() as NodeId {
                let want: Vec<u32> = level
                    .communities
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.contains(v))
                    .map(|(i, _)| i as u32)
                    .collect();
                let got: Vec<u32> = idx
                    .membership(v, Some(level.k))
                    .into_iter()
                    .map(|id| id.idx)
                    .collect();
                assert_eq!(got, want, "v={v} k={}", level.k);
            }
        }
        // All-level membership is the concatenation, ascending in k.
        let all = idx.membership(4, None);
        assert!(all
            .windows(2)
            .all(|w| (w[0].k, w[0].idx) < (w[1].k, w[1].idx)));
        assert!(!all.is_empty());
    }

    #[test]
    fn common_community_prefers_deepest_level() {
        let idx = index();
        // 0 and 4 share the k=4 community (the merged K4s); deepest
        // wins over the k=2/k=3 covers.
        let c = idx.common_community(0, 4, 2).unwrap();
        assert_eq!(c.k, 4);
        assert!(idx.community(c).unwrap().contains(0));
        assert!(idx.community(c).unwrap().contains(4));
        // 0 and 6 only meet at lower k.
        let c = idx.common_community(0, 6, 2).unwrap();
        assert!(c.k < 4);
        // A floor above any shared level yields nothing.
        assert!(idx.common_community(0, 6, 4).is_none());
        // Out-of-range nodes share nothing.
        assert!(idx.common_community(0, 999, 2).is_none());
    }

    #[test]
    fn tree_links_are_inverse() {
        let idx = index();
        for l in idx.levels() {
            for (i, c) in l.communities.iter().enumerate() {
                let id = CommunityId {
                    k: l.k,
                    idx: i as u32,
                };
                for child in idx.children(id) {
                    let cc = idx.community(child).unwrap();
                    assert_eq!(cc.parent, Some(i as u32));
                    // Children nest inside the parent.
                    assert!(cc.members.iter().all(|&v| c.contains(v)));
                }
                for anc in idx.ancestors(id) {
                    assert!(idx.community(anc).unwrap().size() >= c.size());
                }
            }
        }
    }

    #[test]
    fn bytes_round_trip() {
        let idx = index();
        let bytes = idx.to_bytes();
        let back = SnapshotIndex::from_bytes(&bytes).unwrap();
        assert_eq!(idx, back);
    }

    #[test]
    fn corruption_is_invalid_data_never_panic() {
        let idx = index();
        let bytes = idx.to_bytes();
        // Every single-byte flip is caught by the checksum (or magic).
        for pos in 0..bytes.len() {
            let mut b = bytes.clone();
            b[pos] ^= 0x40;
            let err = SnapshotIndex::from_bytes(&b).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {pos}");
        }
        // Every truncation is caught.
        for len in 0..bytes.len() {
            let err = SnapshotIndex::from_bytes(&bytes[..len]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "truncate to {len}");
        }
        assert!(SnapshotIndex::from_bytes(b"not a snapshot at all......").is_err());
    }

    #[test]
    fn empty_levels_round_trip() {
        let idx = SnapshotIndex::from_levels(5, &[]);
        assert_eq!(idx.k_max(), None);
        assert_eq!(idx.total_communities(), 0);
        assert!(idx.membership(3, None).is_empty());
        let back = SnapshotIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(idx, back);
    }
}
