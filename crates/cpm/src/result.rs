//! Result types: per-k community covers and the nesting (tree) links.

use asgraph::NodeId;

/// Canonicalises a community member list: sorts ascending, removes
/// duplicates (a node appears once however many of the community's
/// cliques contain it) and drops the spare capacity the duplicates
/// left, so a result holds its members at exact length.
///
/// # Example
///
/// ```
/// assert_eq!(cpm::canonical_members(vec![3, 1, 3, 2]), vec![1, 2, 3]);
/// ```
pub fn canonical_members(mut members: Vec<NodeId>) -> Vec<NodeId> {
    members.sort_unstable();
    members.dedup();
    members.shrink_to_fit();
    members
}

/// Identifier of a k-clique community: its `k` and its index within that
/// level, mirroring the paper's `k<k>id<idx>` labels (Figure 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommunityId {
    /// The clique order `k` (≥ 2).
    pub k: u32,
    /// Index of the community within level `k`.
    pub idx: u32,
}

impl std::fmt::Display for CommunityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}id{}", self.k, self.idx)
    }
}

/// One k-clique community: a union of adjacent k-cliques, stored as its
/// member vertices plus the maximal cliques that generated it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Community {
    /// Sorted member vertices.
    pub members: Vec<NodeId>,
    /// Stream ordinals of the maximal cliques of size ≥ k whose union
    /// this community is: each clique's position in the deterministic
    /// sequential enumeration order (`cliques::max_cliques`), ascending.
    pub clique_ids: Vec<u32>,
    /// Index of the unique (k−1)-clique community containing this one
    /// (Theorem 1 of the paper). `None` only at the bottom level `k = 2`.
    pub parent: Option<u32>,
}

impl Community {
    /// Number of member vertices.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether vertex `v` belongs to this community.
    pub fn contains(&self, v: NodeId) -> bool {
        self.members.binary_search(&v).is_ok()
    }

    /// Number of members shared with `other` (the paper's *overlap*).
    pub fn overlap(&self, other: &Community) -> usize {
        let (a, b) = (&self.members, &other.members);
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Overlap divided by the smaller community's size (the paper's
    /// *overlap fraction*, in `[0, 1]`). Returns 0.0 if either community is
    /// empty.
    pub fn overlap_fraction(&self, other: &Community) -> f64 {
        let max_overlap = self.size().min(other.size());
        if max_overlap == 0 {
            return 0.0;
        }
        self.overlap(other) as f64 / max_overlap as f64
    }
}

/// All k-clique communities of one level `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KLevel {
    /// The clique order.
    pub k: u32,
    /// Communities at this level, in deterministic construction order.
    pub communities: Vec<Community>,
}

/// The complete output of clique percolation: the community cover for
/// every `k` from 2 to the maximum clique size, with parent links forming
/// the k-clique community tree.
///
/// Produced by [`crate::percolate`] and the other entry points of the
/// fused engine ([`crate::FusedPercolator`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CpmResult {
    /// Levels for `k = 2..=k_max`, ascending. Empty if the graph has no
    /// edge.
    pub levels: Vec<KLevel>,
    /// Total maximal cliques the percolation consumed (the ordinal
    /// space of [`Community::clique_ids`]).
    pub clique_count: usize,
}

impl CpmResult {
    /// The largest `k` with at least one community (`None` if the graph
    /// has no edge).
    pub fn k_max(&self) -> Option<u32> {
        self.levels.last().map(|l| l.k)
    }

    /// The communities at level `k`, if `2 <= k <= k_max`.
    pub fn level(&self, k: u32) -> Option<&KLevel> {
        if k < 2 {
            return None;
        }
        let i = (k - 2) as usize;
        self.levels.get(i)
    }

    /// The level-`k` cover in canonical order: each community's sorted
    /// member list, the lists sorted — the single-level view, empty
    /// when there is no level `k`.
    ///
    /// # Example
    ///
    /// ```
    /// use asgraph::Graph;
    ///
    /// let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
    /// let result = cpm::percolate(&g);
    /// assert_eq!(result.cover(3), vec![vec![0, 1, 2], vec![2, 3, 4]]);
    /// assert!(result.cover(4).is_empty());
    /// ```
    pub fn cover(&self, k: u32) -> Vec<Vec<NodeId>> {
        let mut cover: Vec<Vec<NodeId>> = self
            .level(k)
            .map(|l| l.communities.iter().map(|c| c.members.clone()).collect())
            .unwrap_or_default();
        cover.sort_unstable();
        cover
    }

    /// The community designated by `id`.
    pub fn community(&self, id: CommunityId) -> Option<&Community> {
        self.level(id.k)?.communities.get(id.idx as usize)
    }

    /// Total number of communities across all levels (the paper reports
    /// 627 on the 2010 dataset).
    pub fn total_communities(&self) -> usize {
        self.levels.iter().map(|l| l.communities.len()).sum()
    }

    /// Ids of the communities at level `k` containing vertex `v`.
    pub fn communities_containing(&self, k: u32, v: NodeId) -> Vec<CommunityId> {
        match self.level(k) {
            None => Vec::new(),
            Some(level) => level
                .communities
                .iter()
                .enumerate()
                .filter(|(_, c)| c.contains(v))
                .map(|(idx, _)| CommunityId { k, idx: idx as u32 })
                .collect(),
        }
    }

    /// The parent community id of `id` (the unique (k−1)-community that
    /// contains it), if any.
    pub fn parent(&self, id: CommunityId) -> Option<CommunityId> {
        let c = self.community(id)?;
        c.parent.map(|p| CommunityId {
            k: id.k - 1,
            idx: p,
        })
    }

    /// Iterates over all `(CommunityId, &Community)` pairs, ascending k.
    pub fn iter(&self) -> impl Iterator<Item = (CommunityId, &Community)> {
        self.levels.iter().flat_map(|l| {
            l.communities.iter().enumerate().map(move |(idx, c)| {
                (
                    CommunityId {
                        k: l.k,
                        idx: idx as u32,
                    },
                    c,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn community(members: &[NodeId]) -> Community {
        Community {
            members: members.to_vec(),
            clique_ids: Vec::new(),
            parent: None,
        }
    }

    #[test]
    fn id_display_matches_paper_labels() {
        let id = CommunityId { k: 36, idx: 0 };
        assert_eq!(id.to_string(), "k36id0");
    }

    #[test]
    fn overlap_and_fraction() {
        let a = community(&[0, 1, 2, 3]);
        let b = community(&[2, 3, 4]);
        assert_eq!(a.overlap(&b), 2);
        assert!((a.overlap_fraction(&b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.overlap_fraction(&community(&[])), 0.0);
    }

    #[test]
    fn contains_uses_sorted_members() {
        let c = community(&[1, 5, 9]);
        assert!(c.contains(5));
        assert!(!c.contains(4));
        assert_eq!(c.size(), 3);
    }

    #[test]
    fn empty_result() {
        let r = CpmResult::default();
        assert_eq!(r.k_max(), None);
        assert_eq!(r.total_communities(), 0);
        assert!(r.level(2).is_none());
        assert!(r.communities_containing(3, 0).is_empty());
    }
}
