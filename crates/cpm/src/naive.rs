//! The literal, definitional Clique Percolation Method.
//!
//! Palla et al. define a k-clique community as the union of all k-cliques
//! reachable from one another through adjacent k-cliques (adjacency =
//! sharing k−1 nodes). This module implements that definition verbatim:
//! enumerate every k-clique, join two k-cliques whenever they share a
//! (k−1)-subset, take connected components.
//!
//! [`communities_where`] is that one body over a filtered k-clique
//! stream. The weighted ([`crate::weighted`]) and directed
//! ([`crate::directed`]) variants are filters over it; with every
//! k-clique kept ([`naive_communities`]) it is the cross-validation
//! oracle for the maximal-clique reduction in [`crate::percolate`]. It
//! holds every kept k-clique and every (k−1)-subset in memory, so use it
//! on small graphs.
//!
//! [`reduction_where`] states that reduction over the maximal cliques
//! themselves (DESIGN §4.1, CFinder's): per k, the components of the
//! overlap graph of the cliques of size ≥ k, thresholded at k−1. It
//! shares no code with the engine, keeps no pair list and runs in
//! seconds on the largest presets, so it judges exact mode where
//! k-clique enumeration cannot go.

use crate::dsu::Dsu;
use asgraph::{Graph, NodeId};
use cliques::CliqueSet;
use std::collections::HashMap;

/// Computes the k-clique communities of `g` directly from the definition.
///
/// Returns each community as a sorted member list; communities are sorted
/// lexicographically for canonical comparison. `k < 2` returns no
/// communities (the definition needs at least an edge).
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use cpm::naive::naive_communities;
///
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// let comms = naive_communities(&g, 3);
/// assert_eq!(comms, vec![vec![0, 1, 2, 3]]);
/// ```
pub fn naive_communities(g: &Graph, k: usize) -> Vec<Vec<NodeId>> {
    communities_where(g, k, |_| true)
}

/// The k-clique communities of `g` over only the k-cliques `keep`
/// accepts: two kept k-cliques are adjacent when they share k−1 nodes,
/// and each community is the union of one adjacency component.
///
/// `keep` sees every k-clique once, members sorted ascending. The output
/// is canonical as in [`naive_communities`]; `k < 2` returns no
/// communities.
pub fn communities_where(
    g: &Graph,
    k: usize,
    mut keep: impl FnMut(&[NodeId]) -> bool,
) -> Vec<Vec<NodeId>> {
    if k < 2 {
        return Vec::new();
    }
    // Kept k-clique `i` is `kept[i * k..(i + 1) * k]`.
    let mut kept: Vec<NodeId> = Vec::new();
    let mut dsu = Dsu::new(0);
    // Two k-cliques are adjacent iff they share k-1 nodes, iff they share
    // a (k-1)-subset. Union every k-clique with the first holder of each
    // of its k subsets; transitivity does the rest.
    let mut subset_owner: HashMap<Vec<NodeId>, u32> = HashMap::new();
    let mut subset = Vec::with_capacity(k - 1);
    cliques::kclique::for_each_k_clique(g, k, |c| {
        if !keep(c) {
            return;
        }
        let i = dsu.push();
        kept.extend_from_slice(c);
        for skip in 0..k {
            subset.clear();
            subset.extend(
                c.iter()
                    .enumerate()
                    .filter(|&(j, _)| j != skip)
                    .map(|(_, &v)| v),
            );
            match subset_owner.get(&subset) {
                Some(&owner) => {
                    dsu.union(owner, i);
                }
                None => {
                    subset_owner.insert(subset.clone(), i);
                }
            }
        }
    });

    let mut groups: HashMap<u32, Vec<NodeId>> = HashMap::new();
    for (i, c) in kept.chunks_exact(k).enumerate() {
        groups
            .entry(dsu.find(i as u32))
            .or_default()
            .extend_from_slice(c);
    }
    let mut communities: Vec<Vec<NodeId>> = groups
        .into_values()
        .map(|mut members| {
            members.sort_unstable();
            members.dedup();
            members
        })
        .collect();
    communities.sort_unstable();
    communities
}

/// The k-clique communities of every level from 2 to the largest
/// clique size, from the maximal cliques `set` by the CFinder reduction
/// (see [`reduction_where`]): entry `k − 2` is the cover of level `k`,
/// canonical as in [`naive_communities`].
///
/// # Example
///
/// ```
/// use cliques::CliqueSet;
/// use cpm::naive::clique_reduction;
///
/// // Two triangles sharing an edge, and a pendant edge.
/// let mut set = CliqueSet::new();
/// set.push(&[0, 1, 2]);
/// set.push(&[1, 2, 3]);
/// set.push(&[3, 4]);
/// let levels = clique_reduction(&set);
/// assert_eq!(levels[0], vec![vec![0, 1, 2, 3, 4]]); // k = 2
/// assert_eq!(levels[1], vec![vec![0, 1, 2, 3]]); // k = 3
/// ```
pub fn clique_reduction(set: &CliqueSet) -> Vec<Vec<Vec<NodeId>>> {
    reduction_where(set, |_, _, m| m)
}

/// [`clique_reduction`] with each pair of cliques that shares `m ≥ 2`
/// vertices (sizes `a`, `b`) counted as overlapping in
/// `counted(a, b, m)`; every pair sharing a vertex joins at level 2.
///
/// Two maximal cliques are adjacent at level k when both have at least
/// k members and they share at least k−1, and a k-connection is also a
/// (k−1)-connection. So each pair is unioned once, at the deepest level
/// it reaches, min(overlap + 1, both sizes), into that level's
/// union–find, and the levels fold into one union–find from the top
/// down. Level 2 chains the cliques through each vertex. Overlaps are
/// counted per clique through per-vertex posting lists of the earlier
/// cliques of ≥ 3 members, with a counter that the touched list resets.
/// Memory is cliques × levels; no pair is stored.
pub fn reduction_where(
    set: &CliqueSet,
    counted: impl Fn(usize, usize, usize) -> usize,
) -> Vec<Vec<Vec<NodeId>>> {
    let n = set.len();
    let top = set.max_size();
    let nodes = set.iter().flatten().max().map_or(0, |&v| v as usize + 1);
    // Per level `L`, the unions of the pairs whose deepest level is `L`.
    let mut at: Vec<Dsu> = (0..=top)
        .map(|level| Dsu::new(if level >= 2 { n } else { 0 }))
        .collect();
    let mut first = vec![u32::MAX; nodes];
    let mut postings: Vec<Vec<u32>> = vec![Vec::new(); nodes];
    let mut count = vec![0u32; n];
    let mut touched: Vec<u32> = Vec::new();
    for (i, c) in set.iter().enumerate() {
        let i = i as u32;
        if c.len() < 2 {
            continue;
        }
        for &v in c {
            let owner = &mut first[v as usize];
            if *owner == u32::MAX {
                *owner = i;
            } else {
                at[2].union(*owner, i);
            }
        }
        if c.len() < 3 {
            continue;
        }
        for &v in c {
            for &j in &postings[v as usize] {
                if count[j as usize] == 0 {
                    touched.push(j);
                }
                count[j as usize] += 1;
            }
        }
        for &j in &touched {
            let m = std::mem::take(&mut count[j as usize]) as usize;
            let b = set.size(j as usize);
            // Level 2 already holds every pair that shares a vertex.
            if m >= 2 {
                let level = (counted(c.len(), b, m) + 1).min(c.len()).min(b);
                if level >= 3 {
                    at[level].union(j, i);
                }
            }
        }
        touched.clear();
        for &v in c {
            postings[v as usize].push(i);
        }
    }
    drop(postings);
    let mut dsu = Dsu::new(n);
    let mut levels = Vec::with_capacity(top.saturating_sub(1));
    for k in (2..=top).rev() {
        let mut level = std::mem::replace(&mut at[k], Dsu::new(0));
        for x in 0..n as u32 {
            let r = level.find(x);
            if r != x {
                dsu.union(r, x);
            }
        }
        let mut by_root: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (x, c) in set.iter().enumerate().filter(|(_, c)| c.len() >= k) {
            by_root[dsu.find(x as u32) as usize].extend_from_slice(c);
        }
        let mut cover: Vec<Vec<NodeId>> = by_root
            .into_iter()
            .filter(|m| !m.is_empty())
            .map(|mut m| {
                m.sort_unstable();
                m.dedup();
                m
            })
            .collect();
        cover.sort_unstable();
        levels.push(cover);
    }
    levels.reverse();
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_less_than_two_is_empty() {
        let g = Graph::complete(3);
        assert!(naive_communities(&g, 0).is_empty());
        assert!(naive_communities(&g, 1).is_empty());
    }

    #[test]
    fn edges_percolate_connected_components() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        let comms = naive_communities(&g, 2);
        assert_eq!(comms, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn bowtie_splits_at_k3() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let comms = naive_communities(&g, 3);
        assert_eq!(comms, vec![vec![0, 1, 2], vec![2, 3, 4]]);
    }

    #[test]
    fn no_k_cliques_no_communities() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]); // C4
        assert!(naive_communities(&g, 3).is_empty());
    }

    #[test]
    fn k5_minus_edge_at_k4() {
        // K5 with edge (3,4) removed: 4-cliques are {0,1,2,3} and
        // {0,1,2,4}, sharing 3 nodes -> one community of all 5.
        let mut b = asgraph::GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                if !(u == 3 && v == 4) {
                    b.add_edge(u, v);
                }
            }
        }
        let comms = naive_communities(&b.build(), 4);
        assert_eq!(comms, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn rejecting_every_clique_gives_no_communities() {
        let g = Graph::complete(5);
        for k in 2..=5 {
            assert!(communities_where(&g, k, |_| false).is_empty(), "k = {k}");
        }
    }

    #[test]
    fn rejecting_the_bridge_splits_the_chain() {
        // Triangles {0,1,2}, {1,2,3}, {2,3,4}: the middle one bridges the
        // outer two, which share only node 2.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]);
        assert_eq!(naive_communities(&g, 3), vec![vec![0, 1, 2, 3, 4]]);
        let split = communities_where(&g, 3, |c| c != [1, 2, 3]);
        assert_eq!(split, vec![vec![0, 1, 2], vec![2, 3, 4]]);
    }
}
