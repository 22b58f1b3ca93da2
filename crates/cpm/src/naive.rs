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

use crate::dsu::Dsu;
use asgraph::{Graph, NodeId};
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
