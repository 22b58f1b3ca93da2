//! Directed clique percolation (Palla, Farkas, Pollner, Derényi, Vicsek,
//! New J. Phys. 2007).
//!
//! A *directed k-clique* is a set of k nodes whose underlying subgraph is
//! complete and whose arcs admit a strict ordering — i.e. the orientation
//! restricted to the set is an acyclic (transitive-tournament-like)
//! pattern. In AS terms: a strict customer→provider hierarchy. Two
//! directed k-cliques are adjacent when they share k−1 nodes; communities
//! are the percolation components, exactly as in the undirected method,
//! so this module is an acyclicity filter over the definitional
//! percolator ([`crate::naive::communities_where`]) run on the underlying
//! undirected graph.
//!
//! On the customer→provider orientation of the AS graph this separates
//! hierarchical structures (transit chains) from flat peering meshes —
//! the `directed_cpm` experiment contrasts the two covers.

use asgraph::digraph::DiGraph;
use asgraph::NodeId;

/// The directed k-clique communities of `g`.
///
/// Returns sorted member lists in canonical order; `k < 2` yields none.
///
/// A k-node complete set qualifies only if its arcs are acyclic (for a
/// complete underlying graph that forces a unique topological order; an
/// anti-parallel pair inside the set creates a 2-cycle and disqualifies
/// it).
///
/// # Example
///
/// ```
/// use asgraph::digraph::DiGraph;
/// use cpm::directed::directed_communities;
///
/// // A transitive triangle percolates...
/// let good = DiGraph::from_arcs(3, [(0, 1), (1, 2), (0, 2)]);
/// assert_eq!(directed_communities(&good, 3), vec![vec![0, 1, 2]]);
/// // ...a cyclic one does not.
/// let cyclic = DiGraph::from_arcs(3, [(0, 1), (1, 2), (2, 0)]);
/// assert!(directed_communities(&cyclic, 3).is_empty());
/// ```
pub fn directed_communities(g: &DiGraph, k: usize) -> Vec<Vec<NodeId>> {
    crate::naive::communities_where(&g.to_undirected(), k, |members| {
        is_acyclic_complete(g, members)
    })
}

/// Whether the complete node set `members` carries an acyclic
/// orientation: every pair must have exactly one arc (no anti-parallel
/// pair) and the out-degrees within the set must be a permutation of
/// `0..k` (the transitive-tournament signature).
fn is_acyclic_complete(g: &DiGraph, members: &[NodeId]) -> bool {
    let k = members.len();
    let mut outdeg = vec![0usize; k];
    for (i, &u) in members.iter().enumerate() {
        for (j, &v) in members.iter().enumerate().skip(i + 1) {
            match (g.has_arc(u, v), g.has_arc(v, u)) {
                (true, false) => outdeg[i] += 1,
                (false, true) => outdeg[j] += 1,
                // Anti-parallel pair: a 2-cycle.
                (true, true) => return false,
                // Not complete (cannot happen when called on k-cliques
                // of the underlying graph, but keep the check total).
                (false, false) => return false,
            }
        }
    }
    // A tournament is transitive iff its out-degree sequence is
    // {0, 1, ..., k-1}.
    outdeg.sort_unstable();
    outdeg.iter().enumerate().all(|(i, &d)| d == i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k2_is_any_arc() {
        let g = DiGraph::from_arcs(4, [(0, 1), (2, 3)]);
        assert_eq!(directed_communities(&g, 2), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn transitive_k4_percolates() {
        // Arcs all from smaller to larger: transitive tournament.
        let mut arcs = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                arcs.push((u, v));
            }
        }
        let g = DiGraph::from_arcs(4, arcs);
        assert_eq!(directed_communities(&g, 4), vec![vec![0, 1, 2, 3]]);
        assert_eq!(directed_communities(&g, 3), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn cyclic_triangle_excluded_but_chain_continues() {
        // Two triangles sharing an edge: one transitive, one cyclic.
        let g = DiGraph::from_arcs(4, [(0, 1), (0, 2), (1, 2), (3, 1), (2, 3)]);
        // {0,1,2} transitive; {1,2,3} has arcs 1->2, 2->3, 3->1: cyclic.
        assert_eq!(directed_communities(&g, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn antiparallel_pair_disqualifies() {
        let g = DiGraph::from_arcs(3, [(0, 1), (1, 0), (1, 2), (0, 2)]);
        assert!(directed_communities(&g, 3).is_empty());
    }

    #[test]
    fn rank_oriented_graph_matches_undirected_cpm() {
        // Orienting by a total order makes EVERY clique transitive, so
        // directed communities equal the undirected ones.
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut b = asgraph::GraphBuilder::with_nodes(14);
        for u in 0..14u32 {
            for v in (u + 1)..14 {
                if rng.random_bool(0.3) {
                    b.add_edge(u, v);
                }
            }
        }
        let und = b.build();
        let rank: Vec<u64> = (0..14).collect();
        let dig = DiGraph::orient_by_rank(&und, &rank);
        let undirected = crate::percolate(&und);
        for k in 2..=5 {
            assert_eq!(
                directed_communities(&dig, k),
                undirected.cover(k as u32),
                "k = {k}"
            );
        }
    }

    #[test]
    fn tournament_signature_detector() {
        let transitive = DiGraph::from_arcs(3, [(0, 1), (1, 2), (0, 2)]);
        assert!(is_acyclic_complete(&transitive, &[0, 1, 2]));
        let cyclic = DiGraph::from_arcs(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(!is_acyclic_complete(&cyclic, &[0, 1, 2]));
        let incomplete = DiGraph::from_arcs(3, [(0, 1)]);
        assert!(!is_acyclic_complete(&incomplete, &[0, 1, 2]));
    }
}
