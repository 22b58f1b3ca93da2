//! k-dense decomposition (Saito, Yamada, Kazama 2008).
//!
//! The k-dense subgraph `D_k` is the maximal subgraph in which every
//! *edge* `{u, v}` has at least `k − 2` common neighbours inside the
//! subgraph; its connected components are the k-dense communities. The
//! family is nested (`D_{k+1} ⊆ D_k`), sits between k-core and k-clique
//! in strictness, and — unlike CPM — yields a partition of the edges, not
//! an overlapping cover. It is the method the authors used in their
//! COMSNETS 2011 companion study of the same dataset.

use asgraph::{Graph, GraphBuilder, NodeId};

/// The k-dense communities of `g`: connected components (with at least
/// one edge) of the k-dense subgraph, as sorted member lists in canonical
/// order.
///
/// `k == 2` returns the connected components of `g` itself (every edge
/// trivially has ≥ 0 common neighbours).
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use baselines::kdense::communities;
///
/// // K4 with a pendant: at k = 3 every K4 edge lies in 2 triangles, the
/// // pendant edge in none.
/// let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]);
/// assert_eq!(communities(&g, 3), vec![vec![0, 1, 2, 3]]);
/// ```
pub fn communities(g: &Graph, k: usize) -> Vec<Vec<NodeId>> {
    let sub = k_dense_subgraph(g, k);
    let cc = asgraph::components::connected_components(&sub);
    let mut out: Vec<Vec<NodeId>> = cc.members().into_iter().filter(|m| m.len() >= 2).collect();
    out.sort_unstable();
    out
}

/// The k-dense subgraph of `g` (as a graph over the same node ids;
/// peeled nodes simply become isolated).
///
/// Runs edge peeling to a fixpoint: each round recomputes every surviving
/// edge's triangle support and drops those below `k − 2`. Worst case
/// `O(rounds · m · d_max)` — fine at AS-topology scale where few rounds
/// are needed.
pub fn k_dense_subgraph(g: &Graph, k: usize) -> Graph {
    let need = k.saturating_sub(2);
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    if need == 0 {
        return g.clone();
    }
    loop {
        // Build adjacency of the surviving subgraph.
        let mut b = GraphBuilder::with_nodes(g.node_count());
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let sub = b.build();
        let before = edges.len();
        edges.retain(|&(u, v)| sub.common_neighbor_count(u, v) >= need);
        if edges.len() == before {
            return sub;
        }
    }
}

/// The largest `k` with a non-empty k-dense subgraph, and the dense index
/// of every node (the largest `k` whose k-dense subgraph still contains
/// an edge at the node; 0 for never-included nodes).
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use baselines::kdense::dense_indices;
///
/// let (k_max, idx) = dense_indices(&Graph::complete(4));
/// assert_eq!(k_max, 4);
/// assert!(idx.iter().all(|&i| i == 4));
/// ```
pub fn dense_indices(g: &Graph) -> (usize, Vec<usize>) {
    let mut index = vec![0usize; g.node_count()];
    let mut k = 2usize;
    let mut k_max = 0usize;
    loop {
        let sub = k_dense_subgraph(g, k);
        let mut any = false;
        for v in sub.node_ids() {
            if sub.degree(v) > 0 {
                index[v as usize] = k;
                any = true;
            }
        }
        if !any {
            break;
        }
        k_max = k;
        k += 1;
        if k > g.node_count() + 2 {
            break; // safety: cannot exceed clique number + 2
        }
    }
    (k_max, index)
}

/// Convenience: sizes of the k-dense community covers for each k from 2
/// to the maximum, as `(k, community_count, node_count)` rows.
pub fn census(g: &Graph) -> Vec<(usize, usize, usize)> {
    let (k_max, _) = dense_indices(g);
    (2..=k_max)
        .map(|k| {
            let comms = communities(g, k);
            let nodes: usize = comms.iter().map(Vec::len).sum();
            (k, comms.len(), nodes)
        })
        .collect()
}

/// Checks the defining invariant of a k-dense subgraph; used by tests.
#[doc(hidden)]
pub fn is_k_dense(sub: &Graph, k: usize) -> bool {
    let need = k.saturating_sub(2);
    sub.edges()
        .all(|(u, v)| sub.common_neighbor_count(u, v) >= need)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k2_is_whole_graph() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]);
        let comms = communities(&g, 2);
        assert_eq!(comms, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn triangle_is_3_dense() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(communities(&g, 3), vec![vec![0, 1, 2]]);
        assert!(communities(&g, 4).is_empty());
    }

    #[test]
    fn clique_is_k_dense_up_to_its_size() {
        let g = Graph::complete(5);
        for k in 2..=5 {
            assert_eq!(communities(&g, k), vec![vec![0, 1, 2, 3, 4]]);
        }
        assert!(communities(&g, 6).is_empty());
    }

    #[test]
    fn pendant_edges_peeled() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        let sub = k_dense_subgraph(&g, 3);
        assert!(is_k_dense(&sub, 3));
        assert_eq!(sub.edge_count(), 3);
        assert_eq!(sub.degree(3), 0);
    }

    #[test]
    fn cascade_peeling() {
        // Two triangles sharing an edge plus a tail: at k=4 everything
        // dies (no edge has 2 common neighbours), at k=3 the tail dies.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]);
        assert_eq!(communities(&g, 3), vec![vec![0, 1, 2, 3]]);
        assert!(communities(&g, 4).is_empty());
    }

    #[test]
    fn dense_indices_nested() {
        let g = Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
            ],
        );
        let (k_max, idx) = dense_indices(&g);
        assert_eq!(k_max, 4);
        // K4 members have index 4; the triangle {3,4,5} gives 3/4 mixed.
        assert_eq!(idx[0], 4);
        assert_eq!(idx[4], 3);
        assert_eq!(idx[5], 3);
    }

    #[test]
    fn census_rows() {
        let g = Graph::complete(4);
        let rows = census(&g);
        assert_eq!(rows, vec![(2, 1, 4), (3, 1, 4), (4, 1, 4)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert!(communities(&g, 3).is_empty());
        let (k_max, idx) = dense_indices(&g);
        assert_eq!(k_max, 0);
        assert!(idx.iter().all(|&i| i == 0));
    }
}
