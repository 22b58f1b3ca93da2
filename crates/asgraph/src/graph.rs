//! The CSR graph type.

use std::fmt;

/// Index of a node inside a [`Graph`].
///
/// Nodes are always the dense range `0..graph.node_count()`. Mapping to
/// domain identifiers (AS numbers) is the responsibility of higher layers.
pub type NodeId = u32;

/// An immutable, undirected, unweighted simple graph in compressed
/// sparse-row form with sorted adjacency lists.
///
/// Construct one with [`GraphBuilder`](crate::GraphBuilder) or
/// [`Graph::from_edges`]. Each undirected edge `{u, v}` is stored twice
/// (once per endpoint) but counted once by [`Graph::edge_count`].
///
/// # Example
///
/// ```
/// use asgraph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(0), &[1, 3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` is the slice of `adjacency` holding `v`'s
    /// sorted neighbour list.
    offsets: Vec<usize>,
    adjacency: Vec<NodeId>,
    edge_count: usize,
}

impl Graph {
    /// Builds a graph with `n` nodes from an iterator of (possibly
    /// unnormalised) edges. Self loops and duplicate edges are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut b = crate::GraphBuilder::with_nodes(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Creates an empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            adjacency: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates a complete graph (clique) on `n` nodes.
    pub fn complete(n: usize) -> Self {
        let mut b = crate::GraphBuilder::with_nodes(n);
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// Creates the cocktail-party graph K(2×m): the complete graph on
    /// `2m` nodes minus the perfect matching `{2t, 2t + 1}`. It has
    /// exactly 2^m maximal cliques, each of `m` nodes, the clique-census
    /// blow-up regime.
    pub fn cocktail_party(m: usize) -> Self {
        let n = 2 * m as NodeId;
        let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
        crate::GraphBuilder::from_iter(pairs.filter(|(u, v)| u / 2 != v / 2)).build()
    }

    /// Creates a ring of `blocks` disjoint `K_size` blocks, each joined
    /// to the next by one bridge edge (the last member of block `i` to
    /// the first of block `i + 1`, the last block to the first). With
    /// blocks of 15, past the 14 members up to which the percolation
    /// engine counts a clique as small, every vertex is one of the
    /// engine's hubs and no two blocks share one: the sparsest hub set
    /// there is.
    pub fn clique_ring(blocks: usize, size: usize) -> Self {
        let (blocks, size) = (blocks as NodeId, size as NodeId);
        let n = blocks * size;
        let mut b = crate::GraphBuilder::with_nodes(n as usize);
        for i in 0..blocks {
            let base = size * i;
            for u in base..base + size {
                for v in u + 1..base + size {
                    b.add_edge(u, v);
                }
            }
            b.add_edge(base + size - 1, (base + size) % n);
        }
        b.build()
    }

    pub(crate) fn from_csr(offsets: Vec<usize>, adjacency: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), adjacency.len());
        let edge_count = adjacency.len() / 2;
        Graph {
            offsets,
            adjacency,
            edge_count,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted neighbour list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists. `O(log deg(u))`.
    ///
    /// Self queries (`u == v`) return `false`: the graph is simple.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates over every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            u: 0,
            idx: 0,
        }
    }

    /// Iterates over all node ids, `0..node_count()`.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        0..self.node_count() as NodeId
    }

    /// Degree summary statistics of the whole graph.
    pub fn degrees(&self) -> Degrees {
        let n = self.node_count();
        if n == 0 {
            return Degrees {
                min: 0,
                max: 0,
                mean: 0.0,
            };
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut total = 0usize;
        for v in self.node_ids() {
            let d = self.degree(v);
            min = min.min(d);
            max = max.max(d);
            total += d;
        }
        Degrees {
            min,
            max,
            mean: total as f64 / n as f64,
        }
    }

    /// Start index of `v`'s neighbour list inside the flat adjacency
    /// array (used by the weighted view to align per-entry weights).
    #[inline]
    pub(crate) fn adjacency_offset(&self, v: NodeId) -> usize {
        self.offsets[v as usize]
    }

    /// The number of common neighbours of `u` and `v` (sorted-merge
    /// intersection, `O(deg(u) + deg(v))`).
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        let (mut a, mut b) = (self.neighbors(u), self.neighbors(v));
        if a.len() > b.len() {
            std::mem::swap(&mut a, &mut b);
        }
        let mut count = 0;
        let mut j = 0;
        for &x in a {
            while j < b.len() && b[j] < x {
                j += 1;
            }
            if j < b.len() && b[j] == x {
                count += 1;
                j += 1;
            }
        }
        count
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::empty(0)
    }
}

/// Degree summary statistics returned by [`Graph::degrees`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degrees {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
}

/// Iterator over the undirected edges of a [`Graph`], produced by
/// [`Graph::edges`]. Yields each edge once as `(u, v)` with `u < v`.
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a Graph,
    u: NodeId,
    idx: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.graph.node_count() as NodeId;
        while self.u < n {
            let nbrs = self.graph.neighbors(self.u);
            while self.idx < nbrs.len() {
                let v = nbrs[self.idx];
                self.idx += 1;
                if self.u < v {
                    return Some((self.u, v));
                }
            }
            self.u += 1;
            self.idx = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.degrees().mean, 0.0);
    }

    #[test]
    fn complete_graph() {
        let g = Graph::complete(5);
        assert_eq!(g.edge_count(), 10);
        for u in 0..5 {
            assert_eq!(g.degree(u), 4);
            for v in 0..5 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn cocktail_party_graph() {
        let g = Graph::cocktail_party(3);
        assert_eq!((g.node_count(), g.edge_count()), (6, 12));
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(g.has_edge(u, v), u / 2 != v / 2);
            }
        }
    }

    #[test]
    fn clique_ring_graph() {
        let g = Graph::clique_ring(4, 5);
        // Four K5s (10 edges each) and four bridges.
        assert_eq!((g.node_count(), g.edge_count()), (20, 44));
        for u in 0..20 {
            for v in 0..20 {
                let bridge = (u % 5 == 4 && v == (u + 1) % 20) || (v % 5 == 4 && u == (v + 1) % 20);
                assert_eq!(
                    g.has_edge(u, v),
                    u != v && (u / 5 == v / 5 || bridge),
                    "{u} {v}"
                );
            }
        }
    }

    #[test]
    fn triangle_edges_once_each() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(6, [(3, 1), (3, 5), (3, 0), (3, 4)]);
        assert_eq!(g.neighbors(3), &[0, 1, 4, 5]);
    }

    #[test]
    fn self_loop_query_is_false() {
        let g = Graph::complete(3);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn common_neighbors() {
        // 0 and 1 share neighbours {2, 3}.
        let g = Graph::from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]);
        assert_eq!(g.common_neighbor_count(0, 1), 2);
        assert_eq!(g.common_neighbor_count(1, 0), 2);
        assert_eq!(g.common_neighbor_count(0, 4), 0);
    }

    #[test]
    fn degree_stats() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        let d = g.degrees();
        assert_eq!(d.min, 1);
        assert_eq!(d.max, 3);
        assert!((d.mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = Graph::complete(2);
        let s = format!("{g:?}");
        assert!(s.contains("Graph"));
    }
}
