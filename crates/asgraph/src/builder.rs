//! Normalising builder for [`Graph`].

use crate::graph::{Graph, NodeId};

/// Accumulates raw edges and normalises them into a simple [`Graph`].
///
/// The builder accepts edge soup in any form — duplicates, both
/// orientations, self loops — and produces a graph with deduplicated,
/// sorted adjacency. Node count grows automatically to cover the largest
/// endpoint seen, or can be fixed up-front with
/// [`GraphBuilder::with_nodes`] (it still grows if a larger endpoint
/// arrives).
///
/// # Example
///
/// ```
/// use asgraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(2, 7);
/// b.add_edge(7, 2); // same undirected edge
/// b.add_edge(4, 4); // self loop: ignored
/// let g = b.build();
/// assert_eq!(g.node_count(), 8);
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId)>,
    n: usize,
    dropped_self_loops: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that will produce a graph with at least `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        GraphBuilder {
            edges: Vec::new(),
            n,
            dropped_self_loops: 0,
        }
    }

    /// Creates a builder expecting roughly `m` edges (capacity hint).
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(m),
            n,
            dropped_self_loops: 0,
        }
    }

    /// Records the undirected edge `{u, v}`. Self loops are dropped
    /// (counted in [`GraphBuilder::dropped_self_loops`]); duplicates are
    /// deduplicated at [`GraphBuilder::build`] time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        let needed = u.max(v) as usize + 1;
        if needed > self.n {
            self.n = needed;
        }
        if u == v {
            self.dropped_self_loops += 1;
            return self;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        self
    }

    /// Records every edge from an iterator.
    pub fn add_edges<I>(&mut self, edges: I) -> &mut Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
        self
    }

    /// Number of self loops that were dropped so far.
    pub fn dropped_self_loops(&self) -> usize {
        self.dropped_self_loops
    }

    /// Number of (not yet deduplicated) edge records.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Finalises into a [`Graph`], deduplicating edges.
    ///
    /// Consumes the builder: its edge records are sorted in place, not
    /// copied. Records added in ascending order cost the sort one
    /// linear pass.
    pub fn build(self) -> Graph {
        let n = self.n;
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();

        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut adjacency = vec![0 as NodeId; edges.len() * 2];
        for &(u, v) in &edges {
            adjacency[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // The edges are sorted and distinct, so each node first receives
        // its smaller neighbours (as the `v` of ascending `u`s), then its
        // larger ones (as the `u` of ascending `v`s): every list is
        // already strictly ascending.
        debug_assert!((0..n).all(|v| adjacency[offsets[v]..offsets[v + 1]]
            .windows(2)
            .all(|w| w[0] < w[1])));
        Graph::from_csr(offsets, adjacency)
    }
}

impl FromIterator<(NodeId, NodeId)> for GraphBuilder {
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId)>>(iter: I) -> Self {
        let mut b = GraphBuilder::new();
        b.add_edges(iter);
        b
    }
}

impl Extend<(NodeId, NodeId)> for GraphBuilder {
    fn extend<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) {
        self.add_edges(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_orientation() {
        let mut b = GraphBuilder::new();
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn self_loops_dropped_and_counted() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 3);
        b.add_edge(3, 4);
        assert_eq!(b.dropped_self_loops(), 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn isolated_nodes_preserved() {
        let mut b = GraphBuilder::with_nodes(10);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn grows_past_reserved() {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(5, 6);
        assert_eq!(b.node_count(), 7);
    }

    #[test]
    fn collect_from_iterator() {
        let b: GraphBuilder = vec![(0, 1), (1, 2)].into_iter().collect();
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn extend_builder() {
        let mut b = GraphBuilder::new();
        b.extend(vec![(0, 1), (2, 3)]);
        assert_eq!(b.raw_edge_count(), 2);
    }
}
