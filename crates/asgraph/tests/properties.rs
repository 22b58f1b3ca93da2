//! Property-based tests for the graph substrate.

use asgraph::components::{connected_components, is_connected};
use asgraph::metrics::{community_metrics, triangle_count};
use asgraph::ordering::{degeneracy_order, k_core_members};
use asgraph::subgraph::{induced, internal_edge_count};
use asgraph::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a random edge soup over up to `n` nodes.
fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

proptest! {
    /// Building is idempotent and normalising: rebuilding a built graph's
    /// edge set reproduces the graph.
    #[test]
    fn build_normalises(edges in edge_soup(40, 200)) {
        let mut b = GraphBuilder::new();
        b.add_edges(edges.iter().copied());
        let g = b.build();
        let g2 = Graph::from_edges(g.node_count(), g.edges());
        prop_assert_eq!(g, g2);
    }

    /// The builder's neighbour lists are strictly ascending and
    /// symmetric, whatever the soup holds: self-loops, repeats, both
    /// orientations.
    #[test]
    fn built_neighbour_lists_are_sorted_and_symmetric(edges in edge_soup(30, 200)) {
        let g = GraphBuilder::from_iter(edges.iter().copied()).build();
        for u in g.node_ids() {
            let list = g.neighbors(u);
            prop_assert!(list.windows(2).all(|w| w[0] < w[1]), "{u}: {list:?}");
            for &v in list {
                prop_assert!(v != u);
                prop_assert!(g.neighbors(v).binary_search(&u).is_ok(), "{u}-{v} one-sided");
            }
        }
        let expect: HashSet<(NodeId, NodeId)> = edges
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        prop_assert_eq!(g.edges().collect::<HashSet<_>>(), expect);
    }

    /// Handshake lemma: sum of degrees equals twice the edge count.
    #[test]
    fn handshake(edges in edge_soup(40, 200)) {
        let g = Graph::from_edges(40, edges);
        let degsum: usize = g.node_ids().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.edge_count());
    }

    /// has_edge agrees with the edges() enumeration.
    #[test]
    fn has_edge_consistent(edges in edge_soup(25, 120)) {
        let g = Graph::from_edges(25, edges);
        let set: HashSet<(NodeId, NodeId)> = g.edges().collect();
        for u in g.node_ids() {
            for v in g.node_ids() {
                let expect = u != v && set.contains(&(u.min(v), u.max(v)));
                prop_assert_eq!(g.has_edge(u, v), expect);
            }
        }
    }

    /// Components partition the node set and are edge-closed.
    #[test]
    fn components_partition(edges in edge_soup(30, 100)) {
        let g = Graph::from_edges(30, edges);
        let cc = connected_components(&g);
        let members = cc.members();
        let total: usize = members.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.node_count());
        for (u, v) in g.edges() {
            prop_assert!(cc.same_component(u, v));
        }
        if cc.count() == 1 {
            prop_assert!(is_connected(&g));
        }
    }

    /// Core-number invariant: inside the k-core every node has >= k
    /// internal neighbours, and the (k+1)-core is contained in the k-core.
    #[test]
    fn core_numbers_valid(edges in edge_soup(30, 150)) {
        let g = Graph::from_edges(30, edges);
        let d = degeneracy_order(&g);
        for k in 0..=d.degeneracy {
            let members = k_core_members(&g, k);
            let inset: HashSet<_> = members.iter().copied().collect();
            for &v in &members {
                let internal = g.neighbors(v).iter().filter(|w| inset.contains(w)).count();
                prop_assert!(internal >= k as usize);
            }
            if k > 0 {
                let prev: HashSet<_> = k_core_members(&g, k - 1).into_iter().collect();
                prop_assert!(inset.is_subset(&prev));
            }
        }
    }

    /// The degeneracy order really is a degeneracy order: each node has at
    /// most `degeneracy` neighbours later in the order.
    #[test]
    fn degeneracy_order_valid(edges in edge_soup(30, 150)) {
        let g = Graph::from_edges(30, edges);
        let d = degeneracy_order(&g);
        for v in g.node_ids() {
            let later = g
                .neighbors(v)
                .iter()
                .filter(|&&w| d.rank[w as usize] > d.rank[v as usize])
                .count();
            prop_assert!(later <= d.degeneracy as usize);
        }
    }

    /// Induced subgraph edges match the direct internal edge count, and the
    /// subgraph preserves adjacency through the id mapping.
    #[test]
    fn induced_subgraph_faithful(edges in edge_soup(25, 120), pick in prop::collection::vec(0u32..25, 0..15)) {
        let g = Graph::from_edges(25, edges);
        let sub = induced(&g, pick.iter().copied());
        prop_assert_eq!(
            sub.graph.edge_count(),
            internal_edge_count(&g, &sub.original_ids)
        );
        for (lu, lv) in sub.graph.edges() {
            prop_assert!(g.has_edge(sub.to_original(lu), sub.to_original(lv)));
        }
    }

    /// Community metrics sanity: density and ODF stay in [0, 1]; metrics of
    /// the full node set have zero ODF.
    #[test]
    fn metrics_in_range(edges in edge_soup(20, 100), pick in prop::collection::vec(0u32..20, 0..12)) {
        let g = Graph::from_edges(20, edges);
        let m = community_metrics(&g, &pick);
        prop_assert!((0.0..=1.0).contains(&m.link_density));
        prop_assert!((0.0..=1.0).contains(&m.average_odf));
        let all: Vec<_> = g.node_ids().collect();
        let whole = community_metrics(&g, &all);
        prop_assert_eq!(whole.average_odf, 0.0);
        prop_assert_eq!(whole.internal_edges, g.edge_count());
    }

    /// Triangle count is invariant under the formula sum over edges of
    /// common neighbours / 3.
    #[test]
    fn triangle_count_consistent(edges in edge_soup(20, 100)) {
        let g = Graph::from_edges(20, edges);
        let by_edges: usize = g
            .edges()
            .map(|(u, v)| g.common_neighbor_count(u, v))
            .sum();
        prop_assert_eq!(by_edges % 3, 0);
        prop_assert_eq!(triangle_count(&g), by_edges / 3);
    }

    /// Edge-list round trip preserves the graph exactly.
    #[test]
    fn io_round_trip(edges in edge_soup(30, 120)) {
        let g = Graph::from_edges(30, edges);
        let text = asgraph::io::to_edge_list_string(&g);
        let g2 = asgraph::io::parse_edge_list(&text).unwrap();
        // Node count may shrink if trailing nodes are isolated; compare
        // edges and degrees of surviving prefix.
        let shared = g2.node_count();
        prop_assert!(shared <= g.node_count());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        for v in 0..shared as NodeId {
            prop_assert_eq!(g.neighbors(v), g2.neighbors(v));
        }
    }
}
