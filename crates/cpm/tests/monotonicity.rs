//! Metamorphic properties of clique percolation.

use asgraph::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use std::collections::HashSet;

fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    prop::collection::vec((0..n, 0..n), 1..max_edges)
}

/// Cover at level k as a set of member sets.
fn cover(g: &Graph, k: usize) -> Vec<HashSet<NodeId>> {
    cpm::percolate(g)
        .cover(k as u32)
        .into_iter()
        .map(|c| c.into_iter().collect())
        .collect()
}

proptest! {
    /// Adding an edge can only coarsen the cover: every community of G
    /// is contained in some community of G + e (new k-cliques can merge
    /// communities or create new ones, never split existing ones).
    #[test]
    fn adding_an_edge_only_coarsens(edges in edge_soup(13, 40), extra in (0u32..13, 0u32..13), k in 3usize..5) {
        let g = Graph::from_edges(13, edges.iter().copied());
        let (a, b) = extra;
        prop_assume!(a != b && !g.has_edge(a, b));
        let mut builder = GraphBuilder::with_nodes(13);
        builder.add_edges(edges.iter().copied());
        builder.add_edge(a, b);
        let g2 = builder.build();

        let before = cover(&g, k);
        let after = cover(&g2, k);
        for c in &before {
            let contained = after.iter().any(|d| c.is_subset(d));
            prop_assert!(contained, "community {c:?} split after adding edge ({a},{b})");
        }
    }

    /// The single-level query is the full sweep's level k: the same
    /// member sets, and none when the sweep has no such level.
    #[test]
    fn single_level_matches_full_sweep(edges in edge_soup(14, 50), k in 2u32..7) {
        let g = Graph::from_edges(14, edges);
        let result = cpm::percolate(&g);
        let single = result.cover(k);
        let mut level: Vec<Vec<NodeId>> = result
            .level(k)
            .map(|l| l.communities.iter().map(|c| c.members.clone()).collect())
            .unwrap_or_default();
        level.sort_unstable();
        prop_assert_eq!(&single, &level);
        prop_assert_eq!(single.is_empty(), result.k_max().is_none_or(|m| k > m));
    }

    /// Covers shrink with k: every (k+1)-community is inside some
    /// k-community (the nesting theorem, stated on covers).
    #[test]
    fn covers_shrink_with_k(edges in edge_soup(14, 50), k in 2usize..6) {
        let g = Graph::from_edges(14, edges);
        let lo = cover(&g, k);
        let hi = cover(&g, k + 1);
        for c in &hi {
            prop_assert!(lo.iter().any(|d| c.is_subset(d)));
        }
    }

    /// Isolating relabelling invariance: reversing node ids yields an
    /// isomorphic cover.
    #[test]
    fn relabelling_invariance(edges in edge_soup(12, 40), k in 2u32..5) {
        let n = 12u32;
        let g = Graph::from_edges(n as usize, edges.iter().copied());
        let flipped = Graph::from_edges(
            n as usize,
            edges.iter().map(|&(u, v)| (n - 1 - u, n - 1 - v)),
        );
        let mut a = cpm::percolate(&g).cover(k);
        let mut b: Vec<Vec<NodeId>> = cpm::percolate(&flipped)
            .cover(k)
            .into_iter()
            .map(|c| {
                let mut m: Vec<NodeId> = c.into_iter().map(|v| n - 1 - v).collect();
                m.sort_unstable();
                m
            })
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}
