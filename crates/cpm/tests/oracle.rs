//! Cross-validation of the fast percolation against the literal
//! definition, plus the paper's structural invariants as properties.

use asgraph::{Graph, NodeId};
use cpm::naive::naive_communities;
use cpm::{percolate, Mode};
use proptest::prelude::*;

fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

proptest! {
    /// The maximal-clique reduction equals the literal Palla definition
    /// for every k on random graphs.
    #[test]
    fn fast_cpm_matches_definition(edges in edge_soup(14, 50)) {
        let g = Graph::from_edges(14, edges);
        let fast = percolate(&g);
        let k_hi = fast.k_max().unwrap_or(2).min(7);
        for k in 2..=k_hi {
            let expected = naive_communities(&g, k as usize);
            let got = fast.cover(k);
            prop_assert_eq!(got, expected, "k = {}", k);
        }
        // Above k_max there must be nothing.
        if let Some(km) = fast.k_max() {
            prop_assert!(naive_communities(&g, km as usize + 1).is_empty());
        }
    }

    /// Theorem 1 (nesting): every k-clique community is contained in
    /// exactly one (k-1)-clique community, and the recorded parent is it.
    #[test]
    fn nesting_theorem(edges in edge_soup(16, 60)) {
        let g = Graph::from_edges(16, edges);
        let result = percolate(&g);
        for (id, c) in result.iter() {
            if id.k == 2 {
                prop_assert!(c.parent.is_none());
                continue;
            }
            let below = result.level(id.k - 1).expect("level k-1 exists");
            // Count how many (k-1)-communities fully contain this one.
            let containers: Vec<usize> = below
                .communities
                .iter()
                .enumerate()
                .filter(|(_, p)| c.members.iter().all(|v| p.contains(*v)))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(containers.len(), 1, "community {} has {} containers", id, containers.len());
            prop_assert_eq!(Some(containers[0] as u32), c.parent);
        }
    }

    /// Communities are what they claim: each is a union of maximal cliques
    /// of size >= k, each member appears in some clique of the community,
    /// and all community cliques chain through >= k-1 overlaps.
    #[test]
    fn communities_are_clique_unions(edges in edge_soup(14, 50)) {
        let g = Graph::from_edges(14, edges);
        let result = percolate(&g);
        // Clique ids are stream ordinals — positions in the sequential
        // enumeration order — recovered here by one more sequential pass.
        let mut stream: Vec<Vec<NodeId>> = Vec::new();
        let mut collect = |c: &[NodeId]| stream.push(c.to_vec());
        cliques::consume_max_cliques(&g, 1, cliques::Kernel::Auto, &exec::CancelToken::new(), &mut collect)
            .expect("a fresh token never trips");
        prop_assert_eq!(stream.len(), result.clique_count);
        for (id, c) in result.iter() {
            let k = id.k as usize;
            prop_assert!(c.size() >= k, "community smaller than k");
            let mut union: Vec<NodeId> = Vec::new();
            for &ci in &c.clique_ids {
                let clique = &stream[ci as usize];
                prop_assert!(clique.len() >= k);
                union.extend_from_slice(clique);
            }
            union.sort_unstable();
            union.dedup();
            prop_assert_eq!(&union, &c.members);
        }
    }

    /// Monotone community counts never jump down to zero and back: levels
    /// run contiguously 2..=k_max.
    #[test]
    fn levels_are_contiguous(edges in edge_soup(14, 50)) {
        let g = Graph::from_edges(14, edges);
        let result = percolate(&g);
        for (i, level) in result.levels.iter().enumerate() {
            prop_assert_eq!(level.k as usize, i + 2);
            prop_assert!(!level.communities.is_empty(), "empty level {}", level.k);
        }
    }

    /// At k=2 the communities are exactly the connected components with at
    /// least one edge.
    #[test]
    fn k2_is_connected_components(edges in edge_soup(16, 60)) {
        let g = Graph::from_edges(16, edges);
        let result = percolate(&g);
        let cc = asgraph::components::connected_components(&g);
        let mut expected: Vec<Vec<NodeId>> = cc
            .members()
            .into_iter()
            .filter(|m| m.len() >= 2)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(result.cover(2), expected);
    }

    /// The pooled parallel pipeline is bit-identical to the sequential
    /// one — full `CpmResult`, tree parents included — at every tested
    /// worker count, fixed or auto-resolved, in both modes.
    #[test]
    fn parallel_is_bit_identical_across_thread_counts(edges in edge_soup(14, 50)) {
        let g = Graph::from_edges(14, edges);
        prop_assert_eq!(&percolate(&g), &cpm::percolate_parallel(&g, 1, Mode::Exact));
        for mode in [Mode::Exact, Mode::Almost] {
            let seq = cpm::percolate_parallel(&g, 1, mode);
            for threads in [
                exec::Threads::Fixed(2),
                exec::Threads::Fixed(4),
                exec::Threads::Fixed(7),
                exec::Threads::Auto,
            ] {
                let par = cpm::percolate_parallel(&g, threads, mode);
                prop_assert_eq!(&seq, &par, "{} {} threads", mode, threads);
            }
        }
    }

    /// The single-level query — level `k` of the all-k sweep, the
    /// projection that replaced the `percolate_at` entry — comes out
    /// sorted and equals the literal definition at any `k`, above the
    /// top level included.
    #[test]
    fn percolate_at_agrees_with_sweep_and_definition(edges in edge_soup(14, 50), k in 2usize..6) {
        let g = Graph::from_edges(14, edges);
        let single = percolate(&g).cover(k as u32);
        prop_assert!(single.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(&single, &naive_communities(&g, k));
    }
}
