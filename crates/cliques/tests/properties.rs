//! Property tests: all enumeration variants agree and satisfy the
//! definition of maximal cliques.

use asgraph::{Graph, NodeId};
use cliques::bron_kerbosch::{basic, pivot};
use cliques::kclique::{count_k_cliques, enumerate_k_cliques};
use cliques::parallel::max_cliques_parallel;
use cliques::{max_cliques, CliqueSet, Kernel};
use exec::CancelToken;
use proptest::prelude::*;

fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

fn canonical(mut s: CliqueSet) -> CliqueSet {
    s.sort_canonical();
    s
}

/// The driver collected into a set, with a token nobody trips.
fn enumerate(g: &Graph, threads: usize, kernel: Kernel) -> CliqueSet {
    let mut set = CliqueSet::new();
    cliques::consume_max_cliques(g, threads, kernel, &CancelToken::new(), &mut set)
        .expect("a fresh token never trips");
    set
}

proptest! {
    /// basic == pivot == driver (one worker and three) on arbitrary
    /// small graphs.
    #[test]
    fn variants_agree(edges in edge_soup(18, 80)) {
        let g = Graph::from_edges(18, edges);
        let b = canonical(basic(&g));
        let p = canonical(pivot(&g));
        let d = canonical(max_cliques(&g));
        let par = canonical(max_cliques_parallel(&g, 3));
        prop_assert_eq!(&b, &p);
        prop_assert_eq!(&b, &d);
        prop_assert_eq!(&b, &par);
    }

    /// The bitset and merge set kernels are interchangeable: identical
    /// cliques in the identical emission order (not merely set-equal),
    /// on one worker and on three, and both agree with the kernel-free
    /// textbook recursion.
    #[test]
    fn set_kernels_equivalent(edges in edge_soup(20, 90)) {
        let g = Graph::from_edges(20, edges);
        let merge = enumerate(&g, 1, Kernel::Merge);
        let bitset = enumerate(&g, 1, Kernel::Bitset);
        let auto = enumerate(&g, 1, Kernel::Auto);
        prop_assert_eq!(&merge, &bitset);
        prop_assert_eq!(&merge, &auto);

        // Work stealing keeps the sequential order under every kernel.
        for kernel in [Kernel::Bitset, Kernel::Merge] {
            let par = enumerate(&g, 3, kernel);
            prop_assert_eq!(&par, &merge);
        }

        // And the kernelled enumerations match the 1973 recursion.
        prop_assert_eq!(canonical(bitset), canonical(basic(&g)));
    }

    /// Every reported clique is a clique and is maximal; every vertex
    /// appears in at least one maximal clique.
    #[test]
    fn outputs_are_maximal_cliques(edges in edge_soup(16, 70)) {
        let g = Graph::from_edges(16, edges);
        let cliques = max_cliques(&g);
        let mut covered = vec![false; g.node_count()];
        for c in cliques.iter() {
            for (i, &u) in c.iter().enumerate() {
                covered[u as usize] = true;
                for &v in &c[i + 1..] {
                    prop_assert!(g.has_edge(u, v));
                }
            }
            for w in g.node_ids() {
                if !c.contains(&w) {
                    prop_assert!(!c.iter().all(|&u| g.has_edge(u, w)));
                }
            }
        }
        prop_assert!(covered.iter().all(|&x| x));
    }

    /// No duplicate maximal cliques.
    #[test]
    fn no_duplicates(edges in edge_soup(16, 70)) {
        let g = Graph::from_edges(16, edges);
        let cliques = canonical(max_cliques(&g));
        let mut all: Vec<Vec<NodeId>> = cliques.iter().map(<[NodeId]>::to_vec).collect();
        let before = all.len();
        all.dedup();
        prop_assert_eq!(all.len(), before);
    }

    /// Every k-clique extends to some maximal clique, and every k-subset of
    /// a maximal clique is a k-clique: cross-check counts via containment.
    #[test]
    fn kcliques_consistent_with_maximal(edges in edge_soup(12, 40), k in 2usize..5) {
        let g = Graph::from_edges(12, edges);
        let maximal = max_cliques(&g);
        for c in enumerate_k_cliques(&g, k) {
            let inside_some = maximal
                .iter()
                .any(|m| c.iter().all(|v| m.binary_search(v).is_ok()));
            prop_assert!(inside_some, "k-clique {c:?} not inside any maximal clique");
        }
        // If a maximal clique of size >= k exists, there is at least one
        // k-clique.
        if maximal.iter().any(|m| m.len() >= k) {
            prop_assert!(count_k_cliques(&g, k) > 0);
        }
    }

    /// The largest maximal clique size equals the largest k with any
    /// k-clique.
    #[test]
    fn max_clique_size_agrees(edges in edge_soup(12, 40)) {
        let g = Graph::from_edges(12, edges);
        let maximal = max_cliques(&g);
        let omega = maximal.max_size();
        if g.node_count() > 0 {
            prop_assert!(count_k_cliques(&g, omega) > 0);
            prop_assert_eq!(count_k_cliques(&g, omega + 1), 0);
        }
    }
}
