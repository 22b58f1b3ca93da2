//! The paper's census regime in closed form. The cocktail-party graph
//! K(2×m) — the complete graph on 2m nodes minus a perfect matching —
//! has 2^m maximal cliques of m members, and any two are joined by a
//! chain of single flips that each share m − 1 nodes. So at every
//! k ≤ m its k-clique communities are one community holding all 2m
//! nodes. From m = 15 up every clique is big and nearly contains
//! hundreds of others, the heaviest big×big load there is; up to
//! m = 14 every clique is small, and the counting pass unions almost
//! every pair of them. Release mode only (`cargo test --release -p cpm
//! --test census -- --ignored`).

use asgraph::{Graph, NodeId};
use cpm::Mode;

#[test]
#[ignore = "census-scale; run in release mode"]
fn cocktail_parties_are_one_community_at_every_level() {
    for m in 10..=17u32 {
        let g = Graph::cocktail_party(m as usize);
        let all: Vec<NodeId> = (0..2 * m).collect();
        for mode in [Mode::Exact, Mode::Almost] {
            let one = cpm::percolate_parallel(&g, 1, mode);
            assert_eq!(one.clique_count, 1 << m, "K(2×{m})");
            assert_eq!(one.k_max(), Some(m), "K(2×{m}) {mode:?}");
            for k in 2..=m {
                assert_eq!(
                    one.cover(k),
                    vec![all.clone()],
                    "K(2×{m}) {mode:?}, k = {k}"
                );
            }
            for threads in [2, 4] {
                assert!(
                    cpm::percolate_parallel(&g, threads, mode) == one,
                    "K(2×{m}) {mode:?}: {threads} workers differ from 1"
                );
            }
        }
    }
}
