//! Weighted clique percolation (Farkas, Ábel, Palla, Vicsek, New J.
//! Phys. 2007) — the CFinder extension of the method the paper uses.
//!
//! In the weighted variant a k-clique only participates in percolation
//! if its *intensity* (the geometric mean of its link weights) exceeds a
//! threshold `I₀`; adjacency is unchanged (k−1 shared nodes). Setting
//! `I₀ = 0` recovers exactly the unweighted communities.
//!
//! Intensity is not monotone under taking subcliques of maximal cliques,
//! so the maximal-clique reduction of the unweighted engine does not
//! apply; this module is an intensity filter over the definitional
//! percolator ([`crate::naive::communities_where`]), which is fine for
//! the moderate `k` where the weighted variant is typically used. The
//! AS-level reproduction itself is unweighted — this module exists
//! because a production CPM library without the weighted mode would be
//! incomplete, and it doubles as an extension experiment
//! (`EXPERIMENTS.md` notes it as future-work coverage).

use asgraph::weighted::WeightedGraph;
use asgraph::NodeId;

/// The weighted k-clique communities of `g` at a single `k`, keeping
/// only k-cliques with intensity greater than `intensity_threshold`.
///
/// Returns sorted member lists in canonical order. `k < 2` yields no
/// communities.
///
/// # Panics
///
/// Panics if `intensity_threshold` is negative or NaN.
///
/// # Example
///
/// ```
/// use asgraph::weighted::WeightedGraphBuilder;
/// use cpm::weighted::weighted_communities;
///
/// // Two triangles sharing an edge; one is strong, one is weak.
/// let mut b = WeightedGraphBuilder::new();
/// b.add_edge(0, 1, 10.0);
/// b.add_edge(0, 2, 10.0);
/// b.add_edge(1, 2, 10.0);
/// b.add_edge(1, 3, 0.1);
/// b.add_edge(2, 3, 0.1);
/// let g = b.build();
/// // Unthresholded: both triangles percolate together.
/// assert_eq!(weighted_communities(&g, 3, 0.0), vec![vec![0, 1, 2, 3]]);
/// // Thresholded: only the strong triangle survives.
/// assert_eq!(weighted_communities(&g, 3, 1.0), vec![vec![0, 1, 2]]);
/// ```
pub fn weighted_communities(
    g: &WeightedGraph,
    k: usize,
    intensity_threshold: f64,
) -> Vec<Vec<NodeId>> {
    assert!(
        intensity_threshold >= 0.0,
        "intensity threshold must be non-negative, got {intensity_threshold}"
    );
    crate::naive::communities_where(g.graph(), k, |c| {
        let intensity = g
            .clique_intensity(c)
            .expect("k-clique is a clique by construction");
        intensity > intensity_threshold
    })
}

/// Sweeps the intensity threshold and reports `(threshold,
/// community_count, covered_nodes)` rows — the diagnostic CFinder uses
/// to pick `I₀` (choose the threshold just below the point where the
/// giant community breaks apart).
pub fn threshold_sweep(
    g: &WeightedGraph,
    k: usize,
    thresholds: &[f64],
) -> Vec<(f64, usize, usize)> {
    thresholds
        .iter()
        .map(|&t| {
            let comms = weighted_communities(g, k, t);
            let covered: usize = comms.iter().map(Vec::len).sum();
            (t, comms.len(), covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::weighted::WeightedGraphBuilder;

    fn uniform(g: &asgraph::Graph, w: f64) -> WeightedGraph {
        let mut b = WeightedGraphBuilder::with_nodes(g.node_count());
        for (u, v) in g.edges() {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    #[test]
    fn zero_threshold_matches_unweighted() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut b = asgraph::GraphBuilder::with_nodes(14);
        for u in 0..14u32 {
            for v in (u + 1)..14 {
                if rng.random_bool(0.3) {
                    b.add_edge(u, v);
                }
            }
        }
        let g = b.build();
        let wg = uniform(&g, 1.0);
        for k in 2..=5 {
            let weighted = weighted_communities(&wg, k, 0.0);
            let unweighted = crate::naive::naive_communities(&g, k);
            assert_eq!(weighted, unweighted, "k = {k}");
        }
    }

    #[test]
    fn high_threshold_removes_everything() {
        let g = asgraph::Graph::complete(5);
        let wg = uniform(&g, 2.0);
        assert!(weighted_communities(&wg, 3, 100.0).is_empty());
        assert_eq!(weighted_communities(&wg, 3, 1.0).len(), 1);
    }

    #[test]
    fn threshold_splits_communities() {
        // A strong K4 and a weak K4 sharing a strong edge-pair bridge.
        let mut b = WeightedGraphBuilder::new();
        let strong = [0u32, 1, 2, 3];
        let weak = [3u32, 4, 5, 6];
        for (i, &u) in strong.iter().enumerate() {
            for &v in &strong[i + 1..] {
                b.add_edge(u, v, 5.0);
            }
        }
        for (i, &u) in weak.iter().enumerate() {
            for &v in &weak[i + 1..] {
                if !(u == 3 && v == 3) {
                    b.add_edge(u, v, 0.2);
                }
            }
        }
        let g = b.build();
        let all = weighted_communities(&g, 3, 0.0);
        assert_eq!(all.len(), 2); // they only share a vertex at k=3
        let filtered = weighted_communities(&g, 3, 1.0);
        assert_eq!(filtered, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn sweep_is_monotone_in_coverage() {
        let g = asgraph::Graph::complete(6);
        let mut b = WeightedGraphBuilder::new();
        let mut w = 0.5;
        for (u, v) in g.edges() {
            b.add_edge(u, v, w);
            w += 0.2;
        }
        let wg = b.build();
        let rows = threshold_sweep(&wg, 3, &[0.0, 0.5, 1.0, 2.0, 10.0]);
        for pair in rows.windows(2) {
            assert!(pair[0].2 >= pair[1].2, "coverage grew with threshold");
        }
        assert_eq!(rows[0].1, 1);
        assert_eq!(rows.last().unwrap().1, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_panics() {
        let g = asgraph::Graph::complete(3);
        let wg = uniform(&g, 1.0);
        let _ = weighted_communities(&wg, 3, -1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_threshold_panics() {
        let g = asgraph::Graph::complete(3);
        let wg = uniform(&g, 1.0);
        let _ = weighted_communities(&wg, 3, f64::NAN);
    }

    #[test]
    fn k_below_two_is_empty() {
        let g = asgraph::Graph::complete(3);
        let wg = uniform(&g, 1.0);
        assert!(weighted_communities(&wg, 0, 0.0).is_empty());
        assert!(weighted_communities(&wg, 1, 0.0).is_empty());
    }
}
