//! Percolation-engine invariance: the fused engine must agree with the
//! literal definition on every cover, be bit-identical to itself at
//! every worker count and kernel, and leave the run resumable after a
//! cancellation mid-enumeration or mid-finish. The pool's thread census
//! after those cancellations is asserted in `tests/pool_census.rs`,
//! alone in its binary, where no sibling test can grow the pool.

use cliques::Kernel;
use cpm::naive::naive_communities;
use cpm::{FusedPercolator, Mode};
use exec::CancelToken;
use proptest::prelude::*;

fn random_graph(n: u32, p: f64, seed: u64) -> asgraph::Graph {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = asgraph::GraphBuilder::with_nodes(n as usize);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// The parallel driver reassembles work-stolen chunks in order, so the
/// result is *strictly equal* — ordinals, parents, everything — to the
/// sequential run at 1, 2, 4, and 7 workers, for both modes and every
/// kernel; and every level equals the literal definition.
#[test]
fn fused_parallel_is_bit_identical_at_every_worker_count() {
    let g = random_graph(70, 0.12, 23);
    for mode in [Mode::Exact, Mode::Almost] {
        let sequential = finished(&g, mode, 1);
        for k in 2..=sequential.k_max().unwrap_or(1) as usize + 1 {
            assert_eq!(
                sequential.cover(k as u32),
                naive_communities(&g, k),
                "{mode}: k = {k}"
            );
        }
        for threads in [1usize, 2, 4, 7] {
            assert_eq!(
                sequential,
                cpm::percolate_parallel(&g, threads, mode),
                "{mode} threads {threads}"
            );
            for kernel in [Kernel::Bitset, Kernel::Merge] {
                let token = CancelToken::new();
                let got = cpm::percolate_fused_cancellable(&g, threads, kernel, &token, mode)
                    .expect("live token never cancels");
                assert_eq!(sequential, got, "{mode} threads {threads} kernel {kernel}");
            }
        }
    }
    assert_eq!(cpm::percolate(&g), finished(&g, Mode::Exact, 1));
}

/// A run cancelled mid-enumeration drains through the normal job
/// protocol, and an immediate retry with a live token produces the
/// full, bit-identical answer — the pipeline is resumable by rerunning.
#[test]
fn fused_cancellation_leaves_the_pool_reusable_and_the_run_resumable() {
    let g = random_graph(60, 0.15, 47);
    let reference = finished(&g, Mode::Almost, 1);
    let tripped = CancelToken::new();
    tripped.cancel();
    for threads in [1usize, 2, 4] {
        for mode in [Mode::Exact, Mode::Almost] {
            assert!(
                cpm::percolate_fused_cancellable(&g, threads, Kernel::Auto, &tripped, mode)
                    .is_err(),
                "{mode} threads {threads}: tripped token must cancel"
            );
        }
        // Immediately after each cancelled run the pool must do full
        // correct work again.
        let again = cpm::percolate_parallel(&g, threads, Mode::Almost);
        assert_eq!(again, reference, "threads {threads}");
    }
}

/// A strip of `m` K4s, `{i, i + 1, i + 2, i + 3}` for `i < m`: the
/// maximal cliques are exactly these windows, and consecutive ones
/// share a triangle, so the counting pass joins all of them at level 4
/// into one community of `m + 3` nodes. At `m ≥ 8 192` the partitions
/// of levels 2 to 4 each span `m` ranks, past the parallel sweep's
/// `PAR_UNION_MIN` (8 192), so the chunk-queue merge runs, not just the
/// leader-inline one.
fn strip_graph(m: u32) -> asgraph::Graph {
    let mut b = asgraph::GraphBuilder::with_nodes(m as usize + 3);
    for u in 0..m + 3 {
        for v in u + 1..(u + 4).min(m + 3) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// `blocks` K15 blocks, consecutive blocks sharing 3 vertices (at 25
/// blocks, the wide-hub substrate of the engine's unit tests: 303
/// big-clique members, so hub bitmaps take five words; at 20, 243 fit
/// in four),
/// plus small cliques sharing an edge or a triangle with a block: a
/// fringe of 600 pendant vertices, each joined to 2 or 3 members of one
/// block, enough that the counting pass spans several ordinal chunks,
/// and K4s of hub vertices, which the enumeration emits between the
/// blocks, so small×big pairs are counted from both sides.
fn blocks_graph(blocks: u32) -> asgraph::Graph {
    const FRINGE: u32 = 600;
    let n = 12 * (blocks - 1) + 15;
    let mut b = asgraph::GraphBuilder::with_nodes((n + FRINGE) as usize);
    for i in 0..blocks {
        let base = 12 * i;
        for u in base..base + 15 {
            for v in (u + 1)..base + 15 {
                b.add_edge(u, v);
            }
        }
    }
    for j in 0..FRINGE {
        let base = 12 * (j % blocks);
        // Offsets 0, 5 and 11 apart are distinct mod 15.
        let picks = [j * 7 % 15, (j * 7 + 5) % 15, (j * 7 + 11) % 15];
        for &p in &picks[..2 + (j % 2) as usize] {
            b.add_edge(n + j, base + p);
        }
    }
    // The hub K4s: a triangle of block i plus one vertex of block i + 2.
    for i in 0..blocks - 2 {
        for a in 12 * i + 3..12 * i + 6 {
            b.add_edge(a, 12 * (i + 2) + 7);
        }
    }
    b.build()
}

/// Builds the percolator by the *sequential* sink so the engine state
/// is identical across runs; only the finish's worker count varies.
fn consumed(g: &asgraph::Graph, mode: Mode) -> FusedPercolator {
    let mut p = FusedPercolator::new(g.node_count(), mode);
    cliques::consume_max_cliques(g, 1, Kernel::Auto, &CancelToken::new(), &mut p)
        .expect("a fresh token never trips");
    p
}

/// [`consumed`], finished on `threads` workers without a token.
fn finished(g: &asgraph::Graph, mode: Mode, threads: usize) -> cpm::CpmResult {
    consumed(g, mode)
        .finish(threads, None)
        .expect("uncancellable finish cannot be cancelled")
}

/// The finish-time phases (pair detection, sweep, extraction) on the
/// pool are strictly equal — ordinals, parents, members, everything —
/// to the one-worker finish at 1, 2, 4, and 7 workers, with and
/// without a live token, for both modes: on a substrate whose level
/// partitions cross the parallel sweep's chunk-queue threshold, on the tiny
/// Internet preset, on the blocks substrate at four- and five-word hub
/// bitmaps (20 and 25 blocks), where the pooled counting pass runs over
/// several ordinal chunks, and on a ring of 300 disjoint K15s, whose
/// 4,500 hubs give extraction's and the certifier's accumulators 71
/// words. The blocks share three vertices, so level 3 is one community
/// only if every big clique keys its edges.
#[test]
fn parallel_finish_is_bit_identical_to_sequential_finish() {
    let tiny = topology::generate(&topology::ModelConfig::tiny(7))
        .expect("preset is valid")
        .graph;
    let (narrow, wide) = (blocks_graph(20), blocks_graph(25));
    for (g, blocks) in [(&narrow, 20), (&wide, 25)] {
        let hubs: std::collections::BTreeSet<u32> = cliques::max_cliques(g)
            .iter()
            .filter(|c| c.len() > cpm::consume::SMALL_FULL)
            .flat_map(|c| c.iter().copied())
            .collect();
        assert_eq!(
            hubs.len() > 256,
            blocks == 25,
            "hub bitmaps past four words"
        );
        for mode in [Mode::Exact, Mode::Almost] {
            let level3 = finished(g, mode, 1).cover(3);
            assert_eq!(level3.len(), 1, "{mode}, {blocks} blocks");
        }
        // Almost mode misses the blocks' 3-vertex overlaps at k = 4, but
        // counts every pendant K4 into its block.
        let level4 = finished(g, Mode::Almost, 1).cover(4);
        assert_eq!(level4.len(), blocks, "{blocks} blocks");
    }
    let strip = strip_graph(8_200);
    for mode in [Mode::Exact, Mode::Almost] {
        let r = finished(&strip, mode, 1);
        assert_eq!(r.clique_count, 8_200, "{mode}");
        assert_eq!(r.k_max(), Some(4), "{mode}");
        assert_eq!(r.cover(4), vec![(0..8_203).collect::<Vec<u32>>()], "{mode}");
    }
    let ring = asgraph::Graph::clique_ring(300, 15);
    let each: Vec<Vec<u32>> = (0..300).map(|i| (15 * i..15 * i + 15).collect()).collect();
    for mode in [Mode::Exact, Mode::Almost] {
        let r = finished(&ring, mode, 1);
        assert_eq!(r.k_max(), Some(15), "{mode}");
        assert_eq!(r.cover(2), vec![(0..4_500).collect::<Vec<u32>>()], "{mode}");
        for k in 3..=15 {
            assert_eq!(r.cover(k), each, "{mode} k = {k}");
        }
    }
    for g in [random_graph(70, 0.12, 23), strip, tiny, narrow, wide, ring] {
        for mode in [Mode::Exact, Mode::Almost] {
            let sequential = finished(&g, mode, 1);
            for threads in [1usize, 2, 4, 7] {
                assert_eq!(
                    sequential,
                    finished(&g, mode, threads),
                    "{mode} threads {threads}"
                );
                let token = CancelToken::new();
                let got = consumed(&g, mode)
                    .finish(threads, Some(&token))
                    .expect("live token never cancels");
                assert_eq!(sequential, got, "{mode} cancellable threads {threads}");
            }
        }
    }
}

/// A token tripped *between* enumeration and finish interrupts the
/// finish-time phases themselves, and re-consuming with a live token
/// produces the full, bit-identical answer.
#[test]
fn cancellation_mid_finish_leaves_the_pool_reusable() {
    let g = strip_graph(8_200);
    let tripped = CancelToken::new();
    tripped.cancel();
    for mode in [Mode::Exact, Mode::Almost] {
        let reference = finished(&g, mode, 1);
        for threads in [1usize, 2, 4] {
            assert!(
                consumed(&g, mode).finish(threads, Some(&tripped)).is_err(),
                "{mode} threads {threads}: tripped token must cancel the finish"
            );
            let again = consumed(&g, mode)
                .finish(threads, Some(&CancelToken::new()))
                .expect("live token never cancels");
            assert_eq!(
                again, reference,
                "{mode} threads {threads}: retry after cancel"
            );
        }
    }
}

fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

proptest! {
    /// Both modes ≡ the literal definition at every level on random
    /// soups (and `percolate` projects the same covers), with
    /// the parallel driver strictly equal to the sequential one at
    /// 2/4/7 workers.
    #[test]
    fn fused_equals_naive_across_workers(edges in edge_soup(14, 50)) {
        let g = asgraph::Graph::from_edges(14, edges);
        for mode in [Mode::Exact, Mode::Almost] {
            let fused = finished(&g, mode, 1);
            prop_assert_eq!(fused.clique_count, cliques::max_cliques(&g).len());
            for k in 2..=fused.k_max().unwrap_or(1) as usize + 1 {
                let expected = naive_communities(&g, k);
                prop_assert_eq!(&fused.cover(k as u32), &expected, "mode {} k {}", mode, k);
                if mode == Mode::Exact {
                    prop_assert_eq!(&cpm::percolate(&g).cover(k as u32), &expected, "single k {}", k);
                }
            }
            for threads in [2usize, 4, 7] {
                prop_assert_eq!(
                    &fused,
                    &cpm::percolate_parallel(&g, threads, mode),
                    "mode {} threads {}", mode, threads
                );
            }
        }
    }
}
