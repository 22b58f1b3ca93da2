//! Exact mode against a reference that reaches big cliques.
//!
//! `cpm::naive` enumerates k-cliques, which it cannot do inside a
//! 99-clique. The reference here is the maximal-clique reduction
//! ([`cpm::naive::clique_reduction`]): per k, the components of the
//! overlap graph of the maximal cliques of size ≥ k, thresholded at
//! k−1, with every pair's overlap counted through posting lists. Planted
//! big cliques with mid-range overlaps put the pairs the almost engine
//! does not count — big×big overlaps that are not near-containments,
//! and edges shared with a clique of more than 91 members — in front of
//! exact mode's certification pass, with hub bitmaps of up to four
//! words (at most 256 hubs) and wider. Ladders of overlapping big
//! cliques with hubby small ones hold almost mode itself to the
//! reduction minus the pairs it documents as missed. Rings of disjoint
//! blocks with those planted pools spliced in make the hub set sparse:
//! most components share no hub.
//!
//! The scale tests run in release mode only:
//! `cargo test --release -p cpm --test certify -- --ignored`.

use asgraph::{Graph, GraphBuilder, NodeId};
use cliques::CliqueSet;
use cpm::consume::{MISS_DEPTH, SMALL_FULL};
use cpm::naive::{clique_reduction, reduction_where};
use cpm::{divergence, CpmResult, FusedPercolator, Mode};
use proptest::prelude::*;
use rand::prelude::*;

/// [`clique_reduction`] without the pairs almost mode does not count (the
/// `consume` module docs): a big×big pair whose smaller side misses more
/// than [`MISS_DEPTH`] of its own members is seen only through the edge
/// keys, so it joins at levels 2 and 3 alone. Holds while no clique has
/// more than 91 members (larger ones emit no edge keys).
fn almost_reference(set: &CliqueSet) -> Vec<Vec<Vec<NodeId>>> {
    reduction_where(set, |a, b, m| {
        let smaller = a.min(b);
        if smaller > SMALL_FULL && m > 2 && smaller - m > MISS_DEPTH {
            2
        } else {
            m
        }
    })
}

/// Percolates the enumerated cliques of an `n`-vertex graph in `mode`
/// over `threads` workers (one enumeration serves every run).
fn percolate(n: usize, set: &CliqueSet, mode: Mode, threads: usize) -> CpmResult {
    let mut p = FusedPercolator::new(n, mode);
    for c in set {
        p.push(c);
    }
    p.finish(threads, None)
        .expect("uncancellable finish cannot be cancelled")
}

/// Between `count.0` and `count.1` cliques of sizes in `sizes` planted
/// over a hub pool of `pool` vertices, each drawn from a window half
/// again its size, the windows spread evenly across the pool (so
/// neighbouring cliques overlap in mid-range and together cover most of
/// it), plus `pendants` pendant vertices, each joined to `joins.0` to
/// `joins.1` members of one planted clique (small cliques sharing an
/// edge, a triangle or more with a big one).
fn planted(
    seed: u64,
    pool: u32,
    sizes: (usize, usize),
    count: (usize, usize),
    pendants: u32,
    joins: (usize, usize),
) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_nodes((pool + pendants) as usize);
    let n = rng.random_range(count.0..=count.1);
    let mut cliques: Vec<Vec<NodeId>> = Vec::new();
    for i in 0..n {
        let s = rng.random_range(sizes.0..=sizes.1);
        let span = (s + s / 2).min(pool as usize) as u32;
        let start = (pool - span) * i as u32 / (n as u32 - 1);
        let window: Vec<NodeId> = (start..start + span).collect();
        let members: Vec<NodeId> = window.choose_multiple(&mut rng, s).copied().collect();
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                b.add_edge(u, v);
            }
        }
        cliques.push(members);
    }
    for p in 0..pendants {
        let c = &cliques[rng.random_range(0..cliques.len())];
        let t = rng.random_range(joins.0..=joins.1);
        for &v in c.choose_multiple(&mut rng, t) {
            b.add_edge(pool + p, v);
        }
    }
    b.build()
}

/// The fast-path substrate: 40 hub vertices, cliques of 15–30.
fn small_pool(seed: u64) -> Graph {
    planted(seed, 40, (15, 30), (2, 4), 6, (2, 3))
}

/// The wide substrate: cliques of 15–99 over 300 hub vertices, so the
/// hub set usually passes 256 (hub bitmaps of five words) and the
/// largest cliques emit no edge keys.
fn wide_pool(seed: u64) -> Graph {
    planted(seed, 300, (15, 99), (6, 10), 6, (2, 3))
}

/// A ladder: `bigs` cliques of 15–20 members over a pool of `pool` hub
/// vertices, on windows sliding along it, plus `pendants` pendant
/// vertices each joined to 3–10 members of one planted clique (hubby
/// small cliques).
fn ladder(seed: u64, pool: u32, bigs: usize, pendants: u32) -> Graph {
    planted(seed, pool, (15, 20), (bigs, bigs), pendants, (3, 10))
}

/// A nested ladder: `bigs` cliques whose hub cores are near-prefixes of
/// one order over a pool of 40 hub vertices, as Internet hub cores nest.
/// Four to six disjoint pool pairs are never joined, and every clique
/// keeps one side of each pair inside its prefix, so the cores split
/// into up to 64 branches: a core rarely sits inside a bigger one, and
/// misses it by one to several members. Each clique also drops up to
/// two more members at random and gets a private vertex of its own,
/// which keeps it maximal and makes every near-containment miss at
/// least one member. `pendants` pendant vertices join 3–10 members of
/// one planted clique (hubby small cliques).
fn nested(seed: u64, bigs: usize, pendants: u32) -> Graph {
    const POOL: u32 = 40;
    let mut rng = StdRng::seed_from_u64(seed);
    let base = POOL + bigs as u32;
    let mut b = GraphBuilder::with_nodes((base + pendants) as usize);
    // Pool pair `p` is `{2p, 2p + 1}`.
    let pairs: Vec<u32> = (0..POOL / 2).collect();
    let splits = rng.random_range(4..=6);
    let split: Vec<u32> = pairs.choose_multiple(&mut rng, splits).copied().collect();
    let mut cliques: Vec<Vec<NodeId>> = Vec::with_capacity(bigs);
    for i in 0..bigs as u32 {
        let len = rng.random_range(20..=POOL);
        let evens: Vec<bool> = split.iter().map(|_| rng.random_bool(0.5)).collect();
        let mut members: Vec<NodeId> = (0..len)
            .filter(|&v| match split.iter().position(|&p| v >> 1 == p) {
                Some(j) => (v & 1 == 0) == evens[j],
                None => true,
            })
            .collect();
        for _ in 0..rng.random_range(0..=2u32) {
            let at = rng.random_range(0..members.len());
            members.remove(at);
        }
        members.push(POOL + i);
        for (j, &u) in members.iter().enumerate() {
            for &v in &members[j + 1..] {
                b.add_edge(u, v);
            }
        }
        cliques.push(members);
    }
    for p in 0..pendants {
        let c = &cliques[rng.random_range(0..cliques.len())];
        let t = rng.random_range(3..=10);
        for &v in c.choose_multiple(&mut rng, t) {
            b.add_edge(base + p, v);
        }
    }
    b.build()
}

/// Pool vertices `0..SPLICED` of a pool spliced into a ring block are
/// the block's first members.
const SPLICED: u32 = 6;

/// A ring of `blocks` disjoint K15s ([`Graph::clique_ring`]) with the
/// 40-hub pools of [`small_pool`] spliced into `pools` blocks picked by
/// `seed`: each pool shares its first [`SPLICED`] vertices with its
/// block, so its cliques overlap the block's K15 in up to six members,
/// which no near-containment sees: almost mode joins them at level 3
/// only, through edge keys. Every other block is a component of its own
/// at levels 3 to 15, and no two blocks share a hub. With `wide`, one
/// more block shares a vertex `v` with a clique of 92 members (no edge
/// keys) and holds a 4-clique of `v`, two more block members and a
/// member `w` of the big one: at level 3 that small clique, through the
/// edge `{v, w}`, is the big clique's only way in.
fn pooled_ring(seed: u64, blocks: usize, pools: usize, wide: bool) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let ring = Graph::clique_ring(blocks, 15);
    let mut b = GraphBuilder::with_nodes(ring.node_count());
    b.add_edges(ring.edges());
    let mut fresh = ring.node_count() as NodeId;
    let all: Vec<usize> = (0..blocks).collect();
    let picked: Vec<usize> = all.choose_multiple(&mut rng, pools + 1).copied().collect();
    for &block in &picked[..pools] {
        let base = 15 * block as NodeId;
        let pool = small_pool(rng.random());
        let at = |v: NodeId| if v < SPLICED { base + v } else { fresh + v };
        b.add_edges(pool.edges().map(|(u, v)| (at(u), at(v))));
        fresh += pool.node_count() as NodeId;
    }
    if wide {
        // Members 9..=11 of the last picked block: no pool vertex, no
        // bridge end.
        let base = 15 * picked[pools] as NodeId;
        let (v, w) = (base + 9, fresh);
        let big: Vec<NodeId> = [v].into_iter().chain(fresh..fresh + 91).collect();
        for (i, &x) in big.iter().enumerate() {
            for &y in &big[i + 1..] {
                b.add_edge(x, y);
            }
        }
        for u in [v, base + 10, base + 11] {
            b.add_edge(u, w);
        }
        b.add_edges([(v, base + 10), (v, base + 11), (base + 10, base + 11)]);
    }
    b.build()
}

/// Exact mode at 1 and 4 workers equals the reduction at every level;
/// returns the clique set and the exact result.
fn check_exact(g: &Graph) -> Result<(CliqueSet, CpmResult), TestCaseError> {
    let set = cliques::max_cliques(g);
    let one = check_set(g.node_count(), &set)?;
    Ok((set, one))
}

/// [`check_exact`] on the maximal cliques `set` of an `n`-vertex graph,
/// fed to the engine in `set`'s order.
fn check_set(n: usize, set: &CliqueSet) -> Result<CpmResult, TestCaseError> {
    let expected = clique_reduction(set);
    let one = percolate(n, set, Mode::Exact, 1);
    let four = percolate(n, set, Mode::Exact, 4);
    prop_assert!(one == four, "exact is not worker-count invariant");
    // `expected` runs from k = 2 to the largest clique size.
    prop_assert_eq!(one.k_max(), Some(expected.len() as u32 + 1));
    for (i, cover) in expected.iter().enumerate() {
        let k = i as u32 + 2;
        prop_assert_eq!(&one.cover(k), cover, "k = {}", k);
    }
    Ok(one)
}

/// Vertices in cliques above the small-clique threshold: the engine's
/// hub set.
fn hub_count(set: &CliqueSet) -> usize {
    let mut hubs: Vec<NodeId> = set
        .iter()
        .filter(|c| c.len() > SMALL_FULL)
        .flat_map(|c| c.iter().copied())
        .collect();
    hubs.sort_unstable();
    hubs.dedup();
    hubs.len()
}

proptest! {
    /// One case in four draws from the wide pool.
    #[test]
    fn exact_equals_the_reduction_on_planted_big_cliques(seed in 0u64..1 << 32, pool in 0u32..4) {
        check_exact(&if pool == 0 { wide_pool(seed) } else { small_pool(seed) })?;
    }
}

proptest! {
    /// Nested ladders of 193–230 bigs, more than three full words of the
    /// transposed big index: big×big skips a word its probe is already
    /// joined to at the probe's size and joins a word it is joined to
    /// lower with one union at the fewest misses, so a pair it drops,
    /// or joins a level too low, splits a community. Exact equals the
    /// reduction, and almost the reduction minus its documented misses,
    /// at 1 and 4 workers; exact mode's certification repairs a dropped
    /// big×big union, so the almost check is the one that catches it.
    #[test]
    fn nested_ladders_equal_the_reduction(seed in 0u64..1 << 32, bigs in 193usize..=230) {
        let g = nested(seed, bigs, 40);
        let (set, _) = check_exact(&g)?;
        let big_cliques = set.iter().filter(|c| c.len() > SMALL_FULL).count();
        prop_assert!(big_cliques > 3 * 64, "{} bigs fill fewer than three words", big_cliques);
        let expected = almost_reference(&set);
        for threads in [1, 4] {
            let almost = percolate(g.node_count(), &set, Mode::Almost, threads);
            prop_assert_eq!(almost.k_max(), Some(expected.len() as u32 + 1));
            for (i, cover) in expected.iter().enumerate() {
                let k = i as u32 + 2;
                prop_assert_eq!(&almost.cover(k), cover, "k = {}, {} workers", k, threads);
            }
        }
    }
}

proptest! {
    /// Rings of 20–40 blocks with one to four 40-hub pools spliced in
    /// and a 92-member clique that only a small clique joins at level 3:
    /// the certifier pairs components through the hubs they share, so
    /// a partner threshold one too high, or a hub index without the
    /// small cliques' hubs, splits a community here. Exact equals the
    /// reduction at 1 and 4 workers.
    #[test]
    fn exact_equals_the_reduction_on_pooled_rings(
        seed in 0u64..1 << 32,
        blocks in 20usize..=40,
        pools in 1usize..=4,
    ) {
        let g = pooled_ring(seed, blocks, pools, true);
        let (set, _) = check_exact(&g)?;
        prop_assert!(set.max_size() > 91, "no clique without edge keys");
    }
}

/// Certification carries its grouping from one level to the next. K20s
/// `A` and `B` share four vertices, so they are adjacent at level 5,
/// which almost mode misses and certification joins. A third K20 `D`
/// shares three vertices with `B` alone, so its only adjacency is at
/// level 4, with one side of the component certification made one level
/// up. The cliques arrive as `A, B, D` and as `B, A, D`, so `B` is the
/// first side of that component once and the second once: if
/// re-rooting the component at level 4 dropped either side's hubs or
/// candidates, `D` would stay apart.
#[test]
fn certification_keeps_the_components_it_merged() {
    let a: Vec<NodeId> = (0..20).collect();
    let b: Vec<NodeId> = (16..36).collect();
    let d: Vec<NodeId> = [32, 33, 34].into_iter().chain(36..53).collect();
    for order in [[&a, &b, &d], [&b, &a, &d]] {
        let mut set = CliqueSet::new();
        for c in order {
            set.push(c);
        }
        let what = if order[0] == &a { "A first" } else { "B first" };
        let exact = check_set(53, &set).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        assert_eq!(exact.cover(5).len(), 2, "{what}");
        assert_eq!(exact.cover(4).len(), 1, "{what}");
        let almost = percolate(53, &set, Mode::Almost, 1);
        assert_eq!(almost.cover(5).len(), 3, "{what}");
        assert_eq!(almost.cover(4).len(), 3, "{what}");
    }
}

/// The planted substrates really exercise certification: on a fixed
/// seed range almost mode (no certification) splits at least one exact
/// community on each pool while exact mode equals the reference, and
/// only the wide pool passes 256 hubs. On the 40-hub pool (no clique
/// past 91 members) almost mode splits exactly where
/// [`almost_reference`] says.
#[test]
fn almost_diverges_where_exact_certifies() {
    for (name, wide, seeds) in [("40-hub pool", false, 40), ("300-hub pool", true, 12)] {
        let (mut diverged, mut past_256) = (0, 0);
        for seed in 0..seeds {
            let g = if wide {
                wide_pool(seed)
            } else {
                small_pool(seed)
            };
            let (set, exact) =
                check_exact(&g).unwrap_or_else(|e| panic!("{name} seed {seed}: {e:?}"));
            let almost = percolate(g.node_count(), &set, Mode::Almost, 1);
            if !divergence(&exact, &almost).is_zero() {
                diverged += 1;
            }
            if !wide {
                assert_levels(
                    &almost,
                    &almost_reference(&set),
                    &format!("{name} seed {seed}"),
                );
            }
            if hub_count(&set) > 256 {
                past_256 += 1;
            }
        }
        assert!(diverged > 0, "{name}: almost never diverged");
        assert_eq!(past_256 > 0, wide, "{name}: more than 256 hubs");
    }
}

/// Almost mode equals the reduction minus its documented misses on
/// ladders of 500–570 big cliques (eight or nine words of the
/// transposed big index) and 120 hubby smalls, at 1 and 4 workers and
/// every level; exact mode equals the reduction. Big×small joins a
/// small to a whole word of bigs at once where big×big has made the
/// word one component, so a union dropped there, or made one level too
/// low, shows up as a split community.
#[test]
fn almost_equals_the_reduction_minus_its_misses_on_ladders() {
    for seed in 0..6 {
        let g = ladder(seed, 400, 200, 120);
        let (set, _) = check_exact(&g).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        assert!(
            set.max_size() <= 91,
            "seed {seed}: a clique without edge keys"
        );
        let bigs = set.iter().filter(|c| c.len() > SMALL_FULL).count();
        assert!(
            bigs > 7 * 64,
            "seed {seed}: {bigs} bigs fill fewer than eight words"
        );
        let expected = almost_reference(&set);
        for threads in [1, 4] {
            let almost = percolate(g.node_count(), &set, Mode::Almost, threads);
            assert_levels(
                &almost,
                &expected,
                &format!("seed {seed}, {threads} workers"),
            );
        }
    }
}

/// `r` has the covers `expected` lists, from k = 2 to its last level.
fn assert_levels(r: &CpmResult, expected: &[Vec<Vec<NodeId>>], what: &str) {
    assert_eq!(r.k_max(), Some(expected.len() as u32 + 1), "{what}");
    for (i, cover) in expected.iter().enumerate() {
        let k = i as u32 + 2;
        assert_eq!(&r.cover(k), cover, "{what}, k = {k}");
    }
}

/// A missed pair found only from the partner component's side: K99 `X`
/// absorbs the 4-clique `x` (three shared vertices, counted exactly),
/// while the 92-clique `Y` shares the edge `{98, 200}` with `x` and one
/// vertex with `X`. `Y` emits no edge keys, so almost mode leaves it
/// out of `X`'s level-3 community; certification must test `Y` against
/// the members of `X`'s component, since `X` itself is not adjacent to
/// `Y` at level 3.
#[test]
fn certification_tests_both_sides_of_a_component_pair() {
    let x: Vec<NodeId> = (0..99).collect();
    let y: Vec<NodeId> = [98, 200].into_iter().chain(300..390).collect();
    let g = union_of_cliques(390, &[x, y, vec![96, 97, 98, 200]]);
    let (set, exact) = check_exact(&g).unwrap();
    assert_eq!(exact.cover(3).len(), 1);
    let almost = percolate(g.node_count(), &set, Mode::Almost, 1);
    assert_eq!(almost.cover(3).len(), 2);
}

/// The 91-member edge-key bound on the big×big side: a K15 sharing one
/// edge with a K91 joins it at level 3 through the big cliques' edge
/// keys, which both emit; a K92 emits none, so almost mode keeps that
/// pair apart and exact mode's certification joins it. (A 2-vertex
/// overlap is no near-containment, so only the keys can see it.)
#[test]
fn big_edge_keys_stop_above_91_members() {
    for (big, almost_components) in [(91u32, 1usize), (92, 2)] {
        let k15: Vec<NodeId> = [big - 2, big - 1].into_iter().chain(200..213).collect();
        let g = union_of_cliques(213, &[(0..big).collect(), k15]);
        let (set, exact) = check_exact(&g).unwrap();
        assert_eq!(exact.cover(3).len(), 1, "K{big} exact");
        for threads in [1, 4] {
            let almost = percolate(g.node_count(), &set, Mode::Almost, threads);
            assert_eq!(
                almost.cover(3).len(),
                almost_components,
                "K{big} almost, {threads} workers"
            );
        }
    }
}

/// The graph on `n` vertices whose edges are those of the given
/// cliques.
fn union_of_cliques(n: usize, cliques: &[Vec<NodeId>]) -> Graph {
    let mut b = GraphBuilder::with_nodes(n);
    for c in cliques {
        for (i, &u) in c.iter().enumerate() {
            for &v in &c[i + 1..] {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Exact mode at 1 and 4 workers equals the reduction on the graph of
/// `config`.
fn check_preset(config: &topology::ModelConfig) {
    let g = topology::generate(config).expect("preset is valid").graph;
    check_exact(&g).unwrap_or_else(|e| panic!("{e:?}"));
}

/// The medium preset: 27,518 maximal cliques, 201 hubs.
#[test]
#[ignore = "scale; run in release mode"]
fn exact_equals_the_reduction_on_medium_7() {
    check_preset(&topology::ModelConfig::medium(7));
}

/// The full preset, the paper's scale: 68,034 maximal cliques.
#[test]
#[ignore = "scale; run in release mode"]
fn exact_equals_the_reduction_on_full_42() {
    check_preset(&topology::ModelConfig::full_scale(42));
}

/// A ring of 1,500 blocks with 150 pools spliced in: more than 22,500
/// hubs in about 1,500 components from level 3 to 15, where almost mode
/// diverges and certification must join pools to their blocks.
#[test]
#[ignore = "scale; run in release mode"]
fn exact_equals_the_reduction_on_a_pooled_ring() {
    let g = pooled_ring(7, 1_500, 150, false);
    let (set, exact) = check_exact(&g).unwrap_or_else(|e| panic!("{e:?}"));
    let almost = percolate(g.node_count(), &set, Mode::Almost, 1);
    assert!(
        !divergence(&exact, &almost).is_zero(),
        "almost mode never diverged"
    );
}
