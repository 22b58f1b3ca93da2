//! The community digest ignores internal ids and community order, so it
//! survives ingest's relabelling; nesting and refinement checks catch
//! the violations they exist for.

use kbench::digest::{check_nesting, check_refines, cover_digest, edge_digest, Level};
use kbench::gen::{AsnMap, Rng};
use kbench::system::{self, Mode};

/// A sparse random graph with a few planted cliques, so several levels
/// and overlapping communities exist.
fn planted(n: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed, 0);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.chance(0.06) {
                edges.push((u, v));
            }
        }
    }
    for size in [5u32, 6, 7, 8] {
        let members: Vec<u32> = (0..size).map(|_| rng.below(u64::from(n)) as u32).collect();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if a != b {
                    edges.push((a.min(b), a.max(b)));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

#[test]
fn digest_is_invariant_under_relabelling() {
    let n = 80;
    let edges = planted(n, 3);
    let map = AsnMap::new(11);
    let g = system::graph_from_edges(n as usize, &edges);
    let cover = system::cover(&system::percolate(&g, Mode::Exact));
    assert!(cover.len() >= 4, "planted cliques give several levels");
    check_nesting(&cover).unwrap();
    let digest = cover_digest(&cover, |v| map.asn(v));

    // Renumber every vertex, as ingest's rank order does.
    let mut order: Vec<u32> = (0..n).collect();
    Rng::new(99, 0).shuffle(&mut order);
    let mut back = vec![0u32; n as usize];
    for (old, &new) in order.iter().enumerate() {
        back[new as usize] = old as u32;
    }
    let renamed: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(u, v)| (order[u as usize], order[v as usize]))
        .collect();
    let g2 = system::graph_from_edges(n as usize, &renamed);
    let cover2 = system::cover(&system::percolate(&g2, Mode::Exact));
    assert_eq!(cover_digest(&cover2, |v| map.asn(back[v as usize])), digest);
    // Without the matching AS numbers the digest changes.
    assert_ne!(cover_digest(&cover2, |v| map.asn(v)), digest);

    // Reordering communities inside a level changes nothing either.
    let mut reversed = cover.clone();
    for l in &mut reversed {
        l.communities.reverse();
    }
    assert_eq!(cover_digest(&reversed, |v| map.asn(v)), digest);
}

#[test]
fn almost_mode_refines_exact_on_a_real_cover() {
    let edges = planted(120, 8);
    let g = system::graph_from_edges(120, &edges);
    let exact = system::cover(&system::percolate(&g, Mode::Exact));
    let almost = system::cover(&system::percolate(&g, Mode::Almost));
    check_refines(&almost, &exact).unwrap();
    check_refines(&exact, &exact).unwrap();
}

fn level(k: u32, communities: &[&[u32]], parents: &[Option<u32>]) -> Level {
    Level {
        k,
        communities: communities.iter().map(|c| c.to_vec()).collect(),
        parents: parents.to_vec(),
    }
}

#[test]
fn nesting_and_refinement_catch_violations() {
    let two = level(2, &[&[0, 1, 2, 3, 4]], &[None]);
    let good = level(3, &[&[0, 1, 2]], &[Some(0)]);
    check_nesting(&[two.clone(), good.clone()]).unwrap();
    let escapes = level(3, &[&[0, 1, 9]], &[Some(0)]);
    assert!(check_nesting(&[two.clone(), escapes]).is_err());
    let orphan = level(3, &[&[0, 1, 2]], &[None]);
    assert!(check_nesting(&[two.clone(), orphan]).is_err());
    let gap = level(4, &[&[0, 1, 2]], &[Some(0)]);
    assert!(check_nesting(&[two.clone(), gap]).is_err());

    let coarse = [level(3, &[&[0, 1, 2, 3]], &[None])];
    let split = [level(3, &[&[0, 1, 2], &[1, 2, 3]], &[None, None])];
    check_refines(&split, &coarse).unwrap();
    // A fine community straddling two coarse ones is a merge exact
    // never made.
    let merged = [level(3, &[&[0, 1], &[5, 6], &[0, 5]], &[None; 3])];
    let apart = [level(3, &[&[0, 1], &[5, 6]], &[None, None])];
    assert!(check_refines(&merged, &apart).is_err());
    // Losing a member is not a refinement either.
    let lossy = [level(3, &[&[0, 1, 2]], &[None])];
    assert!(check_refines(&lossy, &coarse).is_err());
}

#[test]
fn edge_digest_ignores_order_and_orientation() {
    let a = edge_digest(vec![(1, 2), (3, 4), (9, 5)]);
    assert_eq!(a, edge_digest(vec![(5, 9), (2, 1), (3, 4)]));
    assert_ne!(a, edge_digest(vec![(1, 2), (3, 4)]));
}
