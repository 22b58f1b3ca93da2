//! The Bron–Kerbosch family of maximal-clique enumerators.
//!
//! Three variants with identical output (asserted by property tests):
//!
//! - [`basic`] — the 1973 recursion, no pivoting. Exponentially slower on
//!   dense neighbourhoods; kept as the ground-truth oracle and as an
//!   ablation point for the benchmarks.
//! - [`pivot`] — Tomita–Tanaka–Takahashi pivoting: recurse only on
//!   `P \ N(u)` for a pivot `u` maximising `|P ∩ N(u)|`, giving the
//!   `O(3^{n/3})` worst-case optimum.
//! - [`degeneracy`] — Eppstein–Löffler–Strash: the outermost level walks a
//!   degeneracy ordering so each top-level subproblem has at most
//!   `degeneracy(G)` candidate vertices. The right default for sparse
//!   power-law graphs like the Internet AS topology.
//!
//! All sets (`P`, `X`, neighbour lists) are sorted vectors; intersections
//! are linear merges.

use crate::clique_set::CliqueSet;
use crate::kernel::{top_level_visit_bitset, BitsetScratch, Kernel};
use asgraph::{Graph, NodeId};
use std::ops::ControlFlow;

/// Intersection of a sorted slice with a sorted slice, into a fresh vec.
fn intersect(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Size of the intersection of two sorted slices.
fn intersect_count(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Enumerates maximal cliques with the unpivoted Bron–Kerbosch recursion.
///
/// Prefer [`degeneracy`] for anything but tiny graphs; this variant exists
/// as an oracle and ablation baseline.
pub fn basic(g: &Graph) -> CliqueSet {
    let mut out = CliqueSet::new();
    if g.node_count() == 0 {
        return out;
    }
    let p: Vec<NodeId> = g.node_ids().collect();
    let mut r = Vec::new();
    basic_rec(g, &mut r, p, Vec::new(), &mut out);
    out
}

fn basic_rec(
    g: &Graph,
    r: &mut Vec<NodeId>,
    p: Vec<NodeId>,
    mut x: Vec<NodeId>,
    out: &mut CliqueSet,
) {
    if p.is_empty() && x.is_empty() {
        out.push(r);
        return;
    }
    // Walk P with a cursor: `p[i..]` is the not-yet-processed tail, so no
    // O(n) front shift per iteration (v itself is excluded from the
    // recursive P by `∩ N(v)`, since the graph has no self loops).
    for i in 0..p.len() {
        let v = p[i];
        let nv = g.neighbors(v);
        r.push(v);
        basic_rec(g, r, intersect(&p[i..], nv), intersect(&x, nv), out);
        r.pop();
        // insert v into x keeping it sorted
        let pos = x.binary_search(&v).unwrap_err();
        x.insert(pos, v);
    }
}

/// Enumerates maximal cliques with Tomita pivoting.
pub fn pivot(g: &Graph) -> CliqueSet {
    let mut out = CliqueSet::new();
    if g.node_count() == 0 {
        return out;
    }
    let p: Vec<NodeId> = g.node_ids().collect();
    let mut r = Vec::new();
    pivot_rec(g, &mut r, p, Vec::new(), &mut out);
    out
}

fn pivot_rec(g: &Graph, r: &mut Vec<NodeId>, p: Vec<NodeId>, x: Vec<NodeId>, out: &mut CliqueSet) {
    let _ = pivot_rec_visit(g, r, p, x, &mut |clique| {
        out.push(clique);
        ControlFlow::Continue(())
    });
}

/// The pivoted recursion in visitor form: maximal cliques are handed to
/// `visit` as they are found, without being collected anywhere. The
/// visitor can stop the whole enumeration by returning
/// [`ControlFlow::Break`].
fn pivot_rec_visit<F>(
    g: &Graph,
    r: &mut Vec<NodeId>,
    p: Vec<NodeId>,
    mut x: Vec<NodeId>,
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    if p.is_empty() && x.is_empty() {
        return visit(r);
    }
    // Pivot: u in P ∪ X maximising |P ∩ N(u)|.
    let pivot_vertex = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| intersect_count(&p, g.neighbors(u)))
        .expect("P ∪ X non-empty here");
    let np = g.neighbors(pivot_vertex);

    // Candidates: P \ N(pivot).
    let candidates: Vec<NodeId> = {
        let mut out = Vec::new();
        let mut j = 0;
        for &v in &p {
            while j < np.len() && np[j] < v {
                j += 1;
            }
            if j >= np.len() || np[j] != v {
                out.push(v);
            }
        }
        out
    };

    let mut p_cur = p;
    for v in candidates {
        let nv = g.neighbors(v);
        r.push(v);
        let flow = pivot_rec_visit(g, r, intersect(&p_cur, nv), intersect(&x, nv), visit);
        r.pop();
        flow?;
        let pos = p_cur.binary_search(&v).expect("v still in P");
        p_cur.remove(pos);
        let pos = x.binary_search(&v).unwrap_err();
        x.insert(pos, v);
    }
    ControlFlow::Continue(())
}

/// Enumerates maximal cliques with the degeneracy-ordered outer loop and
/// pivoting inside — the recommended variant for sparse graphs.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use cliques::bron_kerbosch::degeneracy;
///
/// let g = Graph::complete(4);
/// let cliques = degeneracy(&g);
/// assert_eq!(cliques.len(), 1);
/// assert_eq!(cliques.get(0), &[0, 1, 2, 3]);
/// ```
pub fn degeneracy(g: &Graph) -> CliqueSet {
    degeneracy_with(g, Kernel::Auto)
}

/// [`degeneracy`] with an explicit set [`Kernel`].
///
/// All kernels produce identical cliques in identical order (the bitset
/// kernel replicates the merge kernel's recursion tree exactly); `Auto`
/// decides per subproblem from the local vertex-set size.
pub fn degeneracy_with(g: &Graph, kernel: Kernel) -> CliqueSet {
    let mut out = CliqueSet::new();
    crate::consume_max_cliques(g, kernel, &mut out);
    out
}

/// Kernel dispatch for one top-level subproblem: the bitset kernel when
/// the local vertex set (all neighbours of `v`) fits the kernel's
/// threshold, the merge kernel otherwise.
pub(crate) fn top_level_visit_with<F>(
    g: &Graph,
    v: NodeId,
    rank: &[u32],
    kernel: Kernel,
    scratch: &mut BitsetScratch,
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    if kernel.use_bitset(g.degree(v)) {
        top_level_visit_bitset(g, v, rank, scratch, visit)
    } else {
        top_level_visit(g, v, rank, visit)
    }
}

/// The top-level subproblem of the degeneracy variant for vertex `v`
/// (P = later neighbours, X = earlier neighbours, R = {v}) on the merge
/// kernel: cliques are passed to `visit` as they are found.
pub(crate) fn top_level_visit<F>(
    g: &Graph,
    v: NodeId,
    rank: &[u32],
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    let rv = rank[v as usize];
    let mut p = Vec::new();
    let mut x = Vec::new();
    for &w in g.neighbors(v) {
        if rank[w as usize] > rv {
            p.push(w);
        } else {
            x.push(w);
        }
    }
    // Neighbour lists are sorted by id, so p and x are too.
    let mut r = vec![v];
    pivot_rec_visit(g, &mut r, p, x, visit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(mut s: CliqueSet) -> CliqueSet {
        s.sort_canonical();
        s
    }

    fn all_variants(g: &Graph) -> (CliqueSet, CliqueSet, CliqueSet) {
        (sorted(basic(g)), sorted(pivot(g)), sorted(degeneracy(g)))
    }

    #[test]
    fn empty_graph_has_no_cliques() {
        let g = Graph::empty(0);
        assert!(basic(&g).is_empty());
        assert!(pivot(&g).is_empty());
        assert!(degeneracy(&g).is_empty());
    }

    #[test]
    fn isolated_vertices_are_maximal_singletons() {
        let g = Graph::empty(3);
        let (b, p, d) = all_variants(&g);
        assert_eq!(b.len(), 3);
        assert_eq!(b, p);
        assert_eq!(b, d);
        assert_eq!(b.get(0), &[0]);
    }

    #[test]
    fn single_clique() {
        let g = Graph::complete(5);
        let (b, p, d) = all_variants(&g);
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(0), &[0, 1, 2, 3, 4]);
        assert_eq!(b, p);
        assert_eq!(b, d);
    }

    #[test]
    fn two_triangles_sharing_edge() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let (b, p, d) = all_variants(&g);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), &[0, 1, 2]);
        assert_eq!(b.get(1), &[1, 2, 3]);
        assert_eq!(b, p);
        assert_eq!(b, d);
    }

    #[test]
    fn path_graph_cliques_are_edges() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let (b, p, d) = all_variants(&g);
        assert_eq!(b.len(), 3);
        assert!(b.iter().all(|c| c.len() == 2));
        assert_eq!(b, p);
        assert_eq!(b, d);
    }

    #[test]
    fn star_graph() {
        // K1,4: maximal cliques are the 4 edges.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let (b, p, d) = all_variants(&g);
        assert_eq!(b.len(), 4);
        assert_eq!(b, p);
        assert_eq!(b, d);
    }

    #[test]
    fn moon_moser_graph() {
        // K_{3x3} cocktail-party style: complete 3-partite graph K(2,2,2)
        // has 2*2*2 = 8 maximal cliques (Moon–Moser bound for n=6).
        let mut b = asgraph::GraphBuilder::with_nodes(6);
        let parts = [[0u32, 1], [2, 3], [4, 5]];
        for (i, pa) in parts.iter().enumerate() {
            for pb in parts.iter().skip(i + 1) {
                for &u in pa {
                    for &v in pb {
                        b.add_edge(u, v);
                    }
                }
            }
        }
        let g = b.build();
        let (bb, pp, dd) = all_variants(&g);
        assert_eq!(bb.len(), 8);
        assert!(bb.iter().all(|c| c.len() == 3));
        assert_eq!(bb, pp);
        assert_eq!(bb, dd);
    }

    #[test]
    fn bitset_and_merge_kernels_emit_identically() {
        // Not just the same cliques: the same cliques in the same order,
        // because the bitset kernel replicates the merge recursion tree.
        let graphs = [
            Graph::empty(4),
            Graph::complete(6),
            Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
            Graph::from_edges(
                7,
                [
                    (0, 1),
                    (0, 2),
                    (1, 2),
                    (2, 3),
                    (3, 4),
                    (3, 5),
                    (4, 5),
                    (5, 6),
                ],
            ),
        ];
        for g in &graphs {
            let merge = degeneracy_with(g, Kernel::Merge);
            let bitset = degeneracy_with(g, Kernel::Bitset);
            assert_eq!(merge, bitset, "kernels diverged on {g:?}");
            assert_eq!(merge, degeneracy_with(g, Kernel::Auto));
        }
    }

    #[test]
    fn every_output_is_a_maximal_clique() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 6),
            ],
        );
        let cliques = degeneracy(&g);
        for c in cliques.iter() {
            // clique: all pairs adjacent
            for (i, &u) in c.iter().enumerate() {
                for &v in &c[i + 1..] {
                    assert!(g.has_edge(u, v), "{u}-{v} missing in clique {c:?}");
                }
            }
            // maximal: no external vertex adjacent to all members
            for w in g.node_ids() {
                if c.contains(&w) {
                    continue;
                }
                let extends = c.iter().all(|&u| g.has_edge(u, w));
                assert!(!extends, "vertex {w} extends clique {c:?}");
            }
        }
    }
}
