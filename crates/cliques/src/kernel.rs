//! Set kernels for the pivoted Bron–Kerbosch recursion.
//!
//! The merge kernel (the original implementation in [`crate::bron_kerbosch`])
//! represents `P`, `X`, and neighbour lists as sorted `Vec<NodeId>` and
//! intersects them with branchy linear merges. This module adds the
//! **bitset kernel**: each top-level degeneracy subproblem remaps its local
//! vertex set (the neighbours of the outer vertex, at most
//! degree-of-`v` ≤ n vertices, typically ≤ degeneracy+1 on the `P` side)
//! to dense indices `0..m`, builds the local adjacency as `m` rows of
//! `⌈m/64⌉` machine words, and runs the whole recursion with word-wise
//! `AND` + `popcount`:
//!
//! - `P ∩ N(v)` and `X ∩ N(v)` are `w`-word `AND`s,
//! - pivot selection is a popcount scan over `P ∪ X`,
//! - `P \ N(pivot)` is `AND NOT`,
//! - moving a vertex from `P` to `X` is two bit flips.
//!
//! The recursion tree, pivot tie-breaking, and therefore the emission
//! order of cliques are *identical* to the merge kernel's: local indices
//! are assigned in ascending global-id order and the pivot scan replicates
//! `Iterator::max_by_key`'s last-max-wins rule, so the two kernels are
//! interchangeable bit for bit (property-tested in `tests/properties.rs`).
//!
//! [`Kernel`] selects between them; `Auto` picks the bitset kernel
//! whenever the local subproblem fits [`AUTO_BITSET_MAX_LOCAL`] vertices
//! (beyond that the `m × ⌈m/64⌉`-word adjacency build dominates and the
//! merge kernel's output-sensitive cost wins).

use asgraph::{Graph, NodeId};
use std::fmt;
use std::ops::ControlFlow;

/// Which set representation the clique enumeration hot path uses.
///
/// `Display` prints `auto | bitset | merge`, the label of bench rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Per-subproblem choice: bitset when the local vertex set fits
    /// [`AUTO_BITSET_MAX_LOCAL`], merge otherwise. The right default.
    #[default]
    Auto,
    /// Always the bitmap + popcount kernel.
    Bitset,
    /// Always the sorted-vector linear-merge kernel.
    Merge,
}

/// `Auto` uses the bitset kernel for subproblems with at most this many
/// local vertices. At the cap the local adjacency occupies
/// `4096 × 64 × 8 = 2 MiB` per enumerating thread — comfortably
/// cache-resident rows while covering every realistic AS-topology hub;
/// beyond it the O(m²/64)-word row build stops paying for itself on the
/// sparse tails.
pub const AUTO_BITSET_MAX_LOCAL: usize = 4096;

impl Kernel {
    /// Whether a subproblem whose local vertex set has `local` vertices
    /// should run on the bitset kernel.
    #[inline]
    #[must_use]
    pub fn use_bitset(self, local: usize) -> bool {
        match self {
            Kernel::Bitset => true,
            Kernel::Merge => false,
            Kernel::Auto => local <= AUTO_BITSET_MAX_LOCAL,
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::Auto => "auto",
            Kernel::Bitset => "bitset",
            Kernel::Merge => "merge",
        })
    }
}

const NONE: u32 = u32::MAX;

/// Reusable buffers for the bitset kernel: one per enumerating thread.
///
/// Holds the global→local remap table (graph-sized, lazily grown, reset
/// to a clean state after every subproblem), the local adjacency rows,
/// and a free pool of `P`/`X` word vectors so the recursion allocates
/// nothing in the steady state.
#[derive(Debug, Default)]
pub(crate) struct BitsetScratch {
    /// `local_of[g]` is the local index of global vertex `g` inside the
    /// current subproblem, or `NONE`.
    local_of: Vec<u32>,
    /// Local adjacency: row `a` is `rows[a*w..(a+1)*w]`.
    rows: Vec<u64>,
    /// Free list of `w`-word bitmap buffers.
    pool: Vec<Vec<u64>>,
}

fn pool_take(pool: &mut Vec<Vec<u64>>, w: usize) -> Vec<u64> {
    let mut v = pool.pop().unwrap_or_default();
    v.clear();
    v.resize(w, 0);
    v
}

/// The top-level degeneracy subproblem for outer vertex `v`, run on the
/// bitset kernel. Emits exactly the cliques, in exactly the order, of the
/// merge kernel's [`crate::bron_kerbosch::top_level_visit`].
pub(crate) fn top_level_visit_bitset<F>(
    g: &Graph,
    v: NodeId,
    rank: &[u32],
    scratch: &mut BitsetScratch,
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    let locals = g.neighbors(v);
    let m = locals.len();
    if m == 0 {
        // Isolated vertex: a maximal 1-clique.
        return visit(&[v]);
    }
    let w = m.div_ceil(64);

    if scratch.local_of.len() < g.node_count() {
        scratch.local_of.resize(g.node_count(), NONE);
    }
    for (a, &u) in locals.iter().enumerate() {
        scratch.local_of[u as usize] = a as u32;
    }

    // Local adjacency rows: probe each neighbour list through the remap
    // table, Σ deg(u) over the local set — the same order of work as one
    // level of merge intersections, paid once.
    let mut rows = std::mem::take(&mut scratch.rows);
    rows.clear();
    rows.resize(m * w, 0);
    for (a, &u) in locals.iter().enumerate() {
        let row = &mut rows[a * w..(a + 1) * w];
        for &nb in g.neighbors(u) {
            let b = scratch.local_of[nb as usize];
            if b != NONE {
                row[(b >> 6) as usize] |= 1u64 << (b & 63);
            }
        }
    }

    // P = later neighbours in degeneracy order, X = earlier. Ascending
    // local index == ascending global id, mirroring the sorted vectors of
    // the merge kernel.
    let mut p = pool_take(&mut scratch.pool, w);
    let mut x = pool_take(&mut scratch.pool, w);
    let rv = rank[v as usize];
    for (a, &u) in locals.iter().enumerate() {
        let target = if rank[u as usize] > rv {
            &mut p
        } else {
            &mut x
        };
        target[a >> 6] |= 1u64 << (a & 63);
    }

    let mut r = vec![v];
    let flow = bitset_rec(
        w,
        &rows,
        &mut p,
        &mut x,
        &mut r,
        locals,
        &mut scratch.pool,
        visit,
    );

    // Restore scratch invariants (also on early Break).
    for &u in locals {
        scratch.local_of[u as usize] = NONE;
    }
    scratch.pool.push(p);
    scratch.pool.push(x);
    scratch.rows = rows;
    flow
}

/// The pivoted recursion on word bitmaps. `rows` is the local adjacency
/// (`m` rows of `w` words), `locals` maps local index → global id.
#[allow(clippy::too_many_arguments)]
fn bitset_rec<F>(
    w: usize,
    rows: &[u64],
    p: &mut [u64],
    x: &mut [u64],
    r: &mut Vec<NodeId>,
    locals: &[NodeId],
    pool: &mut Vec<Vec<u64>>,
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&[NodeId]) -> ControlFlow<()>,
{
    if p.iter().all(|&wd| wd == 0) {
        if x.iter().all(|&wd| wd == 0) {
            return visit(r);
        }
        return ControlFlow::Continue(());
    }

    // Pivot u ∈ P ∪ X maximising |P ∩ N(u)|, scanning P then X in
    // ascending index order with >= so the *last* maximiser wins —
    // the exact tie-break of the merge kernel's max_by_key.
    let mut best: i64 = -1;
    let mut pivot = 0usize;
    for src in [&*p, &*x] {
        for (wi, &word) in src.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let u = (wi << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row = &rows[u * w..(u + 1) * w];
                let cnt: i64 = row
                    .iter()
                    .zip(p.iter())
                    .map(|(a, b)| i64::from((a & b).count_ones()))
                    .sum();
                if cnt >= best {
                    best = cnt;
                    pivot = u;
                }
            }
        }
    }

    // Candidates: P \ N(pivot), fixed before the loop.
    let mut cand = pool_take(pool, w);
    let prow = &rows[pivot * w..(pivot + 1) * w];
    for wi in 0..w {
        cand[wi] = p[wi] & !prow[wi];
    }

    for wi in 0..w {
        let mut bits = cand[wi];
        while bits != 0 {
            let v = (wi << 6) | bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let vrow = &rows[v * w..(v + 1) * w];
            let mut new_p = pool_take(pool, w);
            let mut new_x = pool_take(pool, w);
            for j in 0..w {
                new_p[j] = p[j] & vrow[j];
                new_x[j] = x[j] & vrow[j];
            }
            r.push(locals[v]);
            let flow = bitset_rec(w, rows, &mut new_p, &mut new_x, r, locals, pool, visit);
            r.pop();
            pool.push(new_p);
            pool.push(new_x);
            if flow.is_break() {
                pool.push(cand);
                return ControlFlow::Break(());
            }
            p[wi] &= !(1u64 << (v & 63));
            x[wi] |= 1u64 << (v & 63);
        }
    }
    pool.push(cand);
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_displays() {
        for (s, k) in [
            ("auto", Kernel::Auto),
            ("bitset", Kernel::Bitset),
            ("merge", Kernel::Merge),
        ] {
            assert_eq!(k.to_string(), s);
        }
        assert_eq!(Kernel::default(), Kernel::Auto);
    }

    #[test]
    fn auto_thresholds_on_local_size() {
        assert!(Kernel::Auto.use_bitset(0));
        assert!(Kernel::Auto.use_bitset(AUTO_BITSET_MAX_LOCAL));
        assert!(!Kernel::Auto.use_bitset(AUTO_BITSET_MAX_LOCAL + 1));
        assert!(Kernel::Bitset.use_bitset(usize::MAX));
        assert!(!Kernel::Merge.use_bitset(0));
    }
}
