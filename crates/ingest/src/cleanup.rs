//! The §2.1 merge-and-cleanup pipeline.
//!
//! The paper merges several topology sources, then cleans the union:
//! duplicate links collapse, self-loops go, and (optionally) only the
//! largest connected component survives. This module does exactly that
//! over the raw endpoint pairs the parsers emitted, counting every
//! record each stage drops so the run is auditable.
//!
//! External AS numbers are densified: `asgraph` allocates `max id + 1`
//! slots, so feeding it raw 32-bit ASNs (e.g. 4200000000) would let one
//! hostile line allocate gigabytes. Instead the distinct external ids
//! are sorted and ranked, and the graph is built over the ranks; the
//! rank → ASN table is returned for mapping results back.

use crate::error::{CapKind, IngestError, IngestErrorKind};
use crate::limits::Limits;
use asgraph::{Graph, GraphBuilder};

/// Per-stage drop/keep counters for one cleanup run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanupCounters {
    /// Raw endpoint pairs entering the pipeline (sum over sources).
    pub raw_records: u64,
    /// Pairs dropped because both endpoints were the same AS.
    pub self_loops_removed: u64,
    /// Pairs dropped as duplicates of an already-kept link (orientation
    /// ignored: `a b` and `b a` are the same link).
    pub duplicates_removed: u64,
    /// Distinct AS numbers among the kept links.
    pub distinct_nodes: u64,
    /// Links kept after dedup (before any largest-CC filtering).
    pub edges: u64,
    /// Connected components among the kept links.
    pub components: u64,
    /// Nodes dropped by the largest-CC filter (0 when not applied).
    pub lcc_nodes_dropped: u64,
    /// Links dropped by the largest-CC filter (0 when not applied).
    pub lcc_edges_dropped: u64,
    /// Whether the largest-CC filter ran.
    pub largest_cc_applied: bool,
    /// Whether the external AS numbers were already exactly `0..n`, so
    /// internal ids equal external ids.
    pub identity_ids: bool,
}

/// A cleaned graph plus the mapping back to external AS numbers.
#[derive(Debug)]
pub struct CleanedGraph {
    /// The dense graph over internal ids `0..n`.
    pub graph: Graph,
    /// `external_ids[internal]` is the original AS number.
    pub external_ids: Vec<u32>,
    /// What each stage did.
    pub counters: CleanupCounters,
}

/// Runs the cleanup pipeline over raw endpoint pairs.
///
/// Consumes `pairs` (the raw, possibly huge vector) so its memory is
/// reused for the sort instead of cloned.
pub(crate) fn cleanup(
    mut pairs: Vec<(u32, u32)>,
    largest_cc: bool,
    limits: &Limits,
) -> Result<CleanedGraph, IngestError> {
    let mut counters = CleanupCounters {
        raw_records: pairs.len() as u64,
        ..CleanupCounters::default()
    };

    // Stage 1: self-loops out, orientation normalised to (min, max).
    pairs.retain(|&(u, v)| u != v);
    counters.self_loops_removed = counters.raw_records - pairs.len() as u64;
    for pair in &mut pairs {
        if pair.0 > pair.1 {
            *pair = (pair.1, pair.0);
        }
    }

    // Stage 2: dedup.
    pairs.sort_unstable();
    let before = pairs.len();
    pairs.dedup();
    counters.duplicates_removed = (before - pairs.len()) as u64;
    counters.edges = pairs.len() as u64;

    // Stage 3: collect + rank the distinct endpoints.
    let mut ids: Vec<u32> = Vec::with_capacity(pairs.len().min(limits.max_nodes as usize) * 2);
    for &(u, v) in &pairs {
        ids.push(u);
        ids.push(v);
    }
    ids.sort_unstable();
    ids.dedup();
    counters.distinct_nodes = ids.len() as u64;
    if ids.len() as u64 > limits.max_nodes {
        return Err(IngestError::new(
            "<merged input>",
            0,
            None,
            IngestErrorKind::CapExceeded {
                cap: CapKind::Nodes,
                limit: limits.max_nodes,
            },
        ));
    }
    let rank = |ids: &[u32], x: u32| -> u32 {
        // `x` is guaranteed present: it came out of the same pairs.
        ids.binary_search(&x).expect("endpoint was collected") as u32
    };

    // Stage 4: connected components over the ranked ids.
    let mut dsu = Dsu::new(ids.len());
    for &(u, v) in &pairs {
        dsu.union(rank(&ids, u) as usize, rank(&ids, v) as usize);
    }
    counters.components = dsu.component_count() as u64;

    // Stage 5: optionally keep only the largest component (size ties
    // broken by the smallest root rank, deterministically).
    if largest_cc && counters.components > 1 {
        counters.largest_cc_applied = true;
        let mut size = vec![0u32; ids.len()];
        for i in 0..ids.len() {
            size[dsu.find(i)] += 1;
        }
        let keep_root = (0..ids.len())
            .filter(|&i| dsu.find(i) == i)
            .max_by_key(|&i| (size[i], std::cmp::Reverse(i)))
            .expect("non-empty id set has a root");
        let kept_edges_before = pairs.len();
        pairs.retain(|&(u, _)| dsu_find_const(&dsu, rank(&ids, u) as usize) == keep_root);
        counters.lcc_edges_dropped = (kept_edges_before - pairs.len()) as u64;
        let nodes_before = ids.len();
        let kept_ids: Vec<u32> = (0..ids.len())
            .filter(|&i| dsu_find_const(&dsu, i) == keep_root)
            .map(|i| ids[i])
            .collect();
        counters.lcc_nodes_dropped = (nodes_before - kept_ids.len()) as u64;
        ids = kept_ids;
    } else if largest_cc {
        counters.largest_cc_applied = true;
    }

    // Stage 6: densify and build.
    // Sorted + distinct, so max id == n-1 implies ids are exactly 0..n.
    counters.identity_ids = ids.last().is_none_or(|&max| max as usize == ids.len() - 1);
    let mut builder = GraphBuilder::with_capacity(ids.len(), pairs.len());
    for &(u, v) in &pairs {
        builder.add_edge(rank(&ids, u), rank(&ids, v));
    }
    let graph = builder.build();
    Ok(CleanedGraph {
        graph,
        external_ids: ids,
        counters,
    })
}

/// Find without path compression, for use while `dsu` is borrowed
/// immutably inside `retain`.
fn dsu_find_const(dsu: &Dsu, mut x: usize) -> usize {
    while dsu.parent[x] as usize != x {
        x = dsu.parent[x] as usize;
    }
    x
}

/// Union-find with union by size and path halving.
struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grandparent = self.parent[self.parent[x] as usize];
            self.parent[x] = grandparent;
            x = grandparent as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.components -= 1;
    }

    fn component_count(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(pairs: Vec<(u32, u32)>, lcc: bool) -> CleanedGraph {
        cleanup(pairs, lcc, &Limits::default()).unwrap()
    }

    #[test]
    fn removes_self_loops_and_duplicates() {
        let out = clean(vec![(1, 2), (2, 1), (1, 1), (2, 3), (2, 3), (3, 2)], false);
        let c = out.counters;
        assert_eq!(c.raw_records, 6);
        assert_eq!(c.self_loops_removed, 1);
        assert_eq!(c.duplicates_removed, 3);
        assert_eq!(c.edges, 2);
        assert_eq!(c.distinct_nodes, 3);
        assert_eq!(out.graph.node_count(), 3);
        assert_eq!(out.graph.edge_count(), 2);
    }

    #[test]
    fn densifies_sparse_as_numbers() {
        let out = clean(vec![(7018, 4_200_000_000), (7018, 3356)], false);
        assert_eq!(out.external_ids, vec![3356, 7018, 4_200_000_000]);
        assert_eq!(out.graph.node_count(), 3);
        assert!(!out.counters.identity_ids);
        // Edges are over the ranks.
        assert_eq!(out.graph.degree(1), 2); // 7018 touches both others
    }

    #[test]
    fn identity_ids_detected() {
        let out = clean(vec![(0, 1), (1, 2)], false);
        assert!(out.counters.identity_ids);
        assert_eq!(out.external_ids, vec![0, 1, 2]);
        let sparse = clean(vec![(1, 2)], false);
        assert!(!sparse.counters.identity_ids);
    }

    #[test]
    fn counts_components_and_keeps_largest() {
        // Two components: {1,2,3} (triangle) and {10,11}.
        let pairs = vec![(1, 2), (2, 3), (1, 3), (10, 11)];
        let no_filter = clean(pairs.clone(), false);
        assert_eq!(no_filter.counters.components, 2);
        assert!(!no_filter.counters.largest_cc_applied);
        assert_eq!(no_filter.graph.node_count(), 5);

        let filtered = clean(pairs, true);
        let c = filtered.counters;
        assert!(c.largest_cc_applied);
        assert_eq!(c.lcc_nodes_dropped, 2);
        assert_eq!(c.lcc_edges_dropped, 1);
        assert_eq!(filtered.graph.node_count(), 3);
        assert_eq!(filtered.graph.edge_count(), 3);
        assert_eq!(filtered.external_ids, vec![1, 2, 3]);
    }

    #[test]
    fn largest_cc_tie_is_deterministic() {
        // Two 2-node components; the one containing the smallest AS wins.
        let out = clean(vec![(5, 6), (1, 2)], true);
        assert_eq!(out.external_ids, vec![1, 2]);
    }

    #[test]
    fn node_cap_trips() {
        let limits = Limits {
            max_nodes: 3,
            ..Limits::default()
        };
        let err = cleanup(vec![(1, 2), (3, 4)], false, &limits).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                IngestErrorKind::CapExceeded {
                    cap: CapKind::Nodes,
                    limit: 3,
                }
            ),
            "{err}"
        );
        // Run-level: no ":0" position in the message.
        let msg = err.to_string();
        assert!(msg.starts_with("<merged input>: "), "{msg}");
    }

    #[test]
    fn empty_input_is_fine() {
        let out = clean(Vec::new(), true);
        assert_eq!(out.graph.node_count(), 0);
        assert_eq!(out.counters.components, 0);
        assert!(out.external_ids.is_empty());
    }
}
