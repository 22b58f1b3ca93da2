//! The §2.1 merge-and-cleanup pipeline.
//!
//! The paper merges several topology sources, then cleans the union:
//! duplicate links collapse, self-loops go, and (optionally) only the
//! largest connected component survives. Duplicates and self-loops go
//! as the parsers accept each line ([`Links`]), so memory follows the
//! distinct links rather than the records read; [`cleanup`] does the
//! rest, counting every record each stage drops so the run is
//! auditable.
//!
//! External AS numbers are densified: `asgraph` allocates `max id + 1`
//! slots, so feeding it raw 32-bit ASNs (e.g. 4200000000) would let one
//! hostile line allocate gigabytes. Instead the distinct external ids
//! are sorted and ranked, and the graph is built over the ranks; the
//! rank → ASN table is returned for mapping results back.

use crate::error::{CapKind, IngestError, IngestErrorKind};
use crate::limits::Limits;
use asgraph::{Graph, GraphBuilder};
use std::collections::HashSet;

/// Packs a link into one key, `u` in the high half, so that keys sort
/// as their `(u, v)` pairs.
fn pack(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// The endpoint pair a [`pack`]ed key holds.
fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// The merge so far: every distinct link accepted, plus the counts of
/// the raw pairs and self-loops that fed it.
#[derive(Debug, Default)]
pub(crate) struct Links {
    /// Distinct links, normalised to `(min, max)` and [`pack`]ed. std's
    /// randomly keyed hasher, so crafted AS numbers cannot force
    /// collisions.
    distinct: HashSet<u64>,
    /// Endpoint pairs accepted, duplicates and self-loops included.
    raw: u64,
    /// Accepted pairs whose two endpoints were the same AS.
    self_loops: u64,
}

impl Links {
    /// Accepts one endpoint pair in the orientation its source wrote.
    pub(crate) fn accept(&mut self, u: u32, v: u32) {
        self.raw += 1;
        if u == v {
            self.self_loops += 1;
        } else {
            self.distinct.insert(pack(u.min(v), u.max(v)));
        }
    }

    /// The distinct links, ascending.
    #[cfg(test)]
    pub(crate) fn sorted(&self) -> Vec<(u32, u32)> {
        let mut keys: Vec<u64> = self.distinct.iter().copied().collect();
        keys.sort_unstable();
        keys.into_iter().map(unpack).collect()
    }
}

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

/// Runs the cleanup pipeline over the merged links.
///
/// Consumes `links`: the set is drained into a vector of its distinct
/// keys and freed, and that vector is sorted and then ranked in place.
/// It is itself freed before the graph's adjacency is laid out.
pub(crate) fn cleanup(
    links: Links,
    largest_cc: bool,
    limits: &Limits,
) -> Result<CleanedGraph, IngestError> {
    // Stages 1 and 2, self-loops and duplicates out, ran as each pair
    // was accepted. A packed key sorts as its (min, max) pair.
    let Links {
        distinct,
        raw,
        self_loops,
    } = links;
    let mut keys: Vec<u64> = distinct.into_iter().collect();
    keys.sort_unstable();
    let mut counters = CleanupCounters {
        raw_records: raw,
        self_loops_removed: self_loops,
        duplicates_removed: raw - self_loops - keys.len() as u64,
        edges: keys.len() as u64,
        ..CleanupCounters::default()
    };

    // Stage 3: collect the distinct endpoints, then rank each link's
    // endpoints once. Ranking is monotone, so the ranked keys stay
    // sorted and distinct. Low endpoints ascend with the keys and are
    // ranked by a cursor; high ones by binary search.
    let mut ids: Vec<u32> = Vec::with_capacity(keys.len().min(limits.max_nodes as usize) * 2);
    for &key in &keys {
        let (u, v) = unpack(key);
        ids.push(u);
        ids.push(v);
    }
    ids.sort_unstable();
    ids.dedup();
    // Two slots per link were reserved: hand the slack back before the
    // graph is built next to the id table it is returned with.
    ids.shrink_to_fit();
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
    let mut low = 0;
    for key in &mut keys {
        let (u, v) = unpack(*key);
        while ids[low] != u {
            low += 1;
        }
        let high = ids.binary_search(&v).expect("endpoint was collected");
        *key = pack(low as u32, high as u32);
    }

    // Stage 4: connected components over the ranks.
    let mut dsu = Dsu::new(ids.len());
    for &key in &keys {
        let (u, v) = unpack(key);
        dsu.union(u as usize, v as usize);
    }
    counters.components = dsu.component_count() as u64;

    // Stage 5: optionally keep only the largest component; on a size tie,
    // the one holding the smallest AS. Ranks ascend with AS number, so
    // that is the component of the first rank in a largest component.
    // Kept ranks are renumbered in order, so the keys stay sorted.
    if largest_cc && counters.components > 1 {
        counters.largest_cc_applied = true;
        let roots: Vec<u32> = (0..ids.len()).map(|i| dsu.find(i) as u32).collect();
        let mut size = vec![0u32; ids.len()];
        for &root in &roots {
            size[root as usize] += 1;
        }
        let keep_root = roots
            .iter()
            .copied()
            .min_by_key(|&root| std::cmp::Reverse(size[root as usize]))
            .expect("non-empty id set has a root");
        let nodes_before = ids.len();
        let mut new_rank = vec![0u32; nodes_before];
        let mut kept = 0;
        for i in 0..nodes_before {
            if roots[i] == keep_root {
                new_rank[i] = kept as u32;
                ids[kept] = ids[i];
                kept += 1;
            }
        }
        ids.truncate(kept);
        counters.lcc_nodes_dropped = (nodes_before - kept) as u64;
        let edges_before = keys.len();
        keys.retain_mut(|key| {
            let (u, v) = unpack(*key);
            let keep = roots[u as usize] == keep_root;
            *key = pack(new_rank[u as usize], new_rank[v as usize]);
            keep
        });
        counters.lcc_edges_dropped = (edges_before - keys.len()) as u64;
    } else if largest_cc {
        counters.largest_cc_applied = true;
    }

    // Stage 6: build over the ranks. The keys move into the builder in
    // ascending order, so its sort is one linear pass, and they (and the
    // union-find) are freed before the adjacency is laid out.
    // Sorted + distinct, so max id == n-1 implies ids are exactly 0..n.
    counters.identity_ids = ids.last().is_none_or(|&max| max as usize == ids.len() - 1);
    let mut builder = GraphBuilder::with_capacity(ids.len(), keys.len());
    builder.add_edges(keys.into_iter().map(unpack));
    drop(dsu);
    let graph = builder.build();
    Ok(CleanedGraph {
        graph,
        external_ids: ids,
        counters,
    })
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
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Endpoints the soups draw from: both ends of the 32-bit AS space
    /// and a few clusters, so that small soups split into several
    /// components and collide often enough to repeat links.
    pub(crate) const POOL: [u32; 12] = [
        0,
        1,
        2,
        3,
        7018,
        7019,
        65_535,
        65_536,
        4_200_000_000,
        4_294_967_294,
        u32::MAX - 2,
        u32::MAX,
    ];

    /// What cleanup must produce, computed the plain way: a set of
    /// `(min, max)` links, its endpoints ranked by sorting, components
    /// by relabelling to a fixed point. With `largest_cc`, the largest
    /// component with the smallest label is kept: labels are each
    /// component's smallest AS.
    pub(crate) fn reference(
        pairs: &[(u32, u32)],
        largest_cc: bool,
    ) -> (CleanupCounters, Vec<u32>, Vec<(u32, u32)>) {
        let links: BTreeSet<(u32, u32)> = pairs
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        let self_loops = pairs.iter().filter(|(u, v)| u == v).count() as u64;
        let ids: BTreeSet<u32> = links.iter().flat_map(|&(u, v)| [u, v]).collect();
        let mut label: BTreeMap<u32, u32> = ids.iter().map(|&x| (x, x)).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &(u, v) in &links {
                let low = label[&u].min(label[&v]);
                for x in [u, v] {
                    if label[&x] != low {
                        label.insert(x, low);
                        changed = true;
                    }
                }
            }
        }
        let mut sizes: BTreeMap<u32, u64> = BTreeMap::new();
        for &l in label.values() {
            *sizes.entry(l).or_default() += 1;
        }
        let mut counters = CleanupCounters {
            raw_records: pairs.len() as u64,
            self_loops_removed: self_loops,
            duplicates_removed: pairs.len() as u64 - self_loops - links.len() as u64,
            distinct_nodes: ids.len() as u64,
            edges: links.len() as u64,
            components: sizes.len() as u64,
            largest_cc_applied: largest_cc,
            ..CleanupCounters::default()
        };
        let mut kept_links: Vec<(u32, u32)> = links.iter().copied().collect();
        let mut kept_ids: Vec<u32> = ids.iter().copied().collect();
        if largest_cc && sizes.len() > 1 {
            let largest = *sizes.values().max().expect("non-empty");
            let keep = *sizes
                .keys()
                .find(|l| sizes[*l] == largest)
                .expect("non-empty");
            kept_links.retain(|(u, _)| label[u] == keep);
            kept_ids.retain(|x| label[x] == keep);
            counters.lcc_nodes_dropped = (ids.len() - kept_ids.len()) as u64;
            counters.lcc_edges_dropped = (links.len() - kept_links.len()) as u64;
        }
        counters.identity_ids = kept_ids.iter().enumerate().all(|(i, &x)| x as usize == i);
        let rank = |x: u32| kept_ids.binary_search(&x).expect("kept endpoint") as u32;
        let edges = kept_links
            .iter()
            .map(|&(u, v)| (rank(u), rank(v)))
            .collect();
        (counters, kept_ids, edges)
    }

    proptest! {
        /// The packed-key pipeline agrees with the plain reference on
        /// every counter, the id table and the edge list, with and
        /// without the largest-component filter.
        #[test]
        fn packed_cleanup_matches_reference(
            draws in prop::collection::vec((0usize..12, 0usize..12), 0..48),
        ) {
            let pairs: Vec<(u32, u32)> = draws.iter().map(|&(a, b)| (POOL[a], POOL[b])).collect();
            for largest_cc in [false, true] {
                let out = clean(pairs.clone(), largest_cc);
                let (counters, ids, edges) = reference(&pairs, largest_cc);
                prop_assert_eq!(out.counters, counters);
                prop_assert_eq!(&out.external_ids, &ids);
                prop_assert_eq!(out.graph.edges().collect::<Vec<_>>(), edges);
                prop_assert_eq!(out.graph.node_count(), ids.len());
            }
        }
    }

    fn merged(pairs: &[(u32, u32)]) -> Links {
        let mut links = Links::default();
        for &(u, v) in pairs {
            links.accept(u, v);
        }
        links
    }

    fn clean(pairs: Vec<(u32, u32)>, lcc: bool) -> CleanedGraph {
        cleanup(merged(&pairs), lcc, &Limits::default()).unwrap()
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
        // Two 6-node components. Union by size makes rank 7 (AS 11) the
        // root of AS 0's component and rank 1 (AS 1) the star's root, so
        // the smallest root is in the component without the smallest AS.
        let out = clean(
            vec![
                (0, 20),
                (11, 12),
                (11, 13),
                (11, 14),
                (14, 20),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
                (1, 6),
            ],
            true,
        );
        assert_eq!(out.external_ids, vec![0, 11, 12, 13, 14, 20]);
    }

    #[test]
    fn node_cap_trips() {
        let limits = Limits {
            max_nodes: 3,
            ..Limits::default()
        };
        let err = cleanup(merged(&[(1, 2), (3, 4)]), false, &limits).unwrap_err();
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
