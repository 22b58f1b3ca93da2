//! The consumer side of clique enumeration: cliques flow straight into
//! a [`CliqueConsumer`] as Bron–Kerbosch emits them.
//!
//! The driver ([`crate::consume_max_cliques`]) pushes each maximal
//! clique into its consumer the moment it exists, so a downstream
//! engine (the fused percolator in `cpm`, the clique-log writer in
//! `cpm-stream`, or a [`CliqueSet`](crate::CliqueSet) that collects the
//! census) folds it into its own state and lets the members go.
//!
//! The driver guarantees the *sequential enumeration contract*: every
//! maximal clique exactly once, members sorted strictly ascending, in
//! the order of the one-worker degeneracy enumeration — for every
//! kernel, thread count, and scheduling race.

use asgraph::NodeId;

/// A sink for a stream of maximal cliques.
///
/// [`consume`](Self::consume) is called once per maximal clique, with
/// the members sorted strictly ascending; the slice is only valid for
/// the duration of the call. The driver delivers the cliques in the
/// sequential enumeration order, so a consumer may rely on the stream
/// being deterministic and exactly-once (the same contract as
/// `cpm_stream`'s `CliqueSource::replay`).
pub trait CliqueConsumer {
    /// Folds one maximal clique into the consumer's state.
    fn consume(&mut self, clique: &[NodeId]);
}

impl<F: FnMut(&[NodeId])> CliqueConsumer for F {
    fn consume(&mut self, clique: &[NodeId]) {
        self(clique);
    }
}

/// Copies `clique` into `scratch` sorted ascending. The enumerator
/// emits members in recursion order (pivot first), not sorted; every
/// consumer-facing surface promises ascending members, so the sort
/// happens once, here.
pub(crate) fn sorted_into(clique: &[NodeId], scratch: &mut Vec<NodeId>) {
    scratch.clear();
    scratch.extend_from_slice(clique);
    scratch.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{consume_max_cliques, Kernel};
    use asgraph::Graph;
    use exec::CancelToken;

    fn fixture() -> Graph {
        Graph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        )
    }

    /// Collects the stream for comparison against the staged set.
    struct Collect(Vec<Vec<NodeId>>);

    impl CliqueConsumer for Collect {
        fn consume(&mut self, clique: &[NodeId]) {
            assert!(clique.windows(2).all(|w| w[0] < w[1]), "unsorted emit");
            self.0.push(clique.to_vec());
        }
    }

    #[test]
    fn sink_stream_matches_staged_set_per_kernel() {
        let g = fixture();
        let staged: Vec<Vec<NodeId>> = crate::max_cliques(&g)
            .iter()
            .map(<[NodeId]>::to_vec)
            .collect();
        for kernel in [Kernel::Auto, Kernel::Bitset, Kernel::Merge] {
            let mut sink = Collect(Vec::new());
            consume_max_cliques(&g, 1, kernel, &CancelToken::new(), &mut sink).unwrap();
            assert_eq!(staged, sink.0, "kernel {kernel}");
        }
    }

    #[test]
    fn closures_are_consumers() {
        let g = fixture();
        let mut count = 0usize;
        let mut consumer = |_: &[NodeId]| count += 1;
        consume_max_cliques(&g, 1, Kernel::Auto, &CancelToken::new(), &mut consumer).unwrap();
        assert_eq!(count, crate::max_cliques(&g).len());
    }

    #[test]
    fn cancellable_with_live_token_sees_the_full_stream() {
        let g = fixture();
        let token = CancelToken::new();
        let mut sink = Collect(Vec::new());
        consume_max_cliques(&g, 1, Kernel::Auto, &token, &mut sink).expect("token never trips");
        assert_eq!(sink.0.len(), crate::max_cliques(&g).len());
    }

    #[test]
    fn tripped_token_stops_the_stream() {
        let g = fixture();
        let token = CancelToken::new();
        token.cancel();
        let mut sink = Collect(Vec::new());
        let err = consume_max_cliques(&g, 1, Kernel::Auto, &token, &mut sink);
        assert!(err.is_err());
        assert!(sink.0.is_empty());
    }
}
