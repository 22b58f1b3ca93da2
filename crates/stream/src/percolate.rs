//! Percolating a clique source: one replay into the one engine.
//!
//! A clique log is just another clique source for
//! [`cpm::FusedPercolator`]: [`stream_percolate_parallel_mode`] replays
//! the source once into the engine and runs its pooled finish, so a
//! rebuild from a log is bit-identical to percolating the graph the log
//! was built from — every level, community order, member list, parent
//! link and clique id (clique ids are stream ordinals either way).

use crate::source::CliqueSource;
use crate::StreamError;
use cpm::{CpmResult, FusedPercolator, Mode};
use exec::Threads;

/// Percolates every maximal clique of `source` in `mode`: one replay
/// folds the stream into a [`FusedPercolator`], and the finish (pair
/// detection, the descending-`k` sweep and member extraction) runs on
/// up to `threads` pool workers. The result is bit-identical at every
/// worker count and to [`cpm::percolate_parallel`] on the source's
/// graph; a single level is its projection ([`CpmResult::cover`]).
///
/// When the source carries a [`CancelToken`](exec::CancelToken)
/// ([`CliqueSource::cancel_token`]), the finish polls it too, so a
/// reload, Ctrl-C or deadline stops the rebuild within one chunk.
///
/// # Errors
///
/// I/O failures of an on-disk source, or [`StreamError::Interrupted`]
/// once the source's token trips.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use cpm::Mode;
/// use cpm_stream::GraphSource;
///
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// let mut source = GraphSource::new(&g);
/// let result = cpm_stream::stream_percolate_parallel_mode(&mut source, 1, Mode::Exact).unwrap();
/// assert_eq!(result.k_max(), Some(3));
/// assert_eq!(result.cover(3), vec![vec![0, 1, 2, 3]]);
/// ```
pub fn stream_percolate_parallel_mode<S: CliqueSource + ?Sized>(
    source: &mut S,
    threads: impl Into<Threads>,
    mode: Mode,
) -> Result<CpmResult, StreamError> {
    let mut p = FusedPercolator::new(source.node_count(), mode);
    source.replay(&mut |clique| p.push(clique))?;
    Ok(p.finish(threads, source.cancel_token())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::GraphSource;
    use asgraph::{Graph, NodeId};

    fn run(g: &Graph, threads: impl Into<Threads>, mode: Mode) -> CpmResult {
        stream_percolate_parallel_mode(&mut GraphSource::new(g), threads, mode)
            .expect("in-memory source")
    }

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

    #[test]
    fn two_k4s_sharing_triangle_merge_at_k4() {
        let g = Graph::from_edges(
            5,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (1, 4),
                (2, 4),
                (3, 4),
            ],
        );
        assert_eq!(run(&g, 1, Mode::Exact).cover(4), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn bowtie_splits_at_k3() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let r = run(&g, 1, Mode::Exact);
        assert_eq!(r.cover(3), vec![vec![0, 1, 2], vec![2, 3, 4]]);
        assert_eq!(r.cover(2).len(), 1);
    }

    #[test]
    fn full_sweep_matches_batch_on_fixture() {
        let g = fixture();
        for mode in [Mode::Exact, Mode::Almost] {
            assert_eq!(
                run(&g, 1, mode),
                cpm::percolate_parallel(&g, 1, mode),
                "{mode}"
            );
        }
    }

    #[test]
    fn parents_contain_children() {
        let r = run(&Graph::complete(6), 1, Mode::Exact);
        for (i, level) in r.levels.iter().enumerate() {
            for c in &level.communities {
                if level.k == 2 {
                    assert!(c.parent.is_none());
                } else {
                    let below = &r.levels[i - 1];
                    let p = &below.communities[c.parent.unwrap() as usize];
                    assert!(c.members.iter().all(|&v| p.contains(v)));
                }
            }
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let r = run(&Graph::empty(0), 1, Mode::Exact);
        assert!(r.levels.is_empty());
        let r = run(&Graph::empty(5), 1, Mode::Exact);
        assert!(r.levels.is_empty());
        assert_eq!(r.total_communities(), 0);
    }

    #[test]
    fn worker_counts_are_bit_identical() {
        let g = fixture();
        for mode in [Mode::Exact, Mode::Almost] {
            let seq = run(&g, 1, mode);
            for threads in [
                Threads::Fixed(2),
                Threads::Fixed(4),
                Threads::Fixed(7),
                Threads::Auto,
            ] {
                assert_eq!(seq, run(&g, threads, mode), "{mode}: {threads} threads");
            }
        }
    }

    /// A source that trips its own token right after emitting its last
    /// clique, without polling it: only the finish can notice.
    struct TripsAfterLast<'g> {
        inner: GraphSource<'g>,
        token: exec::CancelToken,
    }

    impl CliqueSource for TripsAfterLast<'_> {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }

        fn replay(&mut self, visit: &mut (dyn FnMut(&[NodeId]) + Send)) -> Result<(), StreamError> {
            self.inner.replay(visit)?;
            self.token.cancel();
            Ok(())
        }

        fn cancel_token(&self) -> Option<&exec::CancelToken> {
            Some(&self.token)
        }
    }

    #[test]
    fn token_tripped_after_the_last_clique_interrupts_the_finish() {
        let g = fixture();
        let mut source = TripsAfterLast {
            inner: GraphSource::new(&g),
            token: exec::CancelToken::new(),
        };
        assert!(matches!(
            stream_percolate_parallel_mode(&mut source, 2, Mode::Exact),
            Err(StreamError::Interrupted)
        ));
    }
}
