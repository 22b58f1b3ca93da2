//! Multi-threaded maximal-clique enumeration: the one driver.
//!
//! The clique-enumeration half of the "Lightweight Parallel Clique
//! Percolation Method" (Gregori, Lenzini, Mainardi, Orsini): the
//! degeneracy-ordered outer loop of Bron–Kerbosch is embarrassingly
//! parallel — each outer vertex spawns an independent subproblem.
//!
//! Scheduling is an atomic-counter **work-stealing deal** over the
//! persistent [`exec::Pool`]: workers claim chunks of [`STEAL_CHUNK`]
//! consecutive outer vertices from a shared [`ChunkQueue`] until the
//! order is exhausted. On power-law graphs a handful of IXP-core
//! subproblems dominate the total work; the static round-robin stripe
//! this replaced would leave every other worker idle while one finished
//! its oversized stripe, whereas dynamic claiming keeps all workers
//! busy to the tail. Each claimed chunk produces one flat batch, and an
//! [`OrderedAbsorber`] feeds the batches to a [`CliqueConsumer`] in
//! ascending chunk order, so the stream is *identical to the one-worker
//! enumeration* — independent of thread count and scheduling races.
//! There is one enumeration loop, [`consume_max_cliques`]; on one worker
//! it walks the same chunks inline on the calling thread, and that run
//! is the sequential-order reference. [`max_cliques_parallel`] and
//! [`crate::max_cliques`] run it with a [`CliqueSet`] as the consumer.
//!
//! Workers are warm pool threads (woken, not spawned), and each
//! worker's bitset-kernel scratch lives in its pool arena, so the
//! bitset row pool and local-index buffers persist across calls instead
//! of being reallocated every time. [`Threads::Auto`]
//! (the default for the CLI) additionally routes graphs below a work
//! threshold to the one-worker path, so tiny substrates never pay
//! parallel overhead at all.
//!
//! The one-worker path takes the pool's caller arena ([`Pool::leader`]),
//! so the driver must not be called from inside a [`Pool::run`] job on
//! the same pool.

use crate::bron_kerbosch::top_level_visit_with;
use crate::clique_set::CliqueSet;
use crate::kernel::{BitsetScratch, Kernel};
use crate::sink::{sorted_into, CliqueConsumer};
use asgraph::{Graph, NodeId};
use exec::{CancelToken, Cancelled, ChunkQueue, OrderedAbsorber, Pool, Threads};
use std::ops::ControlFlow;

/// Outer vertices claimed per queue chunk. Small enough that the heavy
/// hub subproblems of an AS-like graph cannot hide behind one claim,
/// large enough that the shared counter is not contended.
pub const STEAL_CHUNK: usize = 16;

/// The `Threads::Auto` grain: edges of enumeration work per worker
/// before adding that worker pays. Below `2 × grain` edges the whole
/// enumeration runs on the calling thread (with pooled scratch), which
/// is what fixes the tiny-substrate `enumerate_par` regression.
const AUTO_EDGES_PER_WORKER: usize = 2_048;

/// Enumerates all maximal cliques of `g` using `threads` workers
/// (`usize` or [`Threads`]; `Threads::Auto` scales with the graph) and
/// the default [`Kernel::Auto`] set kernel.
///
/// Output is identical — same cliques, same order — to
/// [`max_cliques`](crate::max_cliques) for every thread count:
/// work-stolen chunks are merged back in chunk order.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
/// use cliques::parallel::max_cliques_parallel;
///
/// let g = Graph::complete(6);
/// let cliques = max_cliques_parallel(&g, 4);
/// assert_eq!(cliques.len(), 1);
/// ```
pub fn max_cliques_parallel(g: &Graph, threads: impl Into<Threads>) -> CliqueSet {
    let mut set = CliqueSet::new();
    consume_max_cliques(g, threads, Kernel::Auto, &CancelToken::new(), &mut set)
        .expect("a fresh token never trips");
    set
}

/// Buffered batches the [`OrderedAbsorber`] may hold before producers
/// stall.
///
/// Bounds the fused pipeline's reassembly memory to a constant number of
/// in-flight chunks (each the cliques of [`STEAL_CHUNK`] outer
/// vertices): a producer whose chunk is not the next one due pauses
/// once this many finished chunks are waiting. The producer holding the
/// next-due chunk never pauses, so the stream always advances.
const REASSEMBLY_WINDOW: usize = 32;

/// One work-stolen chunk of enumerated cliques in flat form: clique `i`
/// is `members[lens[..i].sum()..][..lens[i]]`, members sorted ascending.
struct Batch {
    lens: Vec<u32>,
    members: Vec<NodeId>,
}

/// Streams the maximal cliques of `g` into `consumer` using `threads`
/// workers and the set `kernel`, polling `cancel` at every chunk of
/// [`STEAL_CHUNK`] outer vertices — the one maximal-clique driver.
/// Callers with nothing to cancel pass `&CancelToken::new()`.
///
/// The consumer sees the *sequential* stream — same cliques, same
/// order, members sorted ascending — at every worker count and for
/// every kernel: workers claim work-stolen chunks, enumerate them into
/// flat batches, and hand them to an [`OrderedAbsorber`] that feeds
/// the consumer in ascending chunk order, pausing producers that run
/// too far ahead so at most a constant number of chunks is ever
/// buffered. No [`CliqueSet`] is materialised anywhere.
///
/// # Errors
///
/// Returns [`Cancelled`] once the token trips: producers stop claiming
/// work, paused producers are released, and everyone runs out through
/// the job protocol so the pool stays reusable. The consumer has then
/// seen a prefix of the deterministic stream (cut at a chunk boundary);
/// callers that cannot resume from a prefix should discard the
/// consumer's state. A token that trips during the last chunk of the
/// one-worker run is not noticed: the stream completes and the call
/// returns `Ok`.
///
/// # Panics
///
/// Panics if `threads` is a fixed count of 0.
///
/// # Example
///
/// ```
/// use asgraph::{Graph, NodeId};
/// use exec::CancelToken;
///
/// let g = Graph::from_edges(4, [(0, 3), (1, 3), (2, 3), (0, 1)]);
/// let mut seen: Vec<Vec<NodeId>> = Vec::new();
/// let mut consumer = |clique: &[NodeId]| seen.push(clique.to_vec());
/// cliques::consume_max_cliques(&g, 2, cliques::Kernel::Auto, &CancelToken::new(), &mut consumer)
///     .unwrap();
/// seen.sort();
/// assert_eq!(seen, vec![vec![0, 1, 3], vec![2, 3]]); // members ascending
/// ```
pub fn consume_max_cliques(
    g: &Graph,
    threads: impl Into<Threads>,
    kernel: Kernel,
    cancel: &CancelToken,
    consumer: &mut (dyn CliqueConsumer + Send),
) -> Result<(), Cancelled> {
    let mut workers = threads
        .into()
        .resolve(g.edge_count(), AUTO_EDGES_PER_WORKER);
    if g.node_count() < 2 * workers {
        workers = 1;
    }
    let ordering = asgraph::ordering::degeneracy_order(g);
    let order = ordering.order.as_slice();
    let rank = ordering.rank.as_slice();
    let pool = Pool::global();

    if workers == 1 {
        return pool.leader(|mut w| {
            let scratch = w.scratch_with(BitsetScratch::default);
            let mut sorted: Vec<NodeId> = Vec::new();
            // Same cancellation granularity as the parallel path: one
            // poll per STEAL_CHUNK outer vertices.
            for chunk in order.chunks(STEAL_CHUNK) {
                cancel.check()?;
                for &v in chunk {
                    let _ = top_level_visit_with(g, v, rank, kernel, scratch, &mut |clique| {
                        sorted_into(clique, &mut sorted);
                        consumer.consume(&sorted);
                        ControlFlow::Continue(())
                    });
                }
            }
            Ok(())
        });
    }

    // Every worker — the calling thread included — produces: claim a
    // work-stolen chunk, enumerate it into a flat batch, hand the batch
    // to the absorber. The absorber feeds the consumer in ascending
    // chunk order (whichever worker submits the next-due chunk pays the
    // consume cost, so there is no dedicated consumer thread idling
    // between batches), and its bounded window pauses producers that
    // run too far ahead. The consumer sees the sequential stream
    // whatever the scheduling races did.
    let queue = ChunkQueue::new(order.len(), STEAL_CHUNK);
    let absorber = OrderedAbsorber::new(REASSEMBLY_WINDOW, consumer);
    pool.run(workers, |mut w| {
        let scratch = w.scratch_with(BitsetScratch::default);
        let mut sorted: Vec<NodeId> = Vec::new();
        while let Some(range) = queue.claim_unless(cancel) {
            let mut batch = Batch {
                lens: Vec::new(),
                members: Vec::new(),
            };
            for &v in &order[range.clone()] {
                let _ = top_level_visit_with(g, v, rank, kernel, scratch, &mut |clique| {
                    sorted_into(clique, &mut sorted);
                    batch.lens.push(sorted.len() as u32);
                    batch.members.extend_from_slice(&sorted);
                    ControlFlow::Continue(())
                });
            }
            absorber.submit(range.start / STEAL_CHUNK, batch, |consumer, batch| {
                let mut offset = 0usize;
                for &len in &batch.lens {
                    consumer.consume(&batch.members[offset..offset + len as usize]);
                    offset += len as usize;
                }
            });
        }
    });
    cancel.check()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bron_kerbosch::pivot;

    fn canonical(mut s: CliqueSet) -> CliqueSet {
        s.sort_canonical();
        s
    }

    /// The driver collected into a set, with a token nobody trips.
    fn enumerate(g: &Graph, threads: impl Into<Threads>, kernel: Kernel) -> CliqueSet {
        let mut set = CliqueSet::new();
        consume_max_cliques(g, threads, kernel, &CancelToken::new(), &mut set)
            .expect("a fresh token never trips");
        set
    }

    #[test]
    fn matches_sequential_on_small_graph() {
        let g = Graph::from_edges(
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
        );
        let oracle = canonical(pivot(&g));
        for threads in 1..=4 {
            let par = canonical(max_cliques_parallel(&g, threads));
            assert_eq!(oracle, par, "thread count {threads}");
        }
    }

    #[test]
    fn work_stealing_preserves_sequential_order() {
        let g = random_graph(11, 120, 0.1);
        // Not just the same set: the exact same enumeration order as the
        // one-worker run, for every kernel and thread count.
        for kernel in [Kernel::Auto, Kernel::Bitset, Kernel::Merge] {
            let seq = enumerate(&g, 1, kernel);
            for threads in [2, 3, 4, 7] {
                let par = enumerate(&g, threads, kernel);
                assert_eq!(seq, par, "kernel {kernel}, threads {threads}");
            }
        }
    }

    #[test]
    fn auto_threads_match_sequential() {
        let g = random_graph(13, 80, 0.12);
        let seq = crate::max_cliques(&g);
        let auto = max_cliques_parallel(&g, Threads::Auto);
        assert_eq!(seq, auto);
    }

    #[test]
    fn matches_sequential_on_random_graph() {
        let g = random_graph(7, 60, 0.15);
        let oracle = canonical(pivot(&g));
        let par = canonical(max_cliques_parallel(&g, 4));
        assert_eq!(oracle, par);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let g = Graph::complete(3);
        let _ = max_cliques_parallel(&g, 0);
    }

    #[test]
    fn live_token_changes_nothing() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let token = CancelToken::new();
        for threads in 1..=4 {
            let mut got = CliqueSet::new();
            consume_max_cliques(&g, threads, Kernel::Auto, &token, &mut got)
                .expect("token never trips");
            assert_eq!(got, crate::max_cliques(&g), "threads {threads}");
        }
    }

    #[test]
    fn tripped_token_cancels_at_every_worker_count() {
        let g = Graph::complete(8);
        let token = CancelToken::new();
        token.cancel();
        for threads in 1..=4 {
            let err = consume_max_cliques(&g, threads, Kernel::Auto, &token, &mut CliqueSet::new());
            assert!(err.is_err(), "threads {threads}");
        }
        // And the pool is still usable after the cancelled runs.
        assert_eq!(max_cliques_parallel(&g, 4).len(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        assert!(max_cliques_parallel(&g, 3).is_empty());
    }

    /// Recording consumer for the sink-driver tests.
    #[derive(Default)]
    struct Record(Vec<Vec<NodeId>>);

    impl CliqueConsumer for Record {
        fn consume(&mut self, clique: &[NodeId]) {
            assert!(clique.windows(2).all(|w| w[0] < w[1]), "unsorted emit");
            self.0.push(clique.to_vec());
        }
    }

    fn random_graph(seed: u64, n: u32, p: f64) -> Graph {
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

    #[test]
    fn sink_driver_streams_sequential_order_at_every_worker_count() {
        let g = random_graph(11, 120, 0.1);
        for kernel in [Kernel::Auto, Kernel::Bitset, Kernel::Merge] {
            let seq: Vec<Vec<NodeId>> = crate::max_cliques(&g)
                .iter()
                .map(<[NodeId]>::to_vec)
                .collect();
            for threads in [1, 2, 3, 4, 7] {
                let mut sink = Record::default();
                consume_max_cliques(&g, threads, kernel, &CancelToken::new(), &mut sink)
                    .expect("a fresh token never trips");
                assert_eq!(seq, sink.0, "kernel {kernel}, threads {threads}");
            }
        }
    }

    #[test]
    fn sink_driver_tripped_token_cancels_and_pool_stays_reusable() {
        let g = random_graph(17, 100, 0.15);
        let token = CancelToken::new();
        token.cancel();
        for threads in 1..=4 {
            let mut sink = Record::default();
            let err = consume_max_cliques(&g, threads, Kernel::Auto, &token, &mut sink);
            assert!(err.is_err(), "threads {threads}");
            assert!(sink.0.is_empty(), "threads {threads}");
        }
        // The pool runs out through the job protocol and stays both
        // reusable and resumable: a fresh token completes the stream.
        let fresh = CancelToken::new();
        let mut sink = Record::default();
        consume_max_cliques(&g, 4, Kernel::Auto, &fresh, &mut sink)
            .expect("fresh token never trips");
        assert_eq!(sink.0.len(), crate::max_cliques(&g).len());
    }
}
