//! Where the clique stream comes from: live enumeration or a log replay.
//!
//! [`CliqueSource`] abstracts over the two ways to get a maximal-clique
//! stream:
//!
//! - [`GraphSource`] runs Bron–Kerbosch over the in-memory graph on
//!   every replay;
//! - [`LogSource`] replays the compact on-disk clique log written by
//!   [`crate::CliqueLogWriter`], so the (often much more expensive)
//!   enumeration runs exactly once and every later percolation is a
//!   sequential decode.
//!
//! Both sources support **cooperative cancellation**: handed a
//! [`CancelToken`], a replay polls it ([`GraphSource`] through the
//! enumeration driver's per-chunk poll, [`LogSource`] every
//! [`CANCEL_POLL_CLIQUES`] cliques) and bails out with
//! [`StreamError::Interrupted`], and
//! [`crate::stream_percolate_parallel_mode`] hands the same token
//! ([`CliqueSource::cancel_token`]) to the engine's finish — a long
//! percolation stops within one poll interval or one finish chunk of
//! Ctrl-C or a deadline. [`GraphSource`] can also **resume**: because
//! the enumeration stream is deterministic, [`GraphSource::resume_after`]
//! skips the first `n` cliques, which is how `clique-log build --resume`
//! continues a salvaged log instead of restarting the enumeration.

use crate::log::CliqueLogReader;
use asgraph::{Graph, NodeId};
use exec::CancelToken;
use std::fmt;
use std::path::{Path, PathBuf};

/// How many cliques a cancellable [`LogSource`] replay decodes between
/// token polls. A poll is one relaxed atomic load (plus a clock read
/// under `--deadline`), so this mainly bounds cancellation latency: at
/// most this many cliques flow after the token trips. ([`GraphSource`]
/// polls once per enumeration chunk instead, inside
/// [`cliques::consume_max_cliques`].)
pub const CANCEL_POLL_CLIQUES: u64 = 64;

/// Errors surfaced while pulling cliques out of a source.
#[derive(Debug)]
pub enum StreamError {
    /// Reading or decoding the clique log failed.
    Io(std::io::Error),
    /// A [`CancelToken`] tripped mid-replay (Ctrl-C, deadline, or an
    /// explicit cancel). Durable work done before the interruption —
    /// sealed log segments in particular — is preserved and resumable.
    Interrupted,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "clique log i/o error: {e}"),
            StreamError::Interrupted => {
                write!(
                    f,
                    "interrupted before completion (durable work is resumable)"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Interrupted => None,
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<exec::Cancelled> for StreamError {
    fn from(_: exec::Cancelled) -> Self {
        StreamError::Interrupted
    }
}

/// A replayable stream of maximal cliques over a fixed vertex space.
///
/// Each [`replay`](CliqueSource::replay) call must deliver every maximal
/// clique exactly once, members sorted strictly ascending, in the same
/// order on every call (clique ids in the result are stream ordinals).
pub trait CliqueSource {
    /// Size of the vertex id space: every member id is `< node_count()`.
    fn node_count(&self) -> usize;

    /// Streams every maximal clique through `visit`, start to finish.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from on-disk sources, or
    /// [`StreamError::Interrupted`] when a cancel token trips.
    fn replay(&mut self, visit: &mut (dyn FnMut(&[NodeId]) + Send)) -> Result<(), StreamError>;

    /// The token this source polls during replays, if any — the
    /// percolation entry polls it through the finish as well.
    fn cancel_token(&self) -> Option<&CancelToken> {
        None
    }
}

/// Replays `source` into any [`cliques::CliqueConsumer`] — the bridge
/// between the replayable sources of this crate and the sink-driven
/// clique pipeline. The percolation engine in `cpm` and the log-build
/// sink both consume the stream through this one surface.
///
/// # Errors
///
/// Fails only if the source does (I/O on a clique log, or
/// [`StreamError::Interrupted`] on cancellation).
pub fn consume_source<S: CliqueSource + ?Sized>(
    source: &mut S,
    consumer: &mut (dyn cliques::CliqueConsumer + Send),
) -> Result<(), StreamError> {
    source.replay(&mut |clique| consumer.consume(clique))
}

/// Live [`CliqueSource`]: re-enumerates the graph's maximal cliques on
/// every replay through [`cliques::consume_max_cliques`] on one worker.
#[derive(Debug)]
pub struct GraphSource<'g> {
    graph: &'g Graph,
    skip: u64,
    cancel: Option<CancelToken>,
}

impl<'g> GraphSource<'g> {
    /// Wraps a graph as a replayable clique source.
    pub fn new(graph: &'g Graph) -> Self {
        GraphSource {
            graph,
            skip: 0,
            cancel: None,
        }
    }

    /// Skips the first `n` cliques of every replay — the resume point
    /// after a salvaged log. The enumeration itself still runs from the
    /// start (the skipped prefix is the replay window the checkpoint
    /// cadence bounds), but nothing is emitted until clique `n`.
    ///
    /// Sound because enumeration order is deterministic: clique `n` of
    /// this run is clique `n` of the run that was interrupted.
    pub fn resume_after(mut self, n: u64) -> Self {
        self.skip = n;
        self
    }

    /// Polls `token` during replays; a tripped token aborts the
    /// enumeration with [`StreamError::Interrupted`]. The cliques
    /// emitted before that are a prefix of the full stream.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

impl CliqueSource for GraphSource<'_> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn replay(&mut self, visit: &mut (dyn FnMut(&[NodeId]) + Send)) -> Result<(), StreamError> {
        let fresh = CancelToken::new();
        let cancel = self.cancel.as_ref().unwrap_or(&fresh);
        let skip = self.skip;
        let mut seen = 0u64;
        let mut emit = |clique: &[NodeId]| {
            if seen >= skip {
                visit(clique);
            }
            seen += 1;
        };
        cliques::consume_max_cliques(self.graph, 1, cliques::Kernel::Auto, cancel, &mut emit)?;
        Ok(())
    }

    fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }
}

/// On-disk [`CliqueSource`]: replays a finished clique log, opening a
/// fresh sequential reader per pass.
#[derive(Debug, Clone)]
pub struct LogSource {
    path: PathBuf,
    node_count: usize,
    cancel: Option<CancelToken>,
}

impl LogSource {
    /// Opens the log once to validate its footer and capture the vertex
    /// space.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, truncated, torn, or not a finished
    /// clique log.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StreamError> {
        let path = path.as_ref().to_path_buf();
        let reader = CliqueLogReader::open(&path)?;
        let node_count = reader.info().node_count as usize;
        Ok(LogSource {
            path,
            node_count,
            cancel: None,
        })
    }

    /// Polls `token` during replays; a tripped token aborts the decode
    /// with [`StreamError::Interrupted`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

impl CliqueSource for LogSource {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn replay(&mut self, visit: &mut (dyn FnMut(&[NodeId]) + Send)) -> Result<(), StreamError> {
        let mut reader = CliqueLogReader::open(&self.path)?;
        let mut buf = Vec::new();
        let mut seen = 0u64;
        while reader.read_next(&mut buf)? {
            if let Some(token) = &self.cancel {
                if seen.is_multiple_of(CANCEL_POLL_CLIQUES) && token.is_cancelled() {
                    return Err(StreamError::Interrupted);
                }
            }
            seen += 1;
            visit(&buf);
        }
        Ok(())
    }

    fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::CliqueLogWriter;

    fn collect<S: CliqueSource>(source: &mut S) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        source.replay(&mut |c| out.push(c.to_vec())).unwrap();
        out
    }

    #[test]
    fn graph_source_emits_sorted_cliques_repeatably() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let mut src = GraphSource::new(&g);
        let first = collect(&mut src);
        assert!(first.iter().all(|c| c.windows(2).all(|w| w[0] < w[1])));
        let mut sorted: Vec<_> = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![vec![0, 1, 2], vec![1, 2, 3]]);
        assert_eq!(collect(&mut src), first, "replay must be deterministic");
    }

    #[test]
    fn resume_after_skips_a_prefix() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        let full = collect(&mut GraphSource::new(&g));
        for n in 0..=full.len() {
            let got = collect(&mut GraphSource::new(&g).resume_after(n as u64));
            assert_eq!(got, full[n..], "resume_after({n})");
        }
    }

    #[test]
    fn cancelled_graph_source_interrupts() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let token = CancelToken::new();
        token.cancel();
        let mut src = GraphSource::new(&g).with_cancel(token);
        let err = src.replay(&mut |_| {}).unwrap_err();
        assert!(matches!(err, StreamError::Interrupted), "{err}");
    }

    /// A token tripped mid-replay cuts the stream at the driver's next
    /// chunk boundary: the replay reports `Interrupted`, what it emitted
    /// is a prefix of the full stream, and resuming after that prefix
    /// supplies exactly the rest.
    #[test]
    fn mid_stream_cancel_then_resume_completes_the_stream() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 200u32;
        let mut b = asgraph::GraphBuilder::with_nodes(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.random_bool(0.06) {
                    b.add_edge(u, v);
                }
            }
        }
        let g = b.build();
        let full = collect(&mut GraphSource::new(&g));
        assert!(full.len() > 400, "fixture too small: {}", full.len());
        for trip_after in [1, 7, 64, 200] {
            let token = CancelToken::new();
            let mut prefix: Vec<Vec<NodeId>> = Vec::new();
            let mut src = GraphSource::new(&g).with_cancel(token.clone());
            let err = src
                .replay(&mut |c| {
                    prefix.push(c.to_vec());
                    if prefix.len() == trip_after {
                        token.cancel();
                    }
                })
                .unwrap_err();
            assert!(matches!(err, StreamError::Interrupted), "{err}");
            assert!(prefix.len() >= trip_after, "trip after {trip_after}");
            assert!(prefix.len() < full.len(), "trip after {trip_after}");
            assert_eq!(prefix, full[..prefix.len()], "trip after {trip_after}");

            let rest = collect(&mut GraphSource::new(&g).resume_after(prefix.len() as u64));
            assert_eq!(rest, full[prefix.len()..], "trip after {trip_after}");
        }
    }

    #[test]
    fn cancelled_log_source_interrupts() {
        let dir = std::env::temp_dir().join("cpm-stream-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cancel.cliquelog");
        let mut w = CliqueLogWriter::create(&path, 10).unwrap();
        w.push(&[0, 1]).unwrap();
        w.finish().unwrap();
        let token = CancelToken::new();
        token.cancel();
        let mut src = LogSource::open(&path).unwrap().with_cancel(token);
        let err = src.replay(&mut |_| {}).unwrap_err();
        assert!(matches!(err, StreamError::Interrupted), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn log_source_round_trips_graph_source() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        let dir = std::env::temp_dir().join("cpm-stream-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round-trip.cliquelog");

        let mut writer = CliqueLogWriter::create(&path, g.node_count() as u32).unwrap();
        let mut via_graph = Vec::new();
        GraphSource::new(&g)
            .replay(&mut |c| {
                writer.push(c).unwrap();
                via_graph.push(c.to_vec());
            })
            .unwrap();
        writer.finish().unwrap();

        let mut log = LogSource::open(&path).unwrap();
        assert_eq!(log.node_count(), g.node_count());
        assert_eq!(collect(&mut log), via_graph);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn log_source_open_rejects_missing_file() {
        assert!(LogSource::open("/nonexistent/missing.cliquelog").is_err());
    }
}
