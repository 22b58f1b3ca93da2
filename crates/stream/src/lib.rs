//! Clique logs and clique sources for the percolation engine.
//!
//! Enumerating the maximal cliques of an AS graph is the expensive half
//! of a percolation; this crate lets it run once. [`build_clique_log`]
//! writes the clique stream to a crash-safe, checksummed on-disk log,
//! and [`stream_percolate_parallel_mode`] replays any clique source
//! once into the one percolation engine, [`cpm::FusedPercolator`] — the
//! same engine `cpm::percolate_parallel` drives from live enumeration,
//! so a log rebuild is bit-identical to percolating the graph.
//!
//! The moving parts:
//!
//! - [`CliqueSource`] — replayable clique streams: [`GraphSource`]
//!   enumerates the graph on each replay, [`LogSource`] decodes a clique
//!   log written once by [`CliqueLogWriter`]; both poll an optional
//!   [`CancelToken`];
//! - [`CliqueLogWriter`] / [`CliqueLogReader`] — the v2 log format
//!   (sealed segments, resumable builds, [`CliqueLogReader::recover`]);
//! - [`stream_percolate_parallel_mode`] — one replay, then the engine's
//!   pooled finish, returning a [`cpm::CpmResult`].
//!
//! ```
//! use asgraph::Graph;
//! use cpm::Mode;
//! use cpm_stream::GraphSource;
//!
//! // Two triangles glued on an edge form one k=3 community.
//! let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
//! let mut source = GraphSource::new(&g);
//! let result = cpm_stream::stream_percolate_parallel_mode(&mut source, 1, Mode::Exact).unwrap();
//! assert_eq!(result.cover(3), vec![vec![0, 1, 2, 3]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faultio;
mod log;
mod percolate;
mod segment;
mod source;

pub use log::{
    CliqueLogInfo, CliqueLogReader, CliqueLogWriter, LogSink, RecoveryReport,
    DEFAULT_CHECKPOINT_CLIQUES, TORN_LOG_MSG,
};
pub use percolate::stream_percolate_parallel_mode;
pub use source::{CliqueSource, GraphSource, LogSource, StreamError, CANCEL_POLL_CLIQUES};

pub use exec::{CancelToken, Threads};

use asgraph::Graph;
use std::path::Path;

/// Enumerates `g`'s maximal cliques once and writes them all to a clique
/// log at `path`, returning the log's summary header.
///
/// The resulting file can be replayed any number of times through
/// [`LogSource`] — one Bron–Kerbosch pass serving every `k` level.
///
/// # Errors
///
/// Propagates I/O failures from writing the log.
///
/// # Example
///
/// ```
/// use asgraph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// let dir = std::env::temp_dir().join("cpm-stream-doc");
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("example.cliquelog");
/// let info = cpm_stream::write_clique_log(&g, &path).unwrap();
/// assert_eq!(info.clique_count, 2);
/// assert_eq!(info.max_size, 3);
/// std::fs::remove_file(&path).ok();
/// ```
pub fn write_clique_log(g: &Graph, path: impl AsRef<Path>) -> Result<CliqueLogInfo, StreamError> {
    let outcome = build_clique_log(g, path, &LogBuildOptions::default())?;
    Ok(outcome.info)
}

/// How [`build_clique_log`] should run.
#[derive(Debug, Clone, Default)]
pub struct LogBuildOptions {
    /// Checkpoint cadence: cliques per sealed segment
    /// (0 means [`DEFAULT_CHECKPOINT_CLIQUES`]).
    pub checkpoint_cliques: usize,
    /// Recover the existing (possibly torn) log at the target path and
    /// continue enumeration after its last durable clique, instead of
    /// truncating and starting over.
    pub resume: bool,
    /// Cooperative-cancellation token polled during enumeration. When
    /// it trips, the log is *finished* (footer over everything pushed
    /// so far) and the build reports itself interrupted — a later
    /// `resume` build picks up exactly where this one stopped.
    pub cancel: Option<CancelToken>,
}

/// What [`build_clique_log`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogBuildOutcome {
    /// Summary of the log as it now stands on disk.
    pub info: CliqueLogInfo,
    /// Cliques salvaged from a previous run (0 for a fresh build).
    pub resumed_from: u64,
    /// True when a cancel token stopped the build early. The log is
    /// still valid and finished; rebuild with `resume` to complete it.
    pub interrupted: bool,
}

/// Enumerates `g`'s maximal cliques into a v2 clique log at `path`,
/// with checkpointing, crash recovery (`resume`), and cooperative
/// cancellation per [`LogBuildOptions`].
///
/// This is the engine behind `clique-log build`; [`write_clique_log`]
/// is the zero-options wrapper.
///
/// # Errors
///
/// Propagates I/O failures, and rejects a `resume` against a log whose
/// `node_count` does not match `g`.
pub fn build_clique_log(
    g: &Graph,
    path: impl AsRef<Path>,
    options: &LogBuildOptions,
) -> Result<LogBuildOutcome, StreamError> {
    let checkpoint = if options.checkpoint_cliques == 0 {
        DEFAULT_CHECKPOINT_CLIQUES
    } else {
        options.checkpoint_cliques
    };
    let (mut writer, resumed_from) = if options.resume {
        let (writer, report) = CliqueLogWriter::append(&path, checkpoint)?;
        if report.node_count as usize != g.node_count() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "cannot resume: log was built for {} nodes, graph has {}",
                    report.node_count,
                    g.node_count()
                ),
            )
            .into());
        }
        (writer, report.cliques_recovered)
    } else {
        (
            CliqueLogWriter::with_checkpoint(&path, g.node_count() as u32, checkpoint)?,
            0,
        )
    };

    let mut source = GraphSource::new(g).resume_after(resumed_from);
    if let Some(token) = &options.cancel {
        source = source.with_cancel(token.clone());
    }
    // The first I/O error is held aside so the enumeration can drain
    // cleanly (the replay callback must not panic).
    let mut io_err = None;
    let replay = source.replay(&mut |clique| {
        if io_err.is_none() {
            if let Err(e) = writer.push(clique) {
                io_err = Some(e);
            }
        }
    });
    if let Some(e) = io_err {
        return Err(e.into());
    }
    let interrupted = match replay {
        Ok(()) => false,
        // Cancellation is a clean stop: seal what we have into a valid,
        // finished log so only a crash ever leaves a torn file.
        Err(StreamError::Interrupted) => true,
        Err(e) => return Err(e),
    };
    let info = writer.finish()?;
    Ok(LogBuildOutcome {
        info,
        resumed_from,
        interrupted,
    })
}
