//! Snapshot loading: from a clique-log v2 file or a serialised index.
//!
//! The daemon's unit of state is a [`Snapshot`]: one immutable
//! [`SnapshotIndex`] plus its generation number. Snapshots come from
//! disk in either of two self-identifying formats, sniffed by magic:
//!
//! * a **clique log v2** (`clique-log build` output) — the log is
//!   replayed once into the percolation engine
//!   ([`cpm_stream::stream_percolate_parallel_mode`]), whose pooled
//!   finish yields every level, and the levels are frozen into an
//!   index. This is the path `POST /reload` takes after a fresh
//!   enumeration rewrites the log;
//! * a **serialised snapshot** ([`cpm::SnapshotIndex::to_bytes`]) — a
//!   straight checksummed decode, for pre-baked indexes.
//!
//! Loading is cancellable: the replay and the engine's finish both poll
//! the [`CancelToken`] they are given, so a shutdown mid-rebuild
//! abandons the work within one poll interval or finish chunk instead
//! of pinning the process.

use cpm::{Mode, SnapshotIndex};
use cpm_stream::{CliqueSource, LogSource, StreamError};
use exec::{CancelToken, Threads};
use std::fmt;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One loaded snapshot with its provenance.
#[derive(Debug)]
pub struct Snapshot {
    /// The frozen query index.
    pub index: SnapshotIndex,
    /// Monotonic generation: the initial load is 1, each successful
    /// reload increments.
    pub generation: u64,
    /// The file the snapshot was built from.
    pub source: PathBuf,
    /// The percolation engine that built this snapshot (a serialised
    /// index was baked elsewhere; the mode recorded is the one a
    /// rebuild from a clique log would use).
    pub mode: Mode,
    /// Wall-clock of the load/build that produced this snapshot, in
    /// milliseconds.
    pub build_ms: u64,
}

/// Why a snapshot failed to load — the split the CLI exit-code contract
/// needs (corrupt → 65, interrupted → 75, other I/O → 1).
#[derive(Debug)]
pub enum LoadError {
    /// The file exists but is torn, checksum-broken, or not a
    /// snapshot/clique-log at all. Retrying cannot help.
    Corrupt(io::Error),
    /// The file could not be read (missing, permissions, transport).
    Io(io::Error),
    /// The cancel token tripped mid-build; nothing was swapped in.
    Interrupted,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
            LoadError::Io(e) => write!(f, "cannot load snapshot: {e}"),
            LoadError::Interrupted => write!(f, "snapshot load interrupted"),
        }
    }
}

impl std::error::Error for LoadError {}

fn classify_io(e: io::Error) -> LoadError {
    if e.kind() == io::ErrorKind::InvalidData {
        LoadError::Corrupt(e)
    } else {
        LoadError::Io(e)
    }
}

impl From<StreamError> for LoadError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Interrupted => LoadError::Interrupted,
            StreamError::Io(io_err) => classify_io(io_err),
        }
    }
}

/// Builds a [`SnapshotIndex`] from `path`, sniffing the format by
/// magic.
///
/// `threads` sizes the engine's pooled finish on the clique-log path
/// (the serialised path is single-threaded decode either way), and
/// `mode` selects the percolation mode for that same path — the same
/// [`Mode`] `communities --mode` runs.
///
/// # Errors
///
/// [`LoadError::Corrupt`] for torn or invalid files,
/// [`LoadError::Interrupted`] when `cancel` trips mid-build,
/// [`LoadError::Io`] otherwise.
pub fn load_index(
    path: &Path,
    cancel: &CancelToken,
    threads: Threads,
    mode: Mode,
) -> Result<SnapshotIndex, LoadError> {
    cancel.check().map_err(|_| LoadError::Interrupted)?;
    let mut magic = [0u8; 8];
    {
        let mut f = std::fs::File::open(path).map_err(LoadError::Io)?;
        f.read_exact(&mut magic).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                LoadError::Corrupt(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "file too short to be a snapshot or clique log",
                ))
            } else {
                LoadError::Io(e)
            }
        })?;
    }
    if &magic == cpm::SNAPSHOT_MAGIC {
        let bytes = std::fs::read(path).map_err(LoadError::Io)?;
        return SnapshotIndex::from_bytes(&bytes).map_err(classify_io);
    }
    // Anything else must be a clique log; its own reader rejects
    // foreign magics with InvalidData.
    let mut source = LogSource::open(path)?.with_cancel(cancel.clone());
    let node_count = source.node_count();
    let result = cpm_stream::stream_percolate_parallel_mode(&mut source, threads, mode)?;
    Ok(SnapshotIndex::from_levels(node_count, &result.levels))
}

/// [`load_index`] wrapped into a generation-stamped, build-timed
/// [`Snapshot`].
///
/// # Errors
///
/// Propagates [`load_index`] errors unchanged.
pub fn load_snapshot(
    path: &Path,
    generation: u64,
    cancel: &CancelToken,
    threads: Threads,
    mode: Mode,
) -> Result<Arc<Snapshot>, LoadError> {
    let t0 = std::time::Instant::now();
    let index = load_index(path, cancel, threads, mode)?;
    Ok(Arc::new(Snapshot {
        index,
        generation,
        source: path.to_path_buf(),
        mode,
        build_ms: t0.elapsed().as_millis() as u64,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::Graph;

    fn fixture() -> Graph {
        Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kclique_serve_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn loads_from_clique_log_and_serialised_snapshot_identically() {
        let g = fixture();
        let log = tmp("ok.cliquelog");
        cpm_stream::write_clique_log(&g, &log).unwrap();
        let token = CancelToken::new();
        let from_log = load_index(&log, &token, Threads::Fixed(1), Mode::Exact).unwrap();

        let snap = tmp("ok.snap");
        std::fs::write(&snap, from_log.to_bytes()).unwrap();
        let from_snap = load_index(&snap, &token, Threads::Fixed(1), Mode::Exact).unwrap();
        assert_eq!(from_log, from_snap);

        // And both match the batch result frozen directly.
        let batch = cpm::percolate(&g);
        let direct = SnapshotIndex::from_levels(g.node_count(), &batch.levels);
        assert_eq!(from_log, direct);

        // The almost engine rebuilds the same index on this fixture
        // (zero divergence), and the snapshot records its mode and
        // build duration.
        let from_log_almost = load_index(&log, &token, Threads::Fixed(1), Mode::Almost).unwrap();
        assert_eq!(from_log_almost, direct);
        let snap = load_snapshot(&log, 1, &token, Threads::Fixed(1), Mode::Almost).unwrap();
        assert_eq!(snap.mode, Mode::Almost);
        assert_eq!(snap.index, direct);
    }

    #[test]
    fn graph_rebuild_routes_through_the_fused_pipeline() {
        // A log rebuild freezes exactly the index the graph path gives,
        // at one worker and several, in both modes, and a tripped token
        // must interrupt it.
        let g = fixture();
        let log = tmp("fused.cliquelog");
        cpm_stream::write_clique_log(&g, &log).unwrap();
        let token = CancelToken::new();
        for mode in [Mode::Exact, Mode::Almost] {
            for threads in [1usize, 2, 4] {
                let expected = SnapshotIndex::from_levels(
                    g.node_count(),
                    &cpm::percolate_parallel(&g, threads, mode).levels,
                );
                let got = load_index(&log, &token, Threads::Fixed(threads), mode).unwrap();
                assert_eq!(
                    got.to_bytes(),
                    expected.to_bytes(),
                    "{mode}: threads {threads}"
                );
            }
        }
        let tripped = CancelToken::new();
        tripped.cancel();
        assert!(matches!(
            load_index(&log, &tripped, Threads::Fixed(2), Mode::Almost),
            Err(LoadError::Interrupted)
        ));
    }

    #[test]
    fn corrupt_and_missing_files_classify() {
        let junk = tmp("junk.bin");
        std::fs::write(&junk, b"definitely not a log nor a snapshot").unwrap();
        let token = CancelToken::new();
        match load_index(&junk, &token, Threads::Fixed(1), Mode::Exact) {
            Err(LoadError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let short = tmp("short.bin");
        std::fs::write(&short, b"abc").unwrap();
        assert!(matches!(
            load_index(&short, &token, Threads::Fixed(1), Mode::Exact),
            Err(LoadError::Corrupt(_))
        ));
        assert!(matches!(
            load_index(
                Path::new("/no/such/file"),
                &token,
                Threads::Fixed(1),
                Mode::Exact
            ),
            Err(LoadError::Io(_))
        ));

        // A torn serialised snapshot is corrupt, not io.
        let g = fixture();
        let idx = SnapshotIndex::from_levels(g.node_count(), &cpm::percolate(&g).levels);
        let mut bytes = idx.to_bytes();
        bytes.truncate(bytes.len() - 3);
        let torn = tmp("torn.snap");
        std::fs::write(&torn, &bytes).unwrap();
        assert!(matches!(
            load_index(&torn, &token, Threads::Fixed(1), Mode::Exact),
            Err(LoadError::Corrupt(_))
        ));
    }

    #[test]
    fn tripped_token_interrupts() {
        let g = fixture();
        let log = tmp("cancel.cliquelog");
        cpm_stream::write_clique_log(&g, &log).unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert!(matches!(
            load_index(&log, &token, Threads::Fixed(1), Mode::Exact),
            Err(LoadError::Interrupted)
        ));
    }
}
