//! The adapter: every call the benchmark makes into the repository's
//! crates lives in this file, so a change to their public API touches
//! the benchmark here and nowhere else. Callers time these functions
//! from outside; nothing here records spans.

use crate::digest::Level;
use crate::gen::Query;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

pub use asgraph::Graph;
pub use cpm::{KLevel, Mode, SnapshotIndex};

/// The generator presets the workloads draw on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// 10k ASes.
    Medium,
    /// 35k ASes, the paper's scale.
    Full,
}

/// The synthetic AS topology of `preset` for generator seed `seed`.
///
/// # Panics
///
/// If the preset's own configuration is invalid (a generator bug).
pub fn generate(preset: Preset, seed: u64) -> Graph {
    let config = match preset {
        Preset::Medium => topology::ModelConfig::medium(seed),
        Preset::Full => topology::ModelConfig::full_scale(seed),
    };
    topology::generate(&config)
        .expect("built-in presets are valid")
        .graph
}

/// Every edge of `g` once, as `(u, v)` with `u < v`.
pub fn edges(g: &Graph) -> Vec<(u32, u32)> {
    g.edges().collect()
}

/// Degree of every node.
pub fn degrees(g: &Graph) -> Vec<usize> {
    g.node_ids().map(|v| g.degree(v)).collect()
}

/// Nodes in `g`.
pub fn node_count(g: &Graph) -> usize {
    g.node_count()
}

/// The graph on `n` nodes with these edges.
pub fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
    Graph::from_edges(n, edges.iter().copied())
}

/// Nodes of the largest connected component of `g`, as a mask.
pub fn largest_component(g: &Graph) -> Vec<bool> {
    let cc = asgraph::components::connected_components(g);
    let mut sizes = vec![0usize; cc.count()];
    for v in g.node_ids() {
        sizes[cc.component_of(v) as usize] += 1;
    }
    let big = (0..sizes.len()).max_by_key(|&c| sizes[c]).unwrap_or(0) as u32;
    g.node_ids().map(|v| cc.component_of(v) == big).collect()
}

/// Hardware threads, as the pool sizes itself by.
pub fn hw_threads() -> usize {
    exec::available_parallelism()
}

/// Counters of one ingestion run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounts {
    /// Bytes read across sources.
    pub bytes: u64,
    /// Record lines accepted.
    pub records: u64,
    /// Lines skipped as malformed.
    pub skipped: u64,
    /// Endpoint pairs entering cleanup.
    pub raw_records: u64,
    /// Pairs dropped as self-loops.
    pub self_loops_removed: u64,
    /// Pairs dropped as duplicates.
    pub duplicates_removed: u64,
    /// Nodes in the final graph.
    pub nodes: u64,
    /// Links in the final graph.
    pub edges: u64,
}

/// A cleaned graph with its internal-id → AS-number table.
#[derive(Debug)]
pub struct Ingested {
    /// Dense graph over internal ids.
    pub graph: Graph,
    /// `asn[internal]` is the AS number.
    pub asn: Vec<u32>,
    /// What ingest counted.
    pub counts: IngestCounts,
}

/// One ingestion run, source by source, as the `ingest` verb does it.
pub struct Ingest(ingest::Ingestor);

impl Ingest {
    /// A run in lenient or strict mode, optionally keeping only the
    /// largest connected component.
    pub fn new(lenient: bool, largest_cc: bool) -> Ingest {
        Ingest(ingest::Ingestor::new(ingest::IngestOptions {
            lenient,
            largest_cc,
            ..ingest::IngestOptions::default()
        }))
    }

    /// Parses one source file, format detected as the CLI detects it.
    ///
    /// # Errors
    ///
    /// The ingest diagnostic.
    pub fn source(&mut self, path: &Path) -> Result<(), String> {
        self.0
            .ingest_path(path, None)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// Runs the cleanup pipeline.
    ///
    /// # Errors
    ///
    /// The ingest diagnostic.
    pub fn finish(self) -> Result<Ingested, String> {
        let out = self.0.finish().map_err(|e| e.to_string())?;
        let r = &out.report;
        let counts = IngestCounts {
            bytes: r.sources.iter().map(|s| s.bytes).sum(),
            records: r.sources.iter().map(|s| s.records).sum(),
            skipped: r.sources.iter().map(|s| s.skipped.total()).sum(),
            raw_records: r.cleanup.raw_records,
            self_loops_removed: r.cleanup.self_loops_removed,
            duplicates_removed: r.cleanup.duplicates_removed,
            nodes: out.graph.node_count() as u64,
            edges: out.graph.edge_count() as u64,
        };
        Ok(Ingested {
            graph: out.graph,
            asn: out.external_ids,
            counts,
        })
    }
}

/// All-k percolation the way `communities --all-k` runs it: the fused
/// cancellable pipeline with automatic threads and kernel.
pub fn percolate(g: &Graph, mode: Mode) -> Vec<KLevel> {
    let token = exec::CancelToken::new();
    cpm::percolate_fused_cancellable(g, exec::Threads::Auto, cliques::Kernel::Auto, &token, mode)
        .expect("a token nobody cancels never trips")
        .levels
}

/// Wall time of the fused pipeline's phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Enumeration fused with streaming fold-in.
    pub consume: Duration,
    /// Finish-time pair detection.
    pub pairs: Duration,
    /// Descending-k union replay.
    pub sweep: Duration,
    /// Level snapshots and member extraction.
    pub extract: Duration,
}

/// [`percolate`] with its phase breakdown.
pub fn percolate_phases(g: &Graph, mode: Mode) -> (Vec<KLevel>, Phases) {
    let (result, p) = cpm::percolate_fused_phases_parallel(g, exec::Threads::Auto, mode);
    (
        result.levels,
        Phases {
            consume: p.consume,
            pairs: p.pairs,
            sweep: p.sweep,
            extract: p.extract,
        },
    )
}

/// Maximal-clique enumeration alone: `(clique count, largest size)`.
pub fn enumerate(g: &Graph) -> (usize, usize) {
    let set = cliques::parallel::max_cliques_parallel(g, exec::Threads::Auto);
    (set.len(), set.max_size())
}

/// The levels as plain member lists and parent links.
pub fn cover(levels: &[KLevel]) -> Vec<Level> {
    levels
        .iter()
        .map(|l| Level {
            k: l.k,
            communities: l.communities.iter().map(|c| c.members.clone()).collect(),
            parents: l.communities.iter().map(|c| c.parent).collect(),
        })
        .collect()
}

/// Freezes levels into the query index.
pub fn snapshot(node_count: usize, levels: &[KLevel]) -> SnapshotIndex {
    SnapshotIndex::from_levels(node_count, levels)
}

/// Serialises the index.
pub fn encode(index: &SnapshotIndex) -> Vec<u8> {
    index.to_bytes()
}

/// Decodes an index serialised by [`encode`].
///
/// # Errors
///
/// A corrupt or truncated encoding.
pub fn decode(bytes: &[u8]) -> Result<SnapshotIndex, String> {
    SnapshotIndex::from_bytes(bytes).map_err(|e| e.to_string())
}

/// `(k, community count)` of every level of the index.
pub fn level_counts(index: &SnapshotIndex) -> Vec<(u32, u32)> {
    index
        .levels()
        .iter()
        .map(|l| (l.k, l.communities.len() as u32))
        .collect()
}

/// Answers `q` against the index the way the daemon's handler does;
/// returns the number of communities in the answer.
pub fn lookup(index: &SnapshotIndex, q: &Query) -> usize {
    match *q {
        Query::Membership(v) => index.membership(v, None).len(),
        Query::MembershipAt(v, k) => index.membership(v, Some(k)).len(),
        Query::Common(a, b) => usize::from(index.common_community(a, b, 2).is_some()),
        Query::Tree(k, idx) => {
            let id = cpm::CommunityId { k, idx };
            index.ancestors(id).len() + index.children(id).len()
        }
    }
}

/// Parses every request in `bytes` with the daemon's request parser;
/// returns how many it read.
///
/// # Panics
///
/// If `bytes` holds a malformed request (the benchmark renders them).
pub fn parse_requests(mut bytes: &[u8]) -> usize {
    let mut n = 0;
    while serve::http::read_request(&mut bytes)
        .expect("benchmark requests are well formed")
        .is_some()
    {
        n += 1;
    }
    n
}

/// Writes the clique log `serve --snapshot` loads; returns its size.
///
/// # Errors
///
/// I/O failures.
pub fn write_clique_log(g: &Graph, path: &Path) -> Result<u64, String> {
    cpm_stream::write_clique_log(g, path).map_err(|e| e.to_string())?;
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| e.to_string())
}

/// The daemon's start-up rebuild on its own: the streaming exact sweep
/// over a clique log, with automatic threads.
///
/// # Errors
///
/// A missing, torn or corrupt log.
pub fn rebuild_from_log(path: &Path) -> Result<Vec<KLevel>, String> {
    let mut source = cpm_stream::LogSource::open(path).map_err(|e| e.to_string())?;
    cpm_stream::stream_percolate_parallel_mode(&mut source, exec::Threads::Auto, Mode::Exact)
        .map(|r| r.levels)
        .map_err(|e| e.to_string())
}

/// Runs the query daemon on `snapshot` (a clique log or a serialised
/// index) with `ServeConfig::new` defaults on a free loopback port:
/// `announce` gets the bound address once the snapshot is loaded, and
/// the daemon drains and returns once `wait_for_stop` returns.
///
/// # Errors
///
/// Load, bind or serve failures.
pub fn daemon(
    snapshot: &Path,
    announce: impl FnOnce(SocketAddr),
    wait_for_stop: impl FnOnce() + Send + 'static,
) -> Result<(), String> {
    let config = serve::ServeConfig::new("127.0.0.1:0", snapshot);
    let token = exec::CancelToken::new();
    let server = serve::Server::bind(&config, &token).map_err(|e| e.to_string())?;
    announce(server.local_addr().map_err(|e| e.to_string())?);
    let stopper = {
        let token = token.clone();
        std::thread::spawn(move || {
            wait_for_stop();
            token.cancel();
        })
    };
    let served = server.run(&token).map_err(|e| e.to_string());
    stopper
        .join()
        .map_err(|_| "stop watcher panicked".to_owned())?;
    served
}
