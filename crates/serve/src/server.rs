//! The daemon: accept loop, connection workers, routing, hot reload.
//!
//! # Threading model
//!
//! A [`Server`] owns a **private** [`exec::Pool`] (never
//! [`Pool::global`]: `run` holds the pool's submit lock for the job's
//! whole lifetime, and the serving job lives until shutdown — parking
//! the global pool under it would deadlock any background rebuild that
//! wants pool help). [`Server::run`] submits one long job of
//! `threads + 1` workers:
//!
//! * worker 0 runs the accept loop — a nonblocking
//!   [`TcpListener`] polled every [`ACCEPT_POLL`], pushing accepted
//!   streams into a [`TaskQueue`];
//! * workers `1..=threads` pop connections and serve them
//!   keep-alive until the peer closes, the idle timeout lapses, or the
//!   cancel token trips.
//!
//! One connection pins one worker while it lives, so `threads` bounds
//! the number of concurrently-open keep-alive connections — the honest
//! trade-off of a std-only server with no readiness multiplexing. The
//! idle timeout releases workers from silent peers, and pipelined
//! clients amortise the worker across many requests.
//!
//! # Snapshot swap protocol
//!
//! Queries read through `RwLock<Arc<Snapshot>>`: each request clones
//! the `Arc` under the read lock (two atomic ops) and then works on an
//! immutable index with no lock held. `POST /reload` rebuilds a new
//! snapshot on a detached thread and publishes it by storing a fresh
//! `Arc` under the write lock — the critical section is one pointer
//! store, so readers are never blocked for longer than that, and
//! in-flight requests keep the snapshot they started with alive through
//! their own `Arc`. At most one rebuild runs at a time
//! (`reload_in_flight`); a second `POST /reload` gets `409`.

use crate::http::{self, Request};
use crate::json;
use crate::snapshot::{load_snapshot, LoadError, Snapshot};
use cpm::{CommunityId, SnapshotIndex};
use exec::{CancelToken, Pool, Pop, TaskQueue, Threads};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why the server failed to come up.
#[derive(Debug)]
pub enum ServeError {
    /// The initial snapshot could not be built.
    Load(LoadError),
    /// The listen address could not be bound.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Load(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "cannot bind listener: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<LoadError> for ServeError {
    fn from(e: LoadError) -> Self {
        ServeError::Load(e)
    }
}

/// How often the nonblocking accept loop polls for connections and
/// cancellation.
pub const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Socket read timeout: the cadence at which an idle connection's
/// worker re-checks the cancel token and the idle budget.
pub const READ_POLL: Duration = Duration::from_millis(100);

/// Server configuration, CLI-shaped.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7117`. Port `0` picks a free
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Connection-handler workers; also the keep-alive connection cap.
    pub threads: usize,
    /// The snapshot file: a clique log v2 or a serialised
    /// [`SnapshotIndex`], sniffed by magic.
    pub snapshot: PathBuf,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Longest a peer may take to deliver one request, measured from
    /// its first byte — the slowloris guard. A peer that trickles or
    /// stalls past this gets `408` and the connection closes, freeing
    /// the worker.
    pub request_deadline: Duration,
    /// Thread budget for snapshot (re)builds from a clique log.
    pub rebuild_threads: Threads,
    /// Percolation mode for snapshot (re)builds from a clique log, as
    /// in `communities --mode`; reported by `/stats` alongside the
    /// build duration.
    pub mode: cpm::Mode,
}

impl ServeConfig {
    /// A config with daemon defaults for everything but the two
    /// required fields.
    pub fn new(addr: impl Into<String>, snapshot: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: addr.into(),
            threads: 4,
            snapshot: snapshot.into(),
            idle_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(5),
            rebuild_threads: Threads::Auto,
            mode: cpm::Mode::Exact,
        }
    }
}

/// Monotonic request-path counters, exposed verbatim by `/stats`.
#[derive(Debug, Default)]
pub struct Stats {
    /// Requests answered (any status).
    pub requests: AtomicU64,
    /// Responses with status >= 400.
    pub errors: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Reloads that published a new snapshot.
    pub reloads_ok: AtomicU64,
    /// Reloads that failed (corrupt file, I/O, cancelled).
    pub reloads_failed: AtomicU64,
}

/// Shared server state: the swappable snapshot plus counters.
struct State {
    snapshot: RwLock<Arc<Snapshot>>,
    /// Generation of the snapshot currently published (starts at 1).
    generation: AtomicU64,
    /// Next generation to assign to an in-flight rebuild.
    next_generation: AtomicU64,
    reload_in_flight: AtomicBool,
    stats: Stats,
    snapshot_path: PathBuf,
    rebuild_threads: Threads,
    rebuild_mode: cpm::Mode,
    rebuild_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl State {
    /// The current snapshot, independently owned — the caller holds no
    /// lock after this returns.
    fn current(&self) -> Arc<Snapshot> {
        self.snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Publishes `snap` — the write-side critical section is this one
    /// pointer store.
    fn publish(&self, snap: Arc<Snapshot>) {
        let generation = snap.generation;
        *self.snapshot.write().unwrap_or_else(|e| e.into_inner()) = snap;
        self.generation.store(generation, Ordering::Release);
    }
}

/// The query daemon. Construct with [`Server::bind`], drive with
/// [`Server::run`]; dropping it joins nothing (run already has).
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    threads: usize,
    idle_timeout: Duration,
    request_deadline: Duration,
    pool: Pool,
}

impl Server {
    /// Loads the initial snapshot (cancellable — a SIGINT here surfaces
    /// as [`LoadError::Interrupted`]) and binds the listen socket.
    ///
    /// # Errors
    ///
    /// [`ServeError::Load`] when the snapshot cannot be built,
    /// [`ServeError::Io`] when the address cannot be bound.
    pub fn bind(config: &ServeConfig, cancel: &CancelToken) -> Result<Server, ServeError> {
        let snap = load_snapshot(
            &config.snapshot,
            1,
            cancel,
            config.rebuild_threads,
            config.mode,
        )?;
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Io)?;
        listener.set_nonblocking(true).map_err(ServeError::Io)?;
        Ok(Server {
            listener,
            state: Arc::new(State {
                snapshot: RwLock::new(snap),
                generation: AtomicU64::new(1),
                next_generation: AtomicU64::new(2),
                reload_in_flight: AtomicBool::new(false),
                stats: Stats::default(),
                snapshot_path: config.snapshot.clone(),
                rebuild_threads: config.rebuild_threads,
                rebuild_mode: config.mode,
                rebuild_handles: Mutex::new(Vec::new()),
            }),
            threads: config.threads.max(1),
            idle_timeout: config.idle_timeout,
            request_deadline: config.request_deadline,
            pool: Pool::new(),
        })
    }

    /// The bound address — useful after binding port `0`.
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `cancel` trips, then drains: the accept loop stops,
    /// connection workers finish their current exchange and exit, and
    /// any in-flight rebuild (which shares `cancel`) is joined.
    ///
    /// # Errors
    ///
    /// Never errors today; the `io::Result` reserves the right.
    pub fn run(&self, cancel: &CancelToken) -> io::Result<()> {
        let queue: TaskQueue<TcpStream> = TaskQueue::new();
        self.pool.run(self.threads + 1, |worker| {
            if worker.index() == 0 {
                self.accept_loop(&queue, cancel);
            } else {
                while let Pop::Item(stream) = queue.pop(cancel) {
                    let _ = self.serve_connection(stream, cancel);
                }
            }
        });
        // Connections still queued but never claimed just close.
        drop(queue.drain());
        let handles = std::mem::take(
            &mut *self
                .state
                .rebuild_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    }

    /// Stats counters, for inspection in tests.
    pub fn stats(&self) -> &Stats {
        &self.state.stats
    }

    /// Generation of the currently-published snapshot.
    pub fn generation(&self) -> u64 {
        self.state.generation.load(Ordering::Acquire)
    }

    fn accept_loop(&self, queue: &TaskQueue<TcpStream>, cancel: &CancelToken) {
        while !cancel.is_cancelled() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.state.stats.connections.fetch_add(1, Ordering::Relaxed);
                    if !queue.push(stream) {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failures (EMFILE, resets): back off
                // and keep listening rather than killing the daemon.
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        queue.close();
    }

    /// Serves one connection keep-alive until EOF, idle timeout,
    /// request deadline, parse failure, or cancellation.
    fn serve_connection(&self, stream: TcpStream, cancel: &CancelToken) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_POLL))?;
        // The read side is deadline-guarded below; the write side needs
        // its own guard or a peer that sends requests without ever
        // reading responses pins this worker on flush once the socket
        // buffer fills — the slowloris variant on the write path.
        if !self.request_deadline.is_zero() {
            stream.set_write_timeout(Some(self.request_deadline))?;
        }
        // The DeadlineReader turns the poll-timeout socket into a
        // slowloris-proof source: mid-request timeouts are absorbed (so
        // partially-read requests are never dropped as "idle"), while a
        // peer trickling or stalling past `request_deadline` gets a
        // distinguished error answered with 408 below.
        let mut reader =
            http::DeadlineReader::new(BufReader::new(stream.try_clone()?), self.request_deadline);
        let mut writer = BufWriter::new(stream);
        let mut idle_since = Instant::now();
        loop {
            if cancel.is_cancelled() {
                break;
            }
            match http::read_request(&mut reader) {
                Ok(None) => break,
                Ok(Some(req)) => {
                    reader.end_request();
                    idle_since = Instant::now();
                    let (status, body) = self.route(&req, cancel);
                    self.state.stats.requests.fetch_add(1, Ordering::Relaxed);
                    if status >= 400 {
                        self.state.stats.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    let keep = req.keep_alive && !cancel.is_cancelled();
                    http::write_response(&mut writer, status, &body, keep)?;
                    // Pipelining: flush only once the peer has nothing
                    // more buffered, so a batch of requests costs one
                    // syscall each way.
                    if reader.get_ref().buffer().is_empty() {
                        writer.flush()?;
                    }
                    if !keep {
                        writer.flush()?;
                        break;
                    }
                }
                Err(e) if http::is_deadline_error(&e) => {
                    // Slowloris: the peer spent the whole request
                    // deadline without completing one request.
                    self.state.stats.requests.fetch_add(1, Ordering::Relaxed);
                    self.state.stats.errors.fetch_add(1, Ordering::Relaxed);
                    let body = json::error("request deadline exceeded");
                    http::write_response(&mut writer, 408, &body, false)?;
                    writer.flush()?;
                    break;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle poll tick: nothing to read for READ_POLL and
                    // no request in flight.
                    writer.flush()?;
                    if idle_since.elapsed() >= self.idle_timeout {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    self.state.stats.requests.fetch_add(1, Ordering::Relaxed);
                    self.state.stats.errors.fetch_add(1, Ordering::Relaxed);
                    let body = json::error(&e.to_string());
                    http::write_response(&mut writer, 400, &body, false)?;
                    writer.flush()?;
                    break;
                }
                Err(_) => break,
            }
        }
        Ok(())
    }

    /// Dispatches one request to its handler: `(status, JSON body)`.
    fn route(&self, req: &Request, cancel: &CancelToken) -> (u16, String) {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => self.healthz(),
            ("GET", ["stats"]) => self.stats_json(),
            ("GET", ["membership", asn]) => self.membership(req, asn),
            ("GET", ["community", id]) => self.community(id),
            ("GET", ["common", a, b]) => self.common(req, a, b),
            ("GET", ["tree", id]) => self.tree(id),
            ("POST", ["reload"]) => self.reload(cancel),
            (_, ["healthz" | "stats" | "membership" | "community" | "common" | "tree", ..])
            | (_, ["reload"]) => (405, json::error("method not allowed")),
            _ => (404, json::error("no such endpoint")),
        }
    }

    fn healthz(&self) -> (u16, String) {
        let snap = self.state.current();
        (
            200,
            format!("{{\"status\":\"ok\",\"generation\":{}}}", snap.generation),
        )
    }

    fn stats_json(&self) -> (u16, String) {
        let snap = self.state.current();
        let s = &self.state.stats;
        let body = format!(
            concat!(
                "{{\"generation\":{},\"source\":{},\"node_count\":{},",
                "\"levels\":{},\"communities\":{},\"k_max\":{},",
                "\"mode\":{},\"build_ms\":{},",
                "\"requests\":{},\"errors\":{},\"connections\":{},",
                "\"reloads_ok\":{},\"reloads_failed\":{},",
                "\"reload_in_flight\":{}}}"
            ),
            snap.generation,
            json::string(&snap.source.display().to_string()),
            snap.index.node_count(),
            snap.index.levels().len(),
            snap.index.total_communities(),
            snap.index.k_max().unwrap_or(0),
            json::string(snap.mode.as_str()),
            snap.build_ms,
            s.requests.load(Ordering::Relaxed),
            s.errors.load(Ordering::Relaxed),
            s.connections.load(Ordering::Relaxed),
            s.reloads_ok.load(Ordering::Relaxed),
            s.reloads_failed.load(Ordering::Relaxed),
            self.state.reload_in_flight.load(Ordering::Relaxed),
        );
        (200, body)
    }

    fn membership(&self, req: &Request, asn: &str) -> (u16, String) {
        let Ok(v) = asn.parse::<u32>() else {
            return (400, json::error("AS number must be a non-negative integer"));
        };
        let k = match req.query_value("k") {
            None => None,
            Some(raw) => match raw.parse::<u32>() {
                Ok(k) if k >= 2 => Some(k),
                _ => return (400, json::error("k must be an integer >= 2")),
            },
        };
        let snap = self.state.current();
        if (v as usize) >= snap.index.node_count() {
            return (404, json::error("unknown AS"));
        }
        let ids = snap.index.membership(v, k);
        let body = format!(
            "{{\"as\":{},\"k\":{},\"generation\":{},\"communities\":{}}}",
            v,
            k.map_or("null".to_owned(), |k| k.to_string()),
            snap.generation,
            json::raw_array(ids.iter().map(|&id| summary_json(&snap.index, id))),
        );
        (200, body)
    }

    fn community(&self, id: &str) -> (u16, String) {
        let Some(cid) = parse_community_id(id) else {
            return (400, json::error("community id must look like k4id17"));
        };
        let snap = self.state.current();
        let Some(c) = snap.index.community(cid) else {
            return (404, json::error("no such community"));
        };
        let parent = c.parent.map_or("null".to_owned(), |p| {
            json::string(
                &CommunityId {
                    k: cid.k - 1,
                    idx: p,
                }
                .to_string(),
            )
        });
        let children = json::raw_array(c.children.iter().map(|&i| {
            json::string(
                &CommunityId {
                    k: cid.k + 1,
                    idx: i,
                }
                .to_string(),
            )
        }));
        let body = format!(
            "{{\"id\":{},\"k\":{},\"size\":{},\"parent\":{},\"children\":{},\"members\":{}}}",
            json::string(&cid.to_string()),
            cid.k,
            c.size(),
            parent,
            children,
            json::number_array(c.members.iter().copied()),
        );
        (200, body)
    }

    fn common(&self, req: &Request, a: &str, b: &str) -> (u16, String) {
        let (Ok(a), Ok(b)) = (a.parse::<u32>(), b.parse::<u32>()) else {
            return (400, json::error("AS numbers must be non-negative integers"));
        };
        let min_k = match req.query_value("k") {
            None => 2,
            Some(raw) => match raw.parse::<u32>() {
                Ok(k) if k >= 2 => k,
                _ => return (400, json::error("k must be an integer >= 2")),
            },
        };
        let snap = self.state.current();
        let n = snap.index.node_count();
        if (a as usize) >= n || (b as usize) >= n {
            return (404, json::error("unknown AS"));
        }
        let found = snap.index.common_community(a, b, min_k);
        let body = format!(
            "{{\"a\":{},\"b\":{},\"min_k\":{},\"community\":{}}}",
            a,
            b,
            min_k,
            found.map_or("null".to_owned(), |id| summary_json(&snap.index, id)),
        );
        (200, body)
    }

    fn tree(&self, id: &str) -> (u16, String) {
        let Some(cid) = parse_community_id(id) else {
            return (400, json::error("community id must look like k4id17"));
        };
        let snap = self.state.current();
        if snap.index.community(cid).is_none() {
            return (404, json::error("no such community"));
        }
        let ancestors = snap.index.ancestors(cid);
        let children = snap.index.children(cid);
        let body = format!(
            "{{\"id\":{},\"ancestors\":{},\"children\":{}}}",
            json::string(&cid.to_string()),
            json::raw_array(ancestors.iter().map(|&a| summary_json(&snap.index, a))),
            json::raw_array(children.iter().map(|&c| summary_json(&snap.index, c))),
        );
        (200, body)
    }

    /// `POST /reload`: kick a background rebuild from the snapshot
    /// file, publish on success. `202` when started, `409` when one is
    /// already in flight.
    fn reload(&self, cancel: &CancelToken) -> (u16, String) {
        if self.state.reload_in_flight.swap(true, Ordering::AcqRel) {
            return (409, json::error("reload already in flight"));
        }
        let state = Arc::clone(&self.state);
        let generation = state.next_generation.fetch_add(1, Ordering::AcqRel);
        // The rebuild shares the server's token: shutdown interrupts it
        // at the next replay poll, and `run` joins the thread shortly
        // after — a half-built snapshot is simply dropped.
        let token = cancel.clone();
        let handle = std::thread::spawn(move || {
            let built = load_snapshot(
                &state.snapshot_path,
                generation,
                &token,
                state.rebuild_threads,
                state.rebuild_mode,
            );
            match built {
                Ok(snap) => {
                    state.publish(snap);
                    state.stats.reloads_ok.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    state.stats.reloads_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            state.reload_in_flight.store(false, Ordering::Release);
        });
        let mut handles = self
            .state
            .rebuild_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
        (
            202,
            format!(
                "{{\"status\":\"reload started\",\"generation\":{}}}",
                generation
            ),
        )
    }
}

/// Renders the compact `{"id","k","size"}` community summary used by
/// list-shaped responses.
fn summary_json(index: &SnapshotIndex, id: CommunityId) -> String {
    let size = index.community(id).map_or(0, |c| c.size());
    format!(
        "{{\"id\":{},\"k\":{},\"size\":{}}}",
        json::string(&id.to_string()),
        id.k,
        size
    )
}

/// Parses the canonical `k{k}id{idx}` community id form.
fn parse_community_id(s: &str) -> Option<CommunityId> {
    let rest = s.strip_prefix('k')?;
    let split = rest.find("id")?;
    let (k_part, idx_part) = rest.split_at(split);
    let idx_part = &idx_part[2..];
    let k: u32 = k_part.parse().ok()?;
    let idx: u32 = idx_part.parse().ok()?;
    if k < 2 {
        return None;
    }
    Some(CommunityId { k, idx })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn community_id_round_trips() {
        for id in [
            CommunityId { k: 2, idx: 0 },
            CommunityId { k: 3, idx: 17 },
            CommunityId { k: 12, idx: 40961 },
        ] {
            assert_eq!(parse_community_id(&id.to_string()), Some(id));
        }
    }

    #[test]
    fn community_id_rejects_noise() {
        for bad in [
            "", "k", "kid", "k3", "id4", "k1id0", "3id4", "k3id", "kxid4", "k3id-1",
        ] {
            assert_eq!(parse_community_id(bad), None, "{bad:?} should not parse");
        }
    }
}
