//! The query-daemon suite (`BENCH_serve.json`).
//!
//! Starts an in-process `serve::Server` over the substrate's clique log
//! and drives it over real loopback TCP from 1, 4 and 8 keep-alive
//! client threads (the `threads` column), per endpoint (the `op`
//! column), in two variants:
//!
//! - `latency`: strict request/response ping-pong; every request's
//!   wall time is a sample.
//! - `pipelined`: requests written in batches of [`PIPELINE_DEPTH`] per
//!   flush, responses drained in order; the throughput shape (a
//!   request's sample is its batch's time over the depth).
//!
//! Rows carry the samples' minimum, median and p99, and the aggregate
//! requests per second (warmup included, so it errs low). Each cell
//! runs once, on fresh connections. It is not timed round-robin like
//! the other suites: a live connection pins a daemon worker, so a round
//! would have to reconnect, and the accept loop's poll interval then
//! lands in the wall clock.
//!
//! `--check` is a CI gate on the acceptance envelope: at 4 clients the
//! `membership` endpoint sustains at least 50k requests per second
//! pipelined, with ping-pong p99 latency under 1 ms.

use crate::{find, substrate, substrates_of, Args, Row, Suite};
use exec::{CancelToken, Threads};
use serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The serve suite.
pub(crate) const SUITE: Suite = Suite {
    name: "serve",
    ops: &ENDPOINTS,
    flags: &["--substrate", "--requests", "--seed", "--out", "--check"],
    substrates: &["small"],
    iters: 1,
    run,
    check: Some(check),
};

const ENDPOINTS: [&str; 3] = ["membership", "common", "healthz"];

const CLIENT_COUNTS: [usize; 3] = [1, 4, 8];

/// Requests per batch write in the pipelined variant.
const PIPELINE_DEPTH: usize = 8;

/// Warmup requests per client before a cell's first round samples.
const WARMUP: usize = 300;

/// A keep-alive connection speaking the daemon's wire format.
struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { reader, stream }
    }

    /// Reads one response; returns its status.
    fn read_response(&mut self) -> u16 {
        let (mut status, mut length) = (None, 0);
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("response head");
            if status.is_none() {
                status = line.split(' ').nth(1).and_then(|s| s.parse().ok());
                assert!(status.is_some(), "bad status line {line:?}");
            } else if line.trim_end().is_empty() {
                break;
            } else if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v.trim().parse().expect("content-length");
            }
        }
        self.reader.read_exact(&mut vec![0; length]).expect("body");
        status.expect("checked above")
    }

    /// Writes `targets` in one flush and reads every response: the
    /// batch's wall time.
    fn batch(&mut self, targets: &[String]) -> u128 {
        let mut buf = String::new();
        for target in targets {
            buf.push_str(&format!("GET {target} HTTP/1.1\r\nHost: b\r\n\r\n"));
        }
        let t0 = Instant::now();
        self.stream.write_all(buf.as_bytes()).expect("write");
        for target in targets {
            assert_eq!(self.read_response(), 200, "GET {target}");
        }
        t0.elapsed().as_nanos()
    }
}

/// The per-client request target sequence: a multiplicative-hash walk
/// over the AS space so consecutive requests hit unrelated postings.
fn target(endpoint: &str, node_count: usize, client: usize, i: usize) -> String {
    let v = ((client * 1_000_003 + i).wrapping_mul(2_654_435_761)) % node_count;
    match endpoint {
        "membership" => format!("/membership/{v}"),
        "common" => format!("/common/{v}/{}", (v + 1 + i % 97) % node_count),
        _ => "/healthz".to_owned(),
    }
}

/// One cell, `(endpoint, clients, pipelined)`: every client warms up,
/// then sends `n` requests. Returns every request's sample.
fn burst(
    addr: SocketAddr,
    nodes: usize,
    (endpoint, clients, pipelined): (&'static str, usize, bool),
    n: usize,
) -> Vec<u128> {
    let depth = if pipelined { PIPELINE_DEPTH } else { 1 };
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..WARMUP {
                    client.batch(&[target(endpoint, nodes, c, i)]);
                }
                let mut samples = Vec::with_capacity(n);
                for first in (0..n).step_by(depth) {
                    let targets: Vec<String> = (first..(first + depth).min(n))
                        .map(|j| target(endpoint, nodes, c, j))
                        .collect();
                    let per_request = client.batch(&targets) / targets.len() as u128;
                    samples.extend(std::iter::repeat_n(per_request, targets.len()));
                }
                samples
            })
        })
        .collect();
    let joined = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"));
    joined.flatten().collect()
}

fn run(args: &Args) -> Vec<Row> {
    let dir = std::env::temp_dir().join(format!("kclique_bench_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut rows = Vec::new();
    for &flag in &args.substrates {
        let (name, g) = substrate(flag, args.seed);
        let log = dir.join(format!("{name}.cliquelog"));
        cpm_stream::write_clique_log(&g, &log).expect("write clique log");
        let mut config = ServeConfig::new("127.0.0.1:0", &log);
        config.threads = CLIENT_COUNTS[CLIENT_COUNTS.len() - 1] + 1;
        let token = CancelToken::new();
        let server = Server::bind(&config, &token).expect("bind server");
        let addr = server.local_addr().expect("local addr");
        let run_token = token.clone();
        let server_thread = std::thread::spawn(move || server.run(&run_token).expect("server run"));

        for endpoint in ENDPOINTS {
            for (clients, pipelined) in CLIENT_COUNTS.iter().flat_map(|&c| [(c, false), (c, true)])
            {
                let t0 = Instant::now();
                let cell = (endpoint, clients, pipelined);
                let mut samples = burst(addr, g.node_count(), cell, args.requests);
                let wall = t0.elapsed();
                samples.sort_unstable();
                let at =
                    |q: f64| samples[((samples.len() as f64 * q) as usize).min(samples.len() - 1)];
                let requests = samples.len() + clients * WARMUP;
                rows.push(Row {
                    variant: Some(if pipelined { "pipelined" } else { "latency" }),
                    threads: Some(Threads::Fixed(clients)),
                    min_ns: Some(at(0.0)),
                    median_ns: Some(at(0.5)),
                    p99_ns: Some(at(0.99)),
                    per_s: Some((requests as f64 / wall.as_secs_f64()) as u64),
                    ..Row::new("serve", name, endpoint)
                });
            }
        }
        token.cancel();
        server_thread.join().expect("server thread");
    }
    std::fs::remove_dir_all(&dir).ok();
    rows
}

fn check(rows: &[Row]) -> Vec<String> {
    const MIN_QPS: u64 = 50_000;
    const MAX_P99_NS: u128 = 1_000_000;
    let mut violations = Vec::new();
    for sub in substrates_of(rows) {
        let get = |v| {
            find(
                rows,
                (sub, "membership", None, Some(v), Some(Threads::Fixed(4))),
            )
        };
        match get("pipelined").and_then(|r| r.per_s) {
            Some(qps) if qps < MIN_QPS => violations.push(format!(
                "{sub}/membership @ 4 clients pipelined: {qps} qps < required {MIN_QPS}"
            )),
            None => violations.push(format!("{sub}: no membership/4-client/pipelined row")),
            _ => {}
        }
        match get("latency").and_then(|r| r.p99_ns) {
            Some(p99) if p99 > MAX_P99_NS => violations.push(format!(
                "{sub}/membership @ 4 clients: p99 {p99}ns > required {MAX_P99_NS}ns"
            )),
            None => violations.push(format!("{sub}: no membership/4-client/latency row")),
            _ => {}
        }
    }
    violations
}
