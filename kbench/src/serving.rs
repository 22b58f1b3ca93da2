//! The serve side: the daemon child, open- and closed-loop load
//! phases, the `serve-medium` workload and its oracle, and the serve
//! stage every traced run ends with.

use crate::child::Report;
use crate::digest::{self, Level};
use crate::gen::{self, Query};
use crate::host::{self, Bracket, RTT_NOMINAL_US};
use crate::loadgen::{self, Done, Load, Reply};
use crate::stats::{self, Summary};
use crate::system::{self, Mode};
use crate::trace::Trace;
use crate::workload::{
    chain_pass, check_pinned, ingest_in_parent, iter_args, layer_metrics, overhead_pct, prepare,
    tail, traced_iter, Inputs, Metrics, Options, Outcome, Workload, SETUPS,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The fixed open-loop rate, requests per second.
const SERVE_RATE: f64 = 20_000.0;

/// The latency limit the rate ladder holds p99 to. Host scheduling on
/// a two-vCPU Intel Xeon virtual machine puts p99 at 1–6 ms at every
/// rate from 40k req/s up to the knee, so a 1 ms limit measured those
/// hiccups rather than the knee where the backlog starts to grow.
const LIMIT_NS: u64 = 10_000_000;

/// A run whose generator sent its fixed-rate requests later than this
/// (p99) measured its own lateness, not the daemon: it is flagged
/// invalid (`loadgen.valid` 0 and a warning) but still reported.
const LATE_LIMIT_US: f64 = 200.0;

/// Load-generating threads, one keep-alive connection each: as many as
/// the two hardware threads of the machine the baseline was measured on.
const LOAD_THREADS: usize = 2;

/// Distinct requests in a query stream (cycled).
pub(crate) const QUERY_STREAM: usize = 50_000;

/// Ping-pong time behind `serve.service_us`.
const PROBE: Duration = Duration::from_millis(300);

/// Measurement rounds, spread evenly over the set-ups' daemons. One
/// saturation window's rate moves by ±15% with the host, so the median
/// needs a dozen of them.
const ROUNDS: usize = 12;

/// Requests each connection keeps in flight in a saturation window.
const SATURATION_DEPTH: usize = 32;

/// Every `SAMPLE_EVERY`-th reply is checked against the oracle and, in
/// a traced run, recorded as a request span.
const SAMPLE_EVERY: u64 = 8;

/// How long replies may straggle after a load phase stops scheduling.
const DRAIN: Duration = Duration::from_secs(5);

/// Longest a reload may take before the run is declared broken.
const RELOAD_CAP: Duration = Duration::from_secs(60);

/// Ladder step warm-up and measured part.
const STEP_WARMUP_S: f64 = 0.25;
const STEP_MEASURE_S: f64 = 1.0;

/// Ladder bisections after the first failing step.
const BISECTIONS: u32 = 5;

/// A daemon child: `kbench child daemon` on a snapshot file.
pub(crate) struct Daemon {
    child: Child,
    pub(crate) addr: SocketAddr,
    lines: mpsc::Receiver<String>,
    reader: Option<JoinHandle<()>>,
    /// Spawn to "listening", seconds.
    startup: f64,
}

impl Daemon {
    /// Spawns the daemon and waits for it to listen.
    pub(crate) fn start(exe: &Path, snapshot: &Path) -> Result<Daemon, String> {
        let t = Instant::now();
        let mut child = Command::new(exe)
            .args(["child", "daemon"])
            .arg(snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut d = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            lines,
            reader: Some(reader),
            startup: 0.0,
        };
        let line = d
            .lines
            .recv_timeout(Duration::from_secs(150))
            .map_err(|_| "the daemon never started listening".to_owned())?;
        d.addr = line
            .strip_prefix("listening\t")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon line {line:?}"))?;
        d.startup = t.elapsed().as_secs_f64();
        Ok(d)
    }

    /// CPU time the daemon's threads have run so far, in ns.
    fn cpu_ns(&self) -> u64 {
        let dir = format!("/proc/{}/task", self.child.id());
        std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum()
    }

    /// Closes its stdin, waits for it to drain and exit; returns its
    /// peak RSS in KiB.
    pub(crate) fn stop(mut self) -> Result<f64, String> {
        drop(self.child.stdin.take());
        let mut peak = None;
        while let Ok(line) = self.lines.recv_timeout(Duration::from_secs(30)) {
            if let Some(v) = line.strip_prefix("count\tpeak_rss_kb\t") {
                peak = v.parse().ok();
            }
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        peak.ok_or_else(|| "daemon did not report its peak RSS".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached after `stop` too, where both calls are no-ops on the
        // exited child.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Counts replies that failed: a non-200 status or none at all.
fn failures(dones: &[Done]) -> u64 {
    dones.iter().filter(|d| d.status != 200).count() as u64
}

/// Due-time latencies (µs) of answered requests.
fn latencies_us<'a>(dones: impl IntoIterator<Item = &'a Done>) -> Vec<f64> {
    dones
        .into_iter()
        .filter(|d| d.status == 200)
        .map(|d| d.latency_ns() as f64 / 1e3)
        .collect()
}

fn p99(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        0.0
    } else {
        stats::percentile(&sorted, 0.99)
    }
}

/// Most requests outstanding at any send.
fn backlog_max(dones: &[Done]) -> u64 {
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(dones.len() * 2);
    for d in dones {
        events.push((d.sent_ns, 1));
        if d.done_ns != loadgen::UNANSWERED {
            events.push((d.done_ns, -1));
        }
    }
    events.sort_unstable();
    let (mut now, mut max) = (0i64, 0i64);
    for (_, delta) in events {
        now += delta;
        max = max.max(now);
    }
    max as u64
}

/// The serve stage of a traced run against `daemon`: closed-loop
/// service time on one connection, then a reload under the fixed
/// open-loop rate. Returns `(attempted, failed)`.
pub(crate) fn serve_stage(
    daemon: &Daemon,
    queries: &[Query],
    chain: &Report,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let requests: Vec<Vec<u8>> = queries.iter().map(Query::request).collect();
    let at = trace.now();
    let probe = loadgen::closed(
        daemon.addr,
        trace.epoch(),
        &requests,
        0,
        1,
        1,
        at + PROBE.as_nanos() as u64,
    )
    .map_err(|e| format!("service probe: {e}"))?;
    trace.push("serve.probe", at, trace.now(), None, "probe");
    let service = latencies_us(&probe);
    m.samples("serve.service_us", "us", &service);
    let read_path_us = ["serve.parse_ns", "serve.lookup_mix_ns"]
        .iter()
        .map(|c| chain.counts.get(*c).copied().unwrap_or(0.0))
        .sum::<f64>()
        / 1e3;
    let service_p50 = Summary::of(&service).map_or(0.0, |s| s.median);
    m.one("serve.residual_us", "us", service_p50 - read_path_us);

    // Reload under load: POST 1 s in, keep the rate up until 1 s after
    // the first reply from the new generation.
    let t0 = trace.epoch();
    let start_ns = trace.now() + 20_000_000;
    let until = AtomicU64::new(start_ns + RELOAD_CAP.as_nanos() as u64);
    let published = AtomicU64::new(loadgen::UNANSWERED);
    let observe = |r: &Reply| {
        if loadgen::generation(r.body).is_some_and(|g| g >= 2)
            && published
                .compare_exchange(
                    loadgen::UNANSWERED,
                    r.done_ns,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
        {
            until.store(r.done_ns + 1_000_000_000, Ordering::Release);
        }
    };
    let load = Load {
        addr: daemon.addr,
        t0,
        start_ns,
        rate: SERVE_RATE,
        until_ns: &until,
        requests: &requests,
        first: 0,
        drain: DRAIN,
    };
    let addr = daemon.addr;
    let (dones, posted) = std::thread::scope(|s| {
        let poster = s.spawn(|| {
            loadgen::tight_timers();
            let post_at = start_ns + 1_000_000_000;
            std::thread::sleep(Duration::from_nanos(
                post_at.saturating_sub(loadgen::ns_since(t0)),
            ));
            let sent = loadgen::ns_since(t0);
            (sent, loadgen::post_reload(addr))
        });
        let dones = loadgen::run(&load, LOAD_THREADS, &observe);
        (dones, poster.join().expect("reload poster panicked"))
    });
    let dones = dones.map_err(|e| format!("reload load: {e}"))?;
    let (post_ns, status) = posted;
    match status {
        Ok(202) => {}
        other => return Err(format!("POST /reload answered {other:?}")),
    }
    let published = published.load(Ordering::Acquire);
    if published == loadgen::UNANSWERED {
        return Err(format!("reload not published within {RELOAD_CAP:?}"));
    }
    trace.push("serve.reload", post_ns, published, None, "reload");
    m.one("serve.reload_s", "s", (published - post_ns) as f64 / 1e9);
    let during = latencies_us(
        dones
            .iter()
            .filter(|d| d.due_ns >= post_ns && d.due_ns <= published),
    );
    m.one("serve.reload_query_p99_us", "us", p99(&during));
    Ok((
        (probe.len() + dones.len() + 1) as u64,
        failures(&probe) + failures(&dones),
    ))
}

/// A generator-space oracle of the daemon's answers.
struct Oracle {
    /// Generator vertex → `(k, community index)` of every community
    /// holding it, ascending.
    postings: Vec<Vec<(u32, u32)>>,
    /// Sizes by level and index.
    sizes: HashMap<(u32, u32), u32>,
}

impl Oracle {
    fn new(node_count: usize, cover: &[Level]) -> Oracle {
        let mut postings = vec![Vec::new(); node_count];
        let mut sizes = HashMap::new();
        for l in cover {
            for (i, c) in l.communities.iter().enumerate() {
                sizes.insert((l.k, i as u32), c.len() as u32);
                for &v in c {
                    postings[v as usize].push((l.k, i as u32));
                }
            }
        }
        Oracle { postings, sizes }
    }

    /// `(k, size)` of every community holding `v` (at level `k` only
    /// when given), sorted.
    fn membership(&self, v: u32, k: Option<u32>) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self.postings[v as usize]
            .iter()
            .filter(|p| k.is_none_or(|k| p.0 == k))
            .map(|p| (p.0, self.sizes[p]))
            .collect();
        out.sort_unstable();
        out
    }

    /// `(k, size)` of the smallest community at the deepest level
    /// holding both.
    fn common(&self, a: u32, b: u32) -> Option<(u32, u32)> {
        let pb = &self.postings[b as usize];
        self.postings[a as usize]
            .iter()
            .filter(|p| pb.binary_search(p).is_ok())
            .map(|p| (p.0, std::cmp::Reverse(self.sizes[p])))
            .max()
            .map(|(k, s)| (k, s.0))
    }
}

/// The `(k, size)` pairs a reply lists, in order, after `key`.
fn reply_pairs(body: &str, key: &str) -> Vec<(u32, u32)> {
    let Some(at) = body.find(key) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &body[at..];
    while let Some(k_at) = rest.find("\"k\":") {
        let num = |s: &str| -> Option<u32> {
            let digits: String = s.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        };
        let after_k = &rest[k_at + 4..];
        let Some(s_at) = after_k.find("\"size\":") else {
            break;
        };
        if let (Some(k), Some(size)) = (num(after_k), num(&after_k[s_at + 7..])) {
            out.push((k, size));
        }
        rest = &after_k[s_at + 7..];
    }
    out
}

/// The open-loop rate ladder of a traced serve run: double from
/// SERVE_RATE until a step's p99 misses LIMIT_NS, bisect BISECTIONS
/// times, and interpolate where p99 crosses the limit between the last
/// passing step and the nearest failing one above it. Returns
/// `(attempted, failed)`.
fn ladder(
    daemon: &Daemon,
    requests: &[Vec<u8>],
    first: u64,
    keep: &(dyn Fn(&Reply) + Sync),
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let (t0, start) = (trace.epoch(), trace.now());
    let (mut next_g, mut attempted, mut failed) = (first, 0u64, 0u64);
    let mut err = None;
    let mut step_p99: Vec<(f64, f64)> = Vec::new();
    let (best, steps) = loadgen::ladder(SERVE_RATE, 64.0 * SERVE_RATE, BISECTIONS, |rate| {
        let start_ns = loadgen::ns_since(t0) + 5_000_000;
        let from = start_ns + (STEP_WARMUP_S * 1e9) as u64;
        let until = AtomicU64::new(from + (STEP_MEASURE_S * 1e9) as u64);
        let load = Load {
            addr: daemon.addr,
            t0,
            start_ns,
            rate,
            until_ns: &until,
            requests,
            first: next_g,
            drain: DRAIN,
        };
        match loadgen::run(&load, LOAD_THREADS, keep) {
            Ok(dones) => {
                next_g += dones.len() as u64;
                attempted += dones.len() as u64;
                failed += failures(&dones);
                let window: Vec<Done> = dones.into_iter().filter(|d| d.due_ns >= from).collect();
                let (ok, p99) = loadgen::meets_limit(&window, LIMIT_NS);
                step_p99.push((rate, p99 as f64));
                m.one(
                    &format!("serve.p99_us.r{}", rate.round()),
                    "us",
                    p99 as f64 / 1e3,
                );
                ok
            }
            Err(e) => {
                err.get_or_insert(e.to_string());
                false
            }
        }
    });
    if let Some(e) = err {
        return Err(format!("ladder load: {e}"));
    }
    trace.push(
        "serve.ladder",
        start,
        trace.now(),
        None,
        &format!("{} steps", steps.len()),
    );
    let p99_at = |rate: f64| {
        step_p99
            .iter()
            .find(|s| s.0 == rate)
            .map_or(f64::INFINITY, |s| s.1)
    };
    let fail = steps
        .iter()
        .filter(|&&(rate, ok)| !ok && rate > best)
        .map(|s| s.0)
        .fold(f64::INFINITY, f64::min);
    let max_rate = if best > 0.0 && fail.is_finite() {
        loadgen::crossing((best, p99_at(best)), (fail, p99_at(fail)), LIMIT_NS as f64)
    } else {
        best
    };
    m.one("serve.ladder_max_rate_per_s", "1/s", max_rate);
    Ok((attempted, failed))
}

/// What the measurement rounds collected.
#[derive(Default)]
struct Rounds {
    /// Median latency of each fixed-rate window, with its host factor.
    window_p50_ms: Vec<(f64, f64)>,
    /// Completion rate of each saturation window, with its host factor.
    rates: Vec<(f64, f64)>,
    fixed: Vec<Done>,
    saturated: Vec<Done>,
    fixed_cpu_ns: u64,
    rtt_us: Vec<f64>,
    next_g: u64,
}

impl Rounds {
    /// One round against `daemon`: a fixed-rate window (open loop at
    /// SERVE_RATE, latency from the due time) between two loopback
    /// round-trip probes, then a saturation window (closed loop,
    /// SATURATION_DEPTH requests in flight per connection) between two
    /// runs of the host reference; each window `0.4 * round_s` long.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        daemon: &Daemon,
        requests: &[Vec<u8>],
        round_s: f64,
        keep: &(dyn Fn(&Reply) + Sync),
        host: &mut Bracket,
        traced: bool,
        trace: &mut Trace,
    ) -> Result<(), String> {
        let t0 = trace.epoch();
        let rtt_before = self.rtt()?;
        let start_ns = trace.now() + 5_000_000;
        let until = AtomicU64::new(start_ns + (0.4 * round_s * 1e9) as u64);
        let load = Load {
            addr: daemon.addr,
            t0,
            start_ns,
            rate: SERVE_RATE,
            until_ns: &until,
            requests,
            first: self.next_g,
            drain: DRAIN,
        };
        let cpu0 = daemon.cpu_ns();
        let dones =
            loadgen::run(&load, LOAD_THREADS, keep).map_err(|e| format!("fixed-rate load: {e}"))?;
        self.fixed_cpu_ns += daemon.cpu_ns() - cpu0;
        let phase = trace.push("serve.fixed_rate", start_ns, trace.now(), None, "fixed");
        if traced {
            for d in dones
                .iter()
                .filter(|d| d.g.is_multiple_of(SAMPLE_EVERY) && d.status == 200)
            {
                trace.push(
                    "request",
                    d.due_ns,
                    d.done_ns,
                    Some(phase),
                    &format!("req{}", d.g),
                );
            }
        }
        self.next_g += dones.len() as u64;
        let rtt_after = self.rtt()?;
        if let Some(s) = Summary::of(&latencies_us(&dones)) {
            self.window_p50_ms
                .push((s.median / 1e3, host::rtt_factor(rtt_before, rtt_after)));
        }
        self.fixed.extend(dones);

        host.close();
        let from = trace.now() + (0.1 * round_s * 1e9) as u64;
        let to = from + (0.4 * round_s * 1e9) as u64;
        let dones = loadgen::closed(
            daemon.addr,
            t0,
            requests,
            self.next_g,
            SATURATION_DEPTH,
            LOAD_THREADS,
            to,
        )
        .map_err(|e| format!("saturation load: {e}"))?;
        trace.push("serve.saturation", from, trace.now(), None, "saturation");
        self.next_g += dones.len() as u64;
        let in_window = dones
            .iter()
            .filter(|d| d.done_ns >= from && d.done_ns < to)
            .count();
        self.rates
            .push((in_window as f64 / (to - from) as f64 * 1e9, host.close()));
        self.saturated.extend(dones);
        Ok(())
    }

    /// Median of 50 ms of loopback round trips, in µs.
    fn rtt(&mut self) -> Result<f64, String> {
        let rtt = loadgen::loopback_rtt(Duration::from_millis(50))
            .map_err(|e| format!("loopback: {e}"))?;
        let us: Vec<f64> = rtt.iter().map(|&ns| ns as f64 / 1e3).collect();
        self.rtt_us.extend(&us);
        Ok(Summary::of(&us).map_or(RTT_NOMINAL_US, |s| s.median))
    }
}

/// What the first set-up leaves for measuring and checking: the query
/// stream in the daemon's ids, and the oracle addressed through the AS
/// numbers.
struct Session {
    inputs: Inputs,
    queries: Vec<Query>,
    requests: Vec<Vec<u8>>,
    oracle: Oracle,
    oracle_digest: String,
    /// Daemon id → generator vertex.
    to_gen: Vec<u32>,
}

impl Session {
    fn new(seed: u64, inputs: Inputs, ingested: &system::Ingested) -> Session {
        let cover = system::cover(&system::percolate(&inputs.generator, Mode::Exact));
        let n = system::node_count(&inputs.generator);
        let by_asn: HashMap<u32, u32> = (0..n as u32).map(|v| (inputs.map.asn(v), v)).collect();
        let to_gen = ingested.asn.iter().map(|a| by_asn[a]).collect();
        let levels: Vec<(u32, u32)> = cover
            .iter()
            .map(|l| (l.k, l.communities.len() as u32))
            .collect();
        let queries = gen::query_mix(
            seed,
            &gen::by_degree(&system::degrees(&ingested.graph)),
            &levels,
            QUERY_STREAM,
        );
        Session {
            requests: queries.iter().map(Query::request).collect(),
            queries,
            oracle: Oracle::new(n, &cover),
            oracle_digest: format!(
                "{:016x}",
                digest::cover_digest(&cover, |v| inputs.map.asn(v))
            ),
            to_gen,
            inputs,
        }
    }

    /// Checks sampled replies against the oracle on `(k, size)`
    /// multisets; returns `(checked, mismatches)`.
    fn check(&self, samples: &[(u64, String)]) -> (u64, Vec<String>) {
        let gen_of = |v: u32| self.to_gen[v as usize];
        let mut mismatches = Vec::new();
        let mut checked = 0;
        for (g, body) in samples {
            let q = self.queries[(g % self.queries.len() as u64) as usize];
            let (mut got, want) = match q {
                Query::Membership(v) => (
                    reply_pairs(body, "\"communities\""),
                    self.oracle.membership(gen_of(v), None),
                ),
                Query::MembershipAt(v, k) => (
                    reply_pairs(body, "\"communities\""),
                    self.oracle.membership(gen_of(v), Some(k)),
                ),
                Query::Common(a, b) => (
                    reply_pairs(body, "\"community\""),
                    self.oracle
                        .common(gen_of(a), gen_of(b))
                        .into_iter()
                        .collect(),
                ),
                Query::Tree(..) => continue,
            };
            got.sort_unstable();
            checked += 1;
            if got != want {
                mismatches.push(format!("{}: got {got:?}, oracle {want:?}", q.path()));
            }
        }
        (checked, mismatches)
    }
}

/// The `serve-medium` workload. Each of the SETUPS set-ups renders and
/// ingests the medium input, writes its clique log and starts a daemon
/// on it (the `serve --snapshot x.cliquelog` path); each daemon then
/// serves its share of the measurement rounds, so the rounds spread over
/// the whole run. The last daemon also takes the traced passes.
pub(crate) fn serve_medium(opts: &Options) -> Result<Outcome, String> {
    let w = Workload::ServeMedium;
    let mut trace = Trace::new();
    let mut m = Metrics::default();
    let log = opts.work.join("medium.cliquelog");
    let (mut setups, mut startups, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut session: Option<Session> = None;
    let mut rounds = Rounds::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let samples: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
    let keep = |r: &Reply| {
        if r.g.is_multiple_of(SAMPLE_EVERY) && r.status == 200 {
            samples
                .lock()
                .expect("sample lock")
                .push((r.g, String::from_utf8_lossy(r.body).into_owned()));
        }
    };
    let round_s = opts.seconds / ROUNDS as f64;
    // Set-ups and saturation windows sit between runs of the host
    // reference, fixed-rate windows between loopback round-trip probes,
    // and each is scaled by them (see `host`).
    let mut host = Bracket::open();
    for setup in 0..SETUPS {
        let t = Instant::now();
        let inputs = prepare(w, opts.seed, &opts.work)?;
        let ingested = ingest_in_parent(w, &inputs.paths)?;
        let tl = Instant::now();
        let log_bytes = system::write_clique_log(&ingested.graph, &log)?;
        m.one("stream.log_write_s", "s", tl.elapsed().as_secs_f64());
        m.one("stream.log_bytes", "bytes", log_bytes as f64);
        let at = trace.now();
        let daemon = Daemon::start(&opts.exe, &log)?;
        trace.push(
            "serve.startup",
            at,
            trace.now(),
            None,
            &format!("setup{setup}"),
        );
        setups.push((t.elapsed().as_secs_f64(), host.close()));
        startups.push(daemon.startup);

        let s = session.get_or_insert_with(|| Session::new(opts.seed, inputs, &ingested));
        for _ in 0..ROUNDS / SETUPS {
            rounds.run(
                &daemon,
                &s.requests,
                round_s,
                &keep,
                &mut host,
                opts.traced,
                &mut trace,
            )?;
        }
        if opts.traced && setup + 1 == SETUPS {
            let (a, f) = ladder(
                &daemon,
                &s.requests,
                rounds.next_g,
                &keep,
                &mut trace,
                &mut m,
            )?;
            attempted += a;
            failed += f;
            let rebuilt = trace.time("stream.rebuild", None, "rebuild", || {
                system::rebuild_from_log(&log)
            })?;
            let rebuild_s = trace.spans.last().expect("span just recorded").secs();
            m.one("stream.rebuild_s", "s", rebuild_s);
            let rebuilt = format!(
                "{:016x}",
                digest::cover_digest(&system::cover(&rebuilt), |v| ingested.asn[v as usize])
            );
            if rebuilt != s.oracle_digest {
                return Err(format!(
                    "{}: the clique-log rebuild gives {rebuilt}, fused exact on the generator graph {}",
                    w.name(),
                    s.oracle_digest
                ));
            }
            host.close();
            let plain = traced_iter(
                &opts.exe,
                &iter_args(w, &s.inputs.paths),
                &mut trace,
                "plain",
            )?;
            let plain = (plain, host.close());
            let chain = chain_pass(w, opts, &s.inputs.paths, &mut trace)?;
            let chain = (chain, host.close());
            let overhead = overhead_pct(std::slice::from_ref(&chain), std::slice::from_ref(&plain));
            layer_metrics(&mut m, &[&chain.0], overhead);
            let (a, f) = serve_stage(&daemon, &s.queries, &chain.0, &mut trace, &mut m)?;
            attempted += a;
            failed += f;
        }
        peaks.push(daemon.stop()? / 1024.0);
    }
    let session = session.expect("SETUPS > 0");

    for phase in [&rounds.fixed, &rounds.saturated] {
        attempted += phase.len() as u64;
        failed += failures(phase);
    }
    m.scaled("latency_ms", "ms", &rounds.window_p50_ms, false);
    m.scaled("throughput_per_s", "1/s", &rounds.rates, true);
    m.samples("peak_rss_mb", "MB", &peaks);
    m.scaled("setup_s", "s", &setups, false);
    m.samples("host.ref_ms", "ms", &host.refs);
    m.samples("serve.startup_s", "s", &startups);
    let fixed_ms: Vec<f64> = latencies_us(&rounds.fixed)
        .iter()
        .map(|us| us / 1e3)
        .collect();
    tail(&mut m, "raw.latency", "ms", &fixed_ms);
    let late: Vec<f64> = rounds
        .fixed
        .iter()
        .map(|d| d.late_ns() as f64 / 1e3)
        .collect();
    let late_p99 = p99(&late);
    m.one("loadgen.late_p99_us", "us", late_p99);
    let on_time = late_p99 <= LATE_LIMIT_US;
    if !on_time {
        eprintln!(
            "kbench: {}: the load generator's p99 send delay was {late_p99:.0} µs \
             (limit {LATE_LIMIT_US} µs): this run's latency figures are invalid",
            w.name()
        );
    }
    m.one("loadgen.valid", "count", f64::from(u8::from(on_time)));
    m.samples("loadgen.loopback_rtt_us", "us", &rounds.rtt_us);
    m.one(
        "serve.backlog_max",
        "count",
        backlog_max(&rounds.fixed) as f64,
    );
    m.one(
        "serve.saturation_p99_us",
        "us",
        p99(&latencies_us(&rounds.saturated)),
    );
    m.one(
        "serve.cpu_us_per_request",
        "us",
        rounds.fixed_cpu_ns as f64 / 1e3 / rounds.fixed.len().max(1) as f64,
    );

    let (checked, mismatches) = session.check(&samples.into_inner().expect("sample lock"));
    m.one("serve.checked", "count", checked as f64);
    m.one("serve.mismatches", "count", mismatches.len() as f64);
    if let Some(first) = mismatches.first() {
        return Err(format!(
            "{}: {} of {checked} sampled replies differ from the oracle, e.g. {first}",
            w.name(),
            mismatches.len()
        ));
    }
    if checked == 0 {
        return Err(format!("{}: no reply was checked", w.name()));
    }
    check_pinned(w.name(), &session.oracle_digest, opts)?;
    Ok(Outcome {
        attempted,
        failed,
        metrics: m.0,
        digest: session.oracle_digest,
        trace,
    })
}
