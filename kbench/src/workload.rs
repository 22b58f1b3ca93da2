//! The four workloads: set-up, measurement, correctness gates and
//! metrics. The parent process generates inputs, spawns children,
//! drives load and checks answers; the measured system work runs in
//! children (see [`crate::child`]).

use crate::child::{IterArgs, Report};
use crate::digest::{self, Level};
use crate::gen::{self, AsnMap, Expected, Rng, SourceSpec, Style};
use crate::host::Bracket;
use crate::serving::{self, Daemon, QUERY_STREAM};
use crate::stats::{self, Summary};
use crate::system::{self, Graph, Mode, Preset};
use crate::trace::{Span, Trace};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Generator seed of the 35k-AS topology behind `ingest-merge`. The
/// topology is fixed and the run seed varies everything rendered from
/// it (AS numbers, sampling, line order, faults, queries), so every
/// seed measures the same amount of work: across generator seeds 1, 2,
/// 3, 7, 11 and 42, fused almost on this preset takes 1.1–102 s.
pub const FULL_TOPOLOGY_SEED: u64 = 42;

/// Generator seed of the 10k-AS topology behind the other workloads.
pub const MEDIUM_TOPOLOGY_SEED: u64 = 7;

/// Set-ups per `serve-medium` run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 3;

/// Set-ups per batch run. Each starts one of as many equal parts of the
/// measurement, so the samples spread over the run: back to back, the
/// 0.13 s medium set-ups all landed on the same host state and their
/// median moved by 40% between runs.
const BATCH_SETUPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Twelve dirty sources from the 35k-AS preset, ingest only.
    IngestMerge,
    /// Medium preset: ingest → fused exact → snapshot → encode.
    CommunitiesExact,
    /// Medium preset: ingest → fused almost → snapshot → encode.
    CommunitiesAlmost,
    /// The query daemon on the medium clique log, open-loop load.
    ServeMedium,
}

impl Workload {
    /// Every workload, in the order `kbench run` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::IngestMerge,
        Workload::CommunitiesExact,
        Workload::CommunitiesAlmost,
        Workload::ServeMedium,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestMerge => "ingest-merge",
            Workload::CommunitiesExact => "communities-exact",
            Workload::CommunitiesAlmost => "communities-almost",
            Workload::ServeMedium => "serve-medium",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percolation mode of its measured iteration (`None`: ingest
    /// only).
    pub(crate) fn mode(self) -> Option<Mode> {
        match self {
            Workload::IngestMerge => None,
            Workload::CommunitiesAlmost => Some(Mode::Almost),
            Workload::CommunitiesExact | Workload::ServeMedium => Some(Mode::Exact),
        }
    }

    /// Whether its sources carry faults (lenient ingest, largest
    /// component only).
    pub(crate) fn dirty(self) -> bool {
        self == Workload::IngestMerge
    }
}

/// End-to-end metrics, as `(name, unit)`: every workload reports them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, as `(name, unit)`: every traced run reports them.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("ingest.parse_s", "s"),
    ("ingest.cleanup_s", "s"),
    ("ingest.mb_per_s", "MB/s"),
    ("ingest.records", "count"),
    ("ingest.duplicates_removed", "count"),
    ("ingest.nodes", "count"),
    ("ingest.edges", "count"),
    ("cliques.enumerate_s", "s"),
    ("cliques.count", "count"),
    ("cliques.max_size", "count"),
    ("cpm.consume_s", "s"),
    ("cpm.pairs_s", "s"),
    ("cpm.sweep_s", "s"),
    ("cpm.extract_s", "s"),
    ("cpm.levels", "count"),
    ("cpm.communities", "count"),
    ("cpm.k_max", "count"),
    ("snapshot.build_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("serve.parse_ns", "ns"),
    ("serve.lookup_membership_ns", "ns"),
    ("serve.lookup_common_ns", "ns"),
    ("serve.lookup_tree_ns", "ns"),
    ("serve.service_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.reload_s", "s"),
    ("serve.reload_query_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("hw_threads", "count"),
];

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run seed: everything rendered from the fixed topologies.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Record spans and add the per-layer passes.
    pub traced: bool,
    /// Scratch directory for inputs, logs and snapshots.
    pub work: PathBuf,
    /// The `kbench` executable to re-run in child roles.
    pub exe: PathBuf,
    /// The digest pinned for this workload and seed, if any.
    pub pinned: Option<String>,
}

/// One named measurement with its sample summary.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value: the median of the samples unless the metric
    /// says otherwise.
    pub value: f64,
    /// The samples behind the value.
    pub summary: Summary,
}

/// What a finished, verified run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (iterations or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every metric measured.
    pub metrics: Vec<Metric>,
    /// The output digest the gates agreed on.
    pub digest: String,
    /// Spans recorded (traced runs).
    pub trace: Trace,
}

/// Metrics as a run collects them.
#[derive(Default)]
pub(crate) struct Metrics(pub(crate) Vec<Metric>);

impl Metrics {
    pub(crate) fn put(&mut self, name: &str, unit: &str, value: f64, summary: Summary) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            summary,
        });
    }

    pub(crate) fn one(&mut self, name: &str, unit: &str, value: f64) {
        self.put(name, unit, value, Summary::single(value));
    }

    /// The median of `values`.
    pub(crate) fn samples(&mut self, name: &str, unit: &str, values: &[f64]) {
        if let Some(s) = Summary::of(values) {
            self.put(name, unit, s.median, s);
        }
    }

    /// Measurements paired with their host factors (see `host`): the
    /// median of the scaled values as `name`, the median of the raw
    /// ones as `raw.<name>`. Times are multiplied by the factor, rates
    /// divided.
    pub(crate) fn scaled(&mut self, name: &str, unit: &str, paired: &[(f64, f64)], rate: bool) {
        let at_nominal: Vec<f64> = paired
            .iter()
            .map(|&(v, f)| if rate { v / f } else { v * f })
            .collect();
        self.samples(name, unit, &at_nominal);
        let raw: Vec<f64> = paired.iter().map(|p| p.0).collect();
        self.samples(&format!("raw.{name}"), unit, &raw);
    }
}

/// Runs workload `w`: set up, measure for `opts.seconds`, verify.
///
/// # Errors
///
/// A failed correctness gate or a broken run; no numbers are produced.
pub fn run(w: Workload, opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("{}: {e}", opts.work.display()))?;
    match w {
        Workload::ServeMedium => serving::serve_medium(opts),
        _ => batch(w, opts),
    }
}

/// A workload's rendered sources and what ingest must make of them.
pub(crate) struct Inputs {
    pub(crate) paths: Vec<PathBuf>,
    pub(crate) generator: Graph,
    pub(crate) map: AsnMap,
    pub(crate) expect: Expected,
}

/// Generates the topology and renders the workload's sources into
/// `dir`: for `ingest-merge` six AS-links files (with multi-origin
/// sets), three DIMES CSVs and three edge lists, each an 85% edge
/// sample with 3% duplicate and 0.2% malformed lines; otherwise one
/// AS-links file of the whole medium preset with 5% duplicate lines.
pub(crate) fn prepare(w: Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let (preset, topology_seed, specs) = if w.dirty() {
        let dirty = |style, moas| SourceSpec {
            style,
            sample: 0.85,
            duplicate: 0.03,
            malformed: 0.002,
            moas,
        };
        let mut specs = vec![dirty(Style::AsLinks, 0.05); 6];
        specs.extend([dirty(Style::Dimes, 0.0); 3]);
        specs.extend([dirty(Style::Edges, 0.0); 3]);
        (Preset::Full, FULL_TOPOLOGY_SEED, specs)
    } else {
        let clean = SourceSpec {
            style: Style::AsLinks,
            sample: 1.0,
            duplicate: 0.05,
            malformed: 0.0,
            moas: 0.0,
        };
        (Preset::Medium, MEDIUM_TOPOLOGY_SEED, vec![clean])
    };
    let generator = system::generate(preset, topology_seed);
    let edges = system::edges(&generator);
    let map = AsnMap::new(seed);
    let mut expect = Expected::default();
    let mut paths = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let mut text = String::new();
        let mut rng = Rng::new(seed, 100 + i as u64);
        gen::render_source(&edges, &map, spec, &mut rng, &mut expect, &mut text);
        let path = dir.join(format!("source{i:02}.{}", spec.style.extension()));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(Inputs {
        paths,
        generator,
        map,
        expect,
    })
}

/// The child iteration of workload `w` over `inputs`.
pub(crate) fn iter_args(w: Workload, inputs: &[PathBuf]) -> IterArgs {
    IterArgs {
        inputs: inputs.to_vec(),
        lenient: w.dirty(),
        largest_cc: w.dirty(),
        mode: w.mode(),
        ..IterArgs::default()
    }
}

/// Runs one child iteration; returns its report and spawn-to-exit wall
/// time.
fn spawn_iter(exe: &Path, args: &IterArgs) -> Result<(Report, f64), String> {
    let t = Instant::now();
    let out = Command::new(exe)
        .args(args.to_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let wall = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("iteration child failed: {}", out.status));
    }
    Ok((Report::parse(&String::from_utf8_lossy(&out.stdout))?, wall))
}

/// Runs a child and files its spans under `id` in the parent's trace.
pub(crate) fn traced_iter(
    exe: &Path,
    args: &IterArgs,
    trace: &mut Trace,
    id: &str,
) -> Result<Report, String> {
    let at = trace.now();
    let (report, _) = spawn_iter(exe, args)?;
    trace.absorb(relabel(&report.spans, id), at);
    if let Some(f) = report.fails.first() {
        return Err(format!("{id}: {f}"));
    }
    Ok(report)
}

fn relabel(spans: &[Span], id: &str) -> Vec<Span> {
    spans
        .iter()
        .map(|s| Span {
            id: id.to_owned(),
            ..s.clone()
        })
        .collect()
}

/// Ingests in the parent exactly as a child does.
pub(crate) fn ingest_in_parent(w: Workload, paths: &[PathBuf]) -> Result<system::Ingested, String> {
    let mut ing = system::Ingest::new(w.dirty(), w.dirty());
    for p in paths {
        ing.source(p)?;
    }
    ing.finish()
}

fn batch(w: Workload, opts: &Options) -> Result<Outcome, String> {
    let mut trace = Trace::new();
    let mut setups = Vec::new();
    let mut prepared = None;
    // Closed loop: one caller, one cold process per iteration. A traced
    // run alternates plain and traced iterations so the tracing
    // overhead is measured under the same conditions. Every set-up and
    // iteration sits between two runs of the host reference and is
    // scaled by them (see `host`).
    let mut host = Bracket::open();
    let mut plain: Vec<(Report, f64)> = Vec::new();
    let mut traced: Vec<(Report, f64)> = Vec::new();
    let mut rates = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let part = Duration::from_secs_f64(opts.seconds / BATCH_SETUPS as f64);
    let mut measured = Duration::ZERO;
    for k in 1..=BATCH_SETUPS as u32 {
        let t = Instant::now();
        let inputs = prepare(w, opts.seed, &opts.work)?;
        let secs = t.elapsed().as_secs_f64();
        setups.push((secs, host.close()));
        let base = iter_args(w, &inputs.paths);
        prepared = Some(inputs);
        let started = Instant::now();
        while plain.is_empty() || measured + started.elapsed() < part * k {
            let trace_this = opts.traced && attempted % 2 == 1;
            attempted += 1;
            let at = trace.now();
            let spawned = spawn_iter(
                &opts.exe,
                &IterArgs {
                    traced: trace_this,
                    ..base.clone()
                },
            );
            let factor = host.close();
            match spawned {
                Ok((report, wall)) => {
                    rates.push((1.0 / wall, factor));
                    if opts.traced {
                        trace.absorb(relabel(&report.spans, &format!("it{attempted}")), at);
                    }
                    if trace_this {
                        traced.push((report, factor));
                    } else {
                        plain.push((report, factor));
                    }
                }
                Err(e) => {
                    eprintln!("kbench: {}: {e}", w.name());
                    failed += 1;
                    if failed > 3 + attempted / 10 {
                        return Err(format!("{}: too many failed iterations", w.name()));
                    }
                }
            }
        }
        measured += started.elapsed();
    }
    let inputs = prepared.expect("BATCH_SETUPS > 0");

    let mut m = Metrics::default();
    let all: Vec<&Report> = plain.iter().chain(&traced).map(|p| &p.0).collect();
    let digest = verify_batch(w, opts, &inputs, &all, &mut m)?;
    let runs_ms: Vec<(f64, f64)> = plain
        .iter()
        .filter_map(|(r, f)| Some((r.run_secs()? * 1e3, *f)))
        .collect();
    m.scaled("latency_ms", "ms", &runs_ms, false);
    m.scaled("throughput_per_s", "1/s", &rates, true);
    m.samples(
        "peak_rss_mb",
        "MB",
        &counter(plain.iter().map(|p| &p.0), "peak_rss_kb", 1.0 / 1024.0),
    );
    m.scaled("setup_s", "s", &setups, false);
    let raw_ms: Vec<f64> = runs_ms.iter().map(|r| r.0).collect();
    tail(&mut m, "raw.latency", "ms", &raw_ms);
    let fastest = raw_ms.iter().copied().fold(f64::INFINITY, f64::min);
    m.one("raw.latency_min_ms", "ms", fastest);
    m.samples("host.ref_ms", "ms", &host.refs);

    if opts.traced {
        let overhead = overhead_pct(&traced, &plain);
        let chain = chain_pass(w, opts, &inputs.paths, &mut trace)?;
        let snapshot = opts.work.join("chain.snapshot");
        let mut layered: Vec<&Report> = traced.iter().map(|p| &p.0).collect();
        layered.push(&chain);
        layer_metrics(&mut m, &layered, overhead);
        // The chain child served its index from the same ingested graph:
        // rebuild its popularity order and level counts for the queries.
        let ingested = ingest_in_parent(w, &inputs.paths)?;
        let index = system::decode(&std::fs::read(&snapshot).map_err(|e| e.to_string())?)?;
        let queries = gen::query_mix(
            opts.seed,
            &gen::by_degree(&system::degrees(&ingested.graph)),
            &system::level_counts(&index),
            QUERY_STREAM,
        );
        let daemon = Daemon::start(&opts.exe, &snapshot)?;
        let (a, f) = serving::serve_stage(&daemon, &queries, &chain, &mut trace, &mut m)?;
        daemon.stop()?;
        attempted += a;
        failed += f;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m.0,
        digest,
        trace,
    })
}

/// Values of counter `name` across reports, scaled.
fn counter<'a>(reports: impl IntoIterator<Item = &'a Report>, name: &str, scale: f64) -> Vec<f64> {
    reports
        .into_iter()
        .filter_map(|r| r.counts.get(name).map(|v| v * scale))
        .collect()
}

/// Adds the highest percentile that leaves ten samples beyond it.
pub(crate) fn tail(m: &mut Metrics, stem: &str, unit: &str, samples: &[f64]) {
    if let Some(q) = stats::tail_quantile(samples.len()) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        m.one(
            &format!("{stem}_p{}_{unit}", q * 100.0),
            unit,
            stats::percentile(&sorted, q),
        );
    }
}

/// Traced minus untraced median run time, each scaled by its host
/// factor, as a share of untraced.
pub(crate) fn overhead_pct(traced: &[(Report, f64)], plain: &[(Report, f64)]) -> f64 {
    let median = |rs: &[(Report, f64)]| {
        let secs: Vec<f64> = rs
            .iter()
            .filter_map(|(r, f)| Some(r.run_secs()? * f))
            .collect();
        Summary::of(&secs)
    };
    match (median(traced), median(plain)) {
        (Some(t), Some(u)) => 100.0 * (t.median - u.median) / u.median,
        _ => 0.0,
    }
}

/// The traced chain pass: one child pushes the workload's input through
/// every batch layer (fused exact for `ingest-merge`, whose measured
/// iteration stops at ingest) and times the serve read path directly,
/// leaving the encoded index in the work directory.
pub(crate) fn chain_pass(
    w: Workload,
    opts: &Options,
    paths: &[PathBuf],
    trace: &mut Trace,
) -> Result<Report, String> {
    let args = IterArgs {
        mode: Some(w.mode().unwrap_or(Mode::Exact)),
        traced: true,
        chain: Some((opts.work.join("chain.snapshot"), opts.seed)),
        ..iter_args(w, paths)
    };
    traced_iter(&opts.exe, &args, trace, "chain")
}

/// Fills the per-layer metrics from the traced reports and the
/// measured tracing overhead. Each layer's value is the median over
/// the reports that ran it.
pub(crate) fn layer_metrics(m: &mut Metrics, reports: &[&Report], overhead_pct: f64) {
    let secs =
        |span: &str| -> Vec<f64> { reports.iter().filter_map(|r| r.total_secs(span)).collect() };
    let leaves = [
        "ingest.parse",
        "ingest.cleanup",
        "cpm.consume",
        "cpm.pairs",
        "cpm.sweep",
        "cpm.extract",
        "snapshot.build",
        "snapshot.encode",
    ];
    for span in leaves.iter().chain(&["cliques.enumerate"]) {
        m.samples(&format!("{span}_s"), "s", &secs(span));
    }
    let mbps: Vec<f64> = reports
        .iter()
        .filter_map(|r| Some(r.counts.get("ingest.bytes")? / 1e6 / r.total_secs("ingest.parse")?))
        .collect();
    m.samples("ingest.mb_per_s", "MB/s", &mbps);
    for (name, unit) in PER_LAYER {
        if matches!(unit, "count" | "bytes" | "ns") {
            m.samples(name, unit, &counter(reports.iter().copied(), name, 1.0));
        }
    }
    let coverage: Vec<f64> = reports
        .iter()
        .filter_map(|r| {
            let covered: f64 = leaves.iter().filter_map(|l| r.total_secs(l)).sum();
            Some(100.0 * covered / r.run_secs()?)
        })
        .collect();
    m.samples("trace.coverage_pct", "%", &coverage);
    m.one("trace.overhead_pct", "%", overhead_pct);
    m.one("hw_threads", "count", system::hw_threads() as f64);
}

/// The batch correctness gates. Returns the agreed digest.
fn verify_batch(
    w: Workload,
    opts: &Options,
    inputs: &Inputs,
    reports: &[&Report],
    m: &mut Metrics,
) -> Result<String, String> {
    let name = w.name();
    for r in reports {
        if let Some(f) = r.fails.first() {
            return Err(format!("{name}: {f}"));
        }
    }
    let digest = reports
        .first()
        .and_then(|r| r.digest.clone())
        .ok_or_else(|| format!("{name}: no iteration reported a digest"))?;
    if let Some(other) = reports.iter().find(|r| r.digest.as_ref() != Some(&digest)) {
        return Err(format!(
            "{name}: iterations disagree: digest {digest} vs {:?}",
            other.digest
        ));
    }
    let asn = |v: u32| inputs.map.asn(v);
    let hex = |d: u64| format!("{d:016x}");
    match w {
        Workload::IngestMerge => {
            let links = inputs.expect.distinct_links();
            let union = system::graph_from_edges(system::node_count(&inputs.generator), &links);
            let keep = system::largest_component(&union);
            let kept: Vec<(u32, u32)> = links
                .iter()
                .copied()
                .filter(|&(u, _)| keep[u as usize])
                .collect();
            let e = &inputs.expect;
            let want = [
                ("ingest.records", e.records),
                ("ingest.skipped", e.malformed),
                ("ingest.raw_records", e.raw_pairs),
                ("ingest.self_loops_removed", 0),
                (
                    "ingest.duplicates_removed",
                    e.raw_pairs - links.len() as u64,
                ),
                ("ingest.nodes", keep.iter().filter(|&&k| k).count() as u64),
                ("ingest.edges", kept.len() as u64),
            ];
            for r in reports {
                for (counter, value) in want {
                    let got = r.counts.get(counter).copied().unwrap_or(f64::NAN);
                    if got != value as f64 {
                        return Err(format!(
                            "{name}: {counter} is {got}, generator injected {value}"
                        ));
                    }
                }
            }
            let expected = hex(digest::edge_digest(
                kept.iter().map(|&(u, v)| (asn(u), asn(v))).collect(),
            ));
            if expected != digest {
                return Err(format!(
                    "{name}: edge set {digest} differs from the generator's {expected}"
                ));
            }
        }
        Workload::CommunitiesExact => {
            let oracle = system::cover(&system::percolate(&inputs.generator, Mode::Exact));
            let expected = hex(digest::cover_digest(&oracle, asn));
            if expected != digest {
                return Err(format!(
                    "{name}: digest {digest} differs from fused exact on the generator graph ({expected})"
                ));
            }
        }
        Workload::CommunitiesAlmost => {
            let ingested = ingest_in_parent(w, &inputs.paths)?;
            let ext = |v: u32| ingested.asn[v as usize];
            let almost = system::cover(&system::percolate(&ingested.graph, Mode::Almost));
            let exact = system::cover(&system::percolate(&ingested.graph, Mode::Exact));
            if hex(digest::cover_digest(&almost, ext)) != digest {
                return Err(format!(
                    "{name}: digest {digest} does not reproduce in the parent"
                ));
            }
            digest::check_refines(&almost, &exact)
                .map_err(|e| format!("{name}: almost does not refine exact: {e}"))?;
            let oracle = system::cover(&system::percolate(&inputs.generator, Mode::Exact));
            if digest::cover_digest(&exact, ext) != digest::cover_digest(&oracle, asn) {
                return Err(format!(
                    "{name}: exact on the ingested graph differs from the generator graph"
                ));
            }
            let total = |c: &[Level]| c.iter().map(|l| l.communities.len()).sum::<usize>() as f64;
            m.one(
                "cpm.almost_extra_communities",
                "count",
                total(&almost) - total(&exact),
            );
        }
        Workload::ServeMedium => unreachable!("serve-medium has its own gates"),
    }
    check_pinned(name, &digest, opts)?;
    Ok(digest)
}

pub(crate) fn check_pinned(name: &str, digest: &str, opts: &Options) -> Result<(), String> {
    match &opts.pinned {
        Some(pinned) if pinned != digest => Err(format!(
            "{name}: digest {digest} differs from the one pinned for seed {} ({pinned})",
            opts.seed
        )),
        _ => Ok(()),
    }
}
