//! The roles `kbench` re-executes itself in, so that every batch
//! iteration pays what a CLI run pays (a cold process, a cold pool and
//! a cold allocator) and the daemon runs in a process of its own. A
//! child reports to its parent in tab-separated lines on stdout; see
//! [`Report`].

use crate::digest;
use crate::gen::{self, Query};
use crate::system::{self, Mode};
use crate::trace::{Span, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Queries timed against the index by a chain iteration.
const CHAIN_QUERIES: usize = 20_000;

/// What one batch iteration runs.
#[derive(Debug, Clone, Default)]
pub struct IterArgs {
    /// Sources, ingested in order.
    pub inputs: Vec<PathBuf>,
    /// Lenient ingest.
    pub lenient: bool,
    /// Keep only the largest connected component.
    pub largest_cc: bool,
    /// Percolate, freeze and encode after ingest (ingest only when
    /// `None`).
    pub mode: Option<Mode>,
    /// Record a span around every call, percolate through the phase
    /// breakdown, and time clique enumeration after the run.
    pub traced: bool,
    /// Also push the result through the serve read path: write the
    /// encoded index here and time request parsing and index lookups
    /// with the query stream of this seed.
    pub chain: Option<(PathBuf, u64)>,
}

impl IterArgs {
    /// The command-line form the child parses back.
    pub fn to_args(&self) -> Vec<String> {
        let mut a = vec!["child".to_owned(), "iter".to_owned()];
        if self.lenient {
            a.push("--lenient".into());
        }
        if self.largest_cc {
            a.push("--largest-cc".into());
        }
        if let Some(mode) = self.mode {
            a.push("--mode".into());
            a.push(mode_name(mode).into());
        }
        if self.traced {
            a.push("--traced".into());
        }
        if let Some((path, seed)) = &self.chain {
            a.push("--chain".into());
            a.push(path.display().to_string());
            a.push(seed.to_string());
        }
        for p in &self.inputs {
            a.push(p.display().to_string());
        }
        a
    }

    /// Parses [`IterArgs::to_args`] output (after `child iter`).
    ///
    /// # Errors
    ///
    /// An unknown flag or a missing value.
    pub fn parse(args: &[String]) -> Result<IterArgs, String> {
        let mut out = IterArgs::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--lenient" => out.lenient = true,
                "--largest-cc" => out.largest_cc = true,
                "--traced" => out.traced = true,
                "--mode" => {
                    out.mode = Some(match it.next().map(String::as_str) {
                        Some("exact") => Mode::Exact,
                        Some("almost") => Mode::Almost,
                        other => return Err(format!("bad --mode {other:?}")),
                    })
                }
                "--chain" => {
                    let path = it.next().ok_or("--chain needs a path")?;
                    let seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--chain needs a seed")?;
                    out.chain = Some((PathBuf::from(path), seed));
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                path => out.inputs.push(PathBuf::from(path)),
            }
        }
        Ok(out)
    }
}

/// `exact` / `almost`.
pub fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Exact => "exact",
        Mode::Almost => "almost",
    }
}

/// Peak resident set of this process so far, in KiB (`VmHWM`).
pub fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Times `f` as a span when `traced`, else just runs it.
fn step<R>(tr: &mut Trace, traced: bool, name: &str, parent: usize, f: impl FnOnce() -> R) -> R {
    if traced {
        tr.time(name, Some(parent), "it", f)
    } else {
        f()
    }
}

/// One cold iteration: ingest, then (with a mode) percolate, freeze and
/// encode, all inside the `run` span. Verification happens after the
/// run span closes and after the peak RSS is read. Returns the report
/// text for the parent.
///
/// # Errors
///
/// An ingest failure.
pub fn iter(args: &IterArgs) -> Result<String, String> {
    let mut tr = Trace::new();
    let traced = args.traced;
    let run = tr.push("run", 0, 0, None, "it");
    tr.spans[run].start_ns = tr.now();
    let mut ing = system::Ingest::new(args.lenient, args.largest_cc);
    for path in &args.inputs {
        step(&mut tr, traced, "ingest.parse", run, || ing.source(path))?;
    }
    let ingested = step(&mut tr, traced, "ingest.cleanup", run, || ing.finish())?;
    let g = &ingested.graph;
    let n = system::node_count(g);
    let built = args.mode.map(|mode| {
        let levels = if traced {
            let start = tr.now();
            let (levels, ph) = system::percolate_phases(g, mode);
            let call = tr.push("cpm.percolate", start, tr.now(), Some(run), "it");
            let mut at = start;
            for (name, d) in [
                ("cpm.consume", ph.consume),
                ("cpm.pairs", ph.pairs),
                ("cpm.sweep", ph.sweep),
                ("cpm.extract", ph.extract),
            ] {
                let end = at + d.as_nanos() as u64;
                tr.push(name, at, end, Some(call), "it");
                at = end;
            }
            levels
        } else {
            system::percolate(g, mode)
        };
        let index = step(&mut tr, traced, "snapshot.build", run, || {
            system::snapshot(n, &levels)
        });
        let bytes = step(&mut tr, traced, "snapshot.encode", run, || {
            system::encode(&index)
        });
        (levels, index, bytes)
    });
    tr.spans[run].end_ns = tr.now();
    let peak_kb = vmhwm_kb();

    let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
    let c = &ingested.counts;
    for (name, v) in [
        ("ingest.bytes", c.bytes),
        ("ingest.records", c.records),
        ("ingest.skipped", c.skipped),
        ("ingest.raw_records", c.raw_records),
        ("ingest.self_loops_removed", c.self_loops_removed),
        ("ingest.duplicates_removed", c.duplicates_removed),
        ("ingest.nodes", c.nodes),
        ("ingest.edges", c.edges),
    ] {
        counts.insert(name, v as f64);
    }
    counts.insert("peak_rss_kb", peak_kb as f64);
    let asn = &ingested.asn;
    let mut fails = Vec::new();
    let digest = match &built {
        Some((levels, index, bytes)) => {
            let cover = system::cover(levels);
            if let Err(e) = digest::check_nesting(&cover) {
                fails.push(format!("nesting: {e}"));
            }
            counts.insert("cpm.levels", cover.len() as f64);
            counts.insert(
                "cpm.communities",
                cover.iter().map(|l| l.communities.len()).sum::<usize>() as f64,
            );
            counts.insert("cpm.k_max", cover.last().map_or(0, |l| l.k) as f64);
            counts.insert("snapshot.bytes", bytes.len() as f64);
            if traced {
                let (cliques, largest) =
                    tr.time("cliques.enumerate", None, "it", || system::enumerate(g));
                counts.insert("cliques.count", cliques as f64);
                counts.insert("cliques.max_size", largest as f64);
            }
            if let Some((path, seed)) = &args.chain {
                std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
                serve_read_path(g, index, *seed, &mut counts);
            }
            digest::cover_digest(&cover, |v| asn[v as usize])
        }
        None => digest::edge_digest(
            system::edges(g)
                .into_iter()
                .map(|(u, v)| (asn[u as usize], asn[v as usize]))
                .collect(),
        ),
    };

    let mut out = String::new();
    for s in &tr.spans {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "span\t{}\t{parent}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.id
        );
    }
    for (name, v) in &counts {
        let _ = writeln!(out, "count\t{name}\t{v}");
    }
    let _ = writeln!(out, "digest\t{digest:016x}");
    for f in fails {
        let _ = writeln!(out, "fail\t{f}");
    }
    Ok(out)
}

/// Times the daemon's request parser and each lookup family directly
/// against `index`, per call, over this seed's query stream.
fn serve_read_path(
    g: &system::Graph,
    index: &system::SnapshotIndex,
    seed: u64,
    counts: &mut BTreeMap<&str, f64>,
) {
    let hot = gen::by_degree(&system::degrees(g));
    let queries = gen::query_mix(seed, &hot, &system::level_counts(index), CHAIN_QUERIES);
    let wire: Vec<u8> = queries.iter().flat_map(Query::request).collect();
    let t = Instant::now();
    let parsed = black_box(system::parse_requests(black_box(&wire)));
    counts.insert(
        "serve.parse_ns",
        t.elapsed().as_nanos() as f64 / parsed.max(1) as f64,
    );
    let mut total_ns = 0.0;
    for (kind, name) in [
        ("membership", "serve.lookup_membership_ns"),
        ("common", "serve.lookup_common_ns"),
        ("tree", "serve.lookup_tree_ns"),
    ] {
        let of_kind: Vec<&Query> = queries.iter().filter(|q| q.kind() == kind).collect();
        let t = Instant::now();
        for q in &of_kind {
            black_box(system::lookup(index, black_box(q)));
        }
        let ns = t.elapsed().as_nanos() as f64;
        total_ns += ns;
        counts.insert(name, ns / of_kind.len().max(1) as f64);
    }
    counts.insert("serve.lookup_mix_ns", total_ns / queries.len() as f64);
}

/// The daemon role: serve `snapshot` until stdin closes, announcing
/// `listening <addr>` once loaded and the peak RSS on the way out.
///
/// # Errors
///
/// Load, bind or serve failures.
pub fn daemon(snapshot: &Path) -> Result<(), String> {
    system::daemon(
        snapshot,
        |addr| println!("listening\t{addr}"),
        || {
            let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        },
    )?;
    println!("count\tpeak_rss_kb\t{}", vmhwm_kb());
    Ok(())
}

/// A child's report, parsed.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Spans, times relative to the child's own start.
    pub spans: Vec<Span>,
    /// Named counters.
    pub counts: BTreeMap<String, f64>,
    /// Output digest, hex.
    pub digest: Option<String>,
    /// Gate failures the child found.
    pub fails: Vec<String>,
}

impl Report {
    /// Parses a child's stdout.
    ///
    /// # Errors
    ///
    /// A malformed line.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("bad child line {line:?}");
            match f.as_slice() {
                ["span", name, parent, start, end, id] => r.spans.push(Span {
                    name: (*name).to_owned(),
                    start_ns: start.parse().map_err(|_| bad())?,
                    end_ns: end.parse().map_err(|_| bad())?,
                    parent: parent.parse().ok(),
                    id: (*id).to_owned(),
                }),
                ["count", name, v] => {
                    r.counts
                        .insert((*name).to_owned(), v.parse().map_err(|_| bad())?);
                }
                ["digest", d] => r.digest = Some((*d).to_owned()),
                ["fail", msg] => r.fails.push((*msg).to_owned()),
                ["listening", _] => {}
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }

    /// Seconds of the `run` span.
    pub fn run_secs(&self) -> Option<f64> {
        self.spans.iter().find(|s| s.name == "run").map(Span::secs)
    }

    /// Total seconds of the spans named `name`.
    pub fn total_secs(&self, name: &str) -> Option<f64> {
        let mut it = self.spans.iter().filter(|s| s.name == name).peekable();
        it.peek()?;
        Some(it.map(Span::secs).sum())
    }
}
