//! Implementation of the `kclique-cli` command-line tool.
//!
//! The binary makes the library usable without writing Rust: feed it any
//! edge list (the format of the public AS-link datasets) and it runs
//! clique percolation, prints community covers, emits the community tree
//! as Graphviz, reports graph statistics, or generates/analyses whole
//! synthetic datasets.
//!
//! ```text
//! kclique-cli communities --input topology.edges --k 4
//! kclique-cli communities --input topology.edges --all-k
//! kclique-cli tree        --input topology.edges --min-k 6
//! kclique-cli stats       --input topology.edges
//! kclique-cli generate    --scale small --seed 7 --out dataset/
//! kclique-cli analyze     --dataset dataset/
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cpm_stream::StreamError;
use kclique_core::report::{f3, pct, Table};
use std::fmt;
use std::path::PathBuf;

/// Exit code for malformed command lines (BSD `EX_USAGE`).
pub const EXIT_USAGE: i32 = 2;

/// Exit code for corrupt or invalid input data — torn clique logs,
/// checksum mismatches, malformed log records (BSD `EX_DATAERR`).
pub const EXIT_CORRUPT_INPUT: i32 = 65;

/// Exit code for a run interrupted by Ctrl-C or `--deadline` (BSD
/// `EX_TEMPFAIL`): the command stopped cleanly, durable work (sealed
/// clique-log segments in particular) is preserved, and rerunning —
/// with `--resume` where applicable — continues from where it stopped.
pub const EXIT_INTERRUPTED: i32 = 75;

/// A failed command: the stderr message plus the process exit code.
///
/// Scripts can branch on the code without parsing stderr: `1` is a
/// generic failure, [`EXIT_CORRUPT_INPUT`] means the *input* is bad
/// (retrying cannot help; `clique-log recover` might), and
/// [`EXIT_INTERRUPTED`] means the run was cut short but is resumable.
#[derive(Debug)]
pub struct CliFailure {
    /// Human-readable message for stderr.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliFailure {
    fn general(message: impl Into<String>) -> Self {
        CliFailure {
            message: message.into(),
            code: 1,
        }
    }

    fn corrupt(message: impl Into<String>) -> Self {
        CliFailure {
            message: message.into(),
            code: EXIT_CORRUPT_INPUT,
        }
    }

    fn interrupted(message: impl Into<String>) -> Self {
        CliFailure {
            message: message.into(),
            code: EXIT_INTERRUPTED,
        }
    }

    /// Classifies an I/O error: `InvalidData` (the kind every torn-log
    /// and corrupt-record path produces) is corrupt input, the rest is
    /// generic failure.
    fn io(context: impl fmt::Display, e: &std::io::Error) -> Self {
        let message = format!("{context}: {e}");
        if e.kind() == std::io::ErrorKind::InvalidData {
            Self::corrupt(message)
        } else {
            Self::general(message)
        }
    }

    /// Classifies a streaming error: cancellation maps to the
    /// resumable-interruption code, I/O errors go through [`Self::io`].
    fn stream(context: impl fmt::Display, e: &StreamError) -> Self {
        match e {
            StreamError::Interrupted => Self::interrupted(format!("{context}: {e}")),
            StreamError::Io(io_err) => Self::io(context, io_err),
        }
    }
}

impl fmt::Display for CliFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for CliFailure {
    fn from(message: String) -> Self {
        CliFailure::general(message)
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run CPM and print communities at one `k` or all of them.
    Communities {
        /// Edge-list file.
        input: PathBuf,
        /// Specific k (mutually exclusive with `all_k`).
        k: Option<u32>,
        /// Print every level.
        all_k: bool,
        /// Percolation engine: definitional overlap counting
        /// (`exact`) or the (k−1)-clique-key union engine (`almost`).
        mode: cpm::Mode,
        /// Worker-count policy for the parallel pipeline.
        threads: exec::Threads,
        /// Cancel the run after this many seconds (exit
        /// [`EXIT_INTERRUPTED`]).
        deadline: Option<u64>,
    },
    /// Print the community tree (Graphviz DOT) to stdout.
    Tree {
        /// Edge-list file.
        input: PathBuf,
        /// Hide levels below this k.
        min_k: u32,
    },
    /// Print graph statistics.
    Stats {
        /// Edge-list file.
        input: PathBuf,
    },
    /// Generate a synthetic dataset into a directory.
    Generate {
        /// Preset: tiny | small | default | full.
        scale: String,
        /// Generator seed.
        seed: u64,
        /// Output directory.
        out: PathBuf,
    },
    /// Load a dataset directory and run the full tag analysis.
    Analyze {
        /// Directory written by `generate` (or hand-authored).
        dataset: PathBuf,
    },
    /// Compare baseline methods (k-core, k-dense, Louvain) on an edge
    /// list.
    Baselines {
        /// Edge-list file.
        input: PathBuf,
    },
    /// Percolate a clique stream — live enumeration of an edge list or
    /// a replayed clique log — through the one engine.
    StreamPercolate {
        /// Edge-list file (mutually exclusive with `log`).
        input: Option<PathBuf>,
        /// Clique-log file written by `clique-log build`.
        log: Option<PathBuf>,
        /// Specific k (mutually exclusive with `all_k`).
        k: Option<u32>,
        /// Sweep every level and print the summary table.
        all_k: bool,
        /// Percolation mode (`exact` | `almost`), as in `communities`.
        mode: cpm::Mode,
        /// Worker-count policy for the engine's finish.
        threads: exec::Threads,
        /// Cancel the run after this many seconds (exit
        /// [`EXIT_INTERRUPTED`]).
        deadline: Option<u64>,
    },
    /// Enumerate maximal cliques once and write a replayable clique log.
    CliqueLogBuild {
        /// Edge-list file.
        input: PathBuf,
        /// Output clique-log file.
        out: PathBuf,
        /// Cliques per sealed (checksummed, durable) segment; 0 means
        /// the library default.
        checkpoint_cliques: usize,
        /// Recover the existing log at `out` and continue after its
        /// last durable clique instead of starting over.
        resume: bool,
        /// Stop building after this many seconds, sealing a finished,
        /// resumable log (exit [`EXIT_INTERRUPTED`]).
        deadline: Option<u64>,
    },
    /// Print a clique log's header summary.
    CliqueLogInfo {
        /// Clique-log file.
        log: PathBuf,
    },
    /// Salvage the intact prefix of a torn clique log in place.
    CliqueLogRecover {
        /// Clique-log file (possibly torn).
        log: PathBuf,
    },
    /// Run the community query daemon over a percolation snapshot.
    Serve {
        /// Snapshot file: a clique log v2 or a serialised snapshot
        /// index, sniffed by magic.
        snapshot: PathBuf,
        /// Listen address.
        addr: String,
        /// Connection-handler worker policy (also the keep-alive
        /// connection cap).
        threads: exec::Threads,
        /// Percolation mode used for the initial build and every
        /// `/reload` rebuild (clique-log snapshots only; a serialised
        /// index is loaded as-is).
        mode: cpm::Mode,
    },
    /// Merge and clean real-format topology sources into a dense edge
    /// list (the paper's §2.1 pipeline).
    Ingest {
        /// Source files, merged in order.
        inputs: Vec<PathBuf>,
        /// Forced format for every source; `None` auto-detects each
        /// source from its extension and leading content.
        format: Option<ingest::Format>,
        /// Output edge-list file (dense internal ids, consumable by
        /// every other verb). `None` in `--check` mode.
        out: Option<PathBuf>,
        /// Dry run: parse, clean, and print the per-stage counters
        /// without writing anything.
        check: bool,
        /// Also write the internal-id → AS-number table here.
        map: Option<PathBuf>,
        /// Skip and count bad records instead of aborting on the first.
        lenient: bool,
        /// Keep only the largest connected component.
        largest_cc: bool,
        /// Emit the report as one JSON object instead of a table.
        json: bool,
        /// Cancel the run after this many seconds (exit
        /// [`EXIT_INTERRUPTED`]).
        deadline: Option<u64>,
    },
    /// Degree-preserving rewiring: write a null-model edge list.
    Rewire {
        /// Edge-list file.
        input: PathBuf,
        /// Output edge-list file.
        output: PathBuf,
        /// Swap attempts (default 10 × edges).
        swaps: Option<usize>,
        /// RNG seed.
        seed: u64,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
kclique-cli — k-clique communities for AS-level topologies

USAGE:
  kclique-cli communities --input <edges> (--k <n> | --all-k) [--mode exact|almost]
                          [--threads <n>|auto] [--deadline <secs>]
  kclique-cli tree        --input <edges> [--min-k <n>]
  kclique-cli stats       --input <edges>
  kclique-cli generate    [--scale tiny|small|medium|default|full] [--seed <u64>] --out <dir>
  kclique-cli analyze     --dataset <dir>
  kclique-cli baselines   --input <edges>
  kclique-cli rewire      --input <edges> --output <edges> [--swaps <n>] [--seed <u64>]
  kclique-cli stream-percolate (--input <edges> | --log <file>) (--k <n> | --all-k)
                          [--mode exact|almost] [--threads <n>|auto] [--deadline <secs>]
  kclique-cli clique-log  build --input <edges> --out <file> [--checkpoint-cliques <n>]
                          [--resume] [--deadline <secs>]
  kclique-cli clique-log  info    --log <file>
  kclique-cli clique-log  recover --log <file>
  kclique-cli serve       --snapshot <file> [--addr <host:port>] [--threads <n>|auto]
                          [--mode exact|almost]
  kclique-cli ingest      --input <file> [--input <file> ...] (--out <edges> | --check)
                          [--format auto|edges|aslinks|dimes] [--map <file>] [--lenient]
                          [--largest-cc] [--json] [--deadline <secs>]
  kclique-cli help

The percolation mode (--mode) means the same in `communities`,
`stream-percolate` and `serve`: `almost` unions cliques through shared
(k−1)-clique keys and a big-clique prepass — identical output on
Internet-like topologies and never over-merged (divergence can only
split communities); `exact` (default) runs the same engine plus a
per-level certification pass that makes every community exact.

The worker count (--threads) sizes the persistent thread pool: a fixed
`<n>` forces that many workers, `auto` (default) scales with the input
and falls back to sequential when the work would not amortise the
fan-out. Output is bit-identical at every thread count.

Long commands stop cooperatively: Ctrl-C (or an expired --deadline)
cancels at the next safe point instead of killing mid-write, and the
process exits 75 to signal \"interrupted, resumable\". A cancelled
`clique-log build` seals a valid log; rerun with --resume to continue
from its last durable clique. Exit codes: 0 success, 1 failure, 2 bad
usage (every verb rejects flags it does not know), 65 corrupt input
(e.g. a torn log — try `clique-log recover`), 75 interrupted/resumable.

`serve` answers community queries over HTTP from a frozen snapshot (a
clique log or a serialised snapshot index; default address
127.0.0.1:7117): GET /membership/{as}, /community/{id}, /common/{a}/{b},
/tree/{id}, /healthz, /stats, and POST /reload to rebuild from disk and
swap atomically. Ctrl-C during the initial load exits 75 (nothing was
served); Ctrl-C while serving drains connections and exits 0.

`ingest` merges real measurement sources — CAIDA-style AS-links files,
DIMES-like CSV exports, plain edge lists — and cleans the union the way
the paper's Section 2.1 does: duplicate links collapse, self-loops go,
and --largest-cc keeps only the giant component. AS numbers are
re-densified (the --map file records internal id -> AS number) so the
output is directly consumable by every other verb. Parsing is strict by
default: the first malformed record aborts with a file:line[:column]
diagnostic and exit 65; --lenient skips and counts bad records instead.
Resource caps (line length, total bytes/lines/records/nodes) abort in
both modes. Per-stage counters go to stderr (or stdout with --check,
which parses and cleans without writing anything); --json renders them
as one JSON object.
";

impl Command {
    /// Parses the argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown commands, missing
    /// values, or malformed numbers.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, String> {
        let mut it = args.into_iter();
        let sub = it.next().unwrap_or_else(|| "help".to_owned());
        let rest: Vec<String> = it.collect();
        check_flags(&sub, &rest)?;
        let get = |flag: &str| -> Option<String> {
            rest.iter()
                .position(|a| a == flag)
                .and_then(|i| rest.get(i + 1).cloned())
        };
        let has = |flag: &str| rest.iter().any(|a| a == flag);
        let required = |flag: &str| -> Result<String, String> {
            get(flag).ok_or_else(|| format!("missing required flag {flag}"))
        };
        let threads = || -> Result<exec::Threads, String> {
            match get("--threads") {
                Some(v) => v.parse().map_err(|e: String| format!("bad --threads: {e}")),
                None => Ok(exec::Threads::Auto),
            }
        };
        let deadline = || -> Result<Option<u64>, String> {
            match get("--deadline") {
                Some(v) => v
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|e| format!("bad --deadline: {e}")),
                None => Ok(None),
            }
        };
        let mode = || -> Result<cpm::Mode, String> {
            match get("--mode") {
                Some(v) => v.parse().map_err(|e: String| format!("bad --mode: {e}")),
                None => Ok(cpm::Mode::Exact),
            }
        };

        match sub.as_str() {
            "communities" => {
                let input = PathBuf::from(required("--input")?);
                let k = match get("--k") {
                    Some(v) => Some(v.parse::<u32>().map_err(|e| format!("bad --k: {e}"))?),
                    None => None,
                };
                let all_k = has("--all-k");
                if k.is_none() && !all_k {
                    return Err("communities needs --k <n> or --all-k".to_owned());
                }
                if k.is_some() && all_k {
                    return Err("--k and --all-k are mutually exclusive".to_owned());
                }
                if let Some(k) = k {
                    if k < 2 {
                        return Err("--k must be at least 2".to_owned());
                    }
                }
                Ok(Command::Communities {
                    input,
                    k,
                    all_k,
                    mode: mode()?,
                    threads: threads()?,
                    deadline: deadline()?,
                })
            }
            "tree" => Ok(Command::Tree {
                input: PathBuf::from(required("--input")?),
                min_k: match get("--min-k") {
                    Some(v) => v.parse().map_err(|e| format!("bad --min-k: {e}"))?,
                    None => 2,
                },
            }),
            "stats" => Ok(Command::Stats {
                input: PathBuf::from(required("--input")?),
            }),
            "generate" => {
                let scale = get("--scale").unwrap_or_else(|| "small".to_owned());
                if !["tiny", "small", "medium", "default", "full"].contains(&scale.as_str()) {
                    return Err(format!("unknown scale {scale:?}"));
                }
                Ok(Command::Generate {
                    scale,
                    seed: match get("--seed") {
                        Some(v) => v.parse().map_err(|e| format!("bad --seed: {e}"))?,
                        None => 42,
                    },
                    out: PathBuf::from(required("--out")?),
                })
            }
            "analyze" => Ok(Command::Analyze {
                dataset: PathBuf::from(required("--dataset")?),
            }),
            "baselines" => Ok(Command::Baselines {
                input: PathBuf::from(required("--input")?),
            }),
            "rewire" => Ok(Command::Rewire {
                input: PathBuf::from(required("--input")?),
                output: PathBuf::from(required("--output")?),
                swaps: match get("--swaps") {
                    Some(v) => Some(v.parse().map_err(|e| format!("bad --swaps: {e}"))?),
                    None => None,
                },
                seed: match get("--seed") {
                    Some(v) => v.parse().map_err(|e| format!("bad --seed: {e}"))?,
                    None => 42,
                },
            }),
            "stream-percolate" => {
                let input = get("--input").map(PathBuf::from);
                let log = get("--log").map(PathBuf::from);
                match (&input, &log) {
                    (None, None) => {
                        return Err(
                            "stream-percolate needs --input <edges> or --log <file>".to_owned()
                        )
                    }
                    (Some(_), Some(_)) => {
                        return Err("--input and --log are mutually exclusive".to_owned())
                    }
                    _ => {}
                }
                let k = match get("--k") {
                    Some(v) => Some(v.parse::<u32>().map_err(|e| format!("bad --k: {e}"))?),
                    None => None,
                };
                let all_k = has("--all-k");
                if k.is_none() && !all_k {
                    return Err("stream-percolate needs --k <n> or --all-k".to_owned());
                }
                if k.is_some() && all_k {
                    return Err("--k and --all-k are mutually exclusive".to_owned());
                }
                if let Some(k) = k {
                    if k < 2 {
                        return Err("--k must be at least 2".to_owned());
                    }
                }
                Ok(Command::StreamPercolate {
                    input,
                    log,
                    k,
                    all_k,
                    mode: mode()?,
                    threads: threads()?,
                    deadline: deadline()?,
                })
            }
            "clique-log" => match rest.first().map(String::as_str) {
                Some("build") => {
                    let checkpoint_cliques = match get("--checkpoint-cliques") {
                        Some(v) => {
                            let n: usize = v
                                .parse()
                                .map_err(|e| format!("bad --checkpoint-cliques: {e}"))?;
                            if n == 0 {
                                return Err("--checkpoint-cliques must be at least 1".to_owned());
                            }
                            n
                        }
                        None => 0,
                    };
                    Ok(Command::CliqueLogBuild {
                        input: PathBuf::from(required("--input")?),
                        out: PathBuf::from(required("--out")?),
                        checkpoint_cliques,
                        resume: has("--resume"),
                        deadline: deadline()?,
                    })
                }
                Some("info") => Ok(Command::CliqueLogInfo {
                    log: PathBuf::from(required("--log")?),
                }),
                Some("recover") => Ok(Command::CliqueLogRecover {
                    log: PathBuf::from(required("--log")?),
                }),
                _ => Err("clique-log needs a subcommand: build | info | recover".to_owned()),
            },
            "serve" => Ok(Command::Serve {
                snapshot: PathBuf::from(required("--snapshot")?),
                addr: get("--addr").unwrap_or_else(|| "127.0.0.1:7117".to_owned()),
                threads: threads()?,
                mode: mode()?,
            }),
            "ingest" => {
                // Unlike every other flag, --input repeats: sources
                // merge in command-line order. A missing value, or one
                // that is itself a flag, is a usage error — otherwise a
                // mistyped command fails later with a misleading
                // file-open error on a path like "--check".
                let mut inputs: Vec<PathBuf> = Vec::new();
                for (i, a) in rest.iter().enumerate() {
                    if a != "--input" {
                        continue;
                    }
                    match rest.get(i + 1) {
                        Some(v) if !v.starts_with("--") => inputs.push(PathBuf::from(v)),
                        _ => return Err("--input needs a file path".to_owned()),
                    }
                }
                if inputs.is_empty() {
                    return Err("ingest needs at least one --input <file>".to_owned());
                }
                let format = match get("--format").as_deref() {
                    None | Some("auto") => None,
                    Some(v) => Some(
                        v.parse::<ingest::Format>()
                            .map_err(|e| format!("bad --format: {e}"))?,
                    ),
                };
                let out = get("--out").map(PathBuf::from);
                let check = has("--check");
                if out.is_none() && !check {
                    return Err("ingest needs --out <edges> or --check".to_owned());
                }
                if out.is_some() && check {
                    return Err("--out and --check are mutually exclusive".to_owned());
                }
                Ok(Command::Ingest {
                    inputs,
                    format,
                    out,
                    check,
                    map: get("--map").map(PathBuf::from),
                    lenient: has("--lenient"),
                    largest_cc: has("--largest-cc"),
                    json: has("--json"),
                    deadline: deadline()?,
                })
            }
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(format!("unknown command {other:?}")),
        }
    }

    /// Executes the command, writing human output to stdout.
    ///
    /// # Errors
    ///
    /// Returns a [`CliFailure`]: a message suitable for stderr plus the
    /// process exit code (`1` generic, [`EXIT_CORRUPT_INPUT`] for torn
    /// or corrupt logs, [`EXIT_INTERRUPTED`] for a cancelled-but-
    /// resumable run).
    pub fn run(&self) -> Result<(), CliFailure> {
        match self {
            Command::Help => {
                print!("{USAGE}");
                Ok(())
            }
            Command::Communities {
                input,
                k,
                all_k,
                mode,
                threads,
                deadline,
            } => {
                let result = percolate_input(input, *threads, *mode, &cancel_token(deadline))?;
                print_communities(&result, *k, *all_k);
                Ok(())
            }
            Command::Tree { input, min_k } => {
                let g = load_graph(input)?;
                let result = cpm::percolate(&g);
                let tree = kclique_core::CommunityTree::build(&result);
                print!("{}", tree.to_dot(*min_k));
                Ok(())
            }
            Command::Stats { input } => {
                let g = load_graph(input)?;
                let deg = g.degrees();
                let cliques = cliques::max_cliques(&g);
                let cores = baselines::kcore::decompose(&g);
                let mut table = Table::new(vec!["statistic", "value"]);
                table.row(vec!["nodes".into(), g.node_count().to_string()]);
                table.row(vec!["edges".into(), g.edge_count().to_string()]);
                table.row(vec!["mean degree".into(), f3(deg.mean)]);
                table.row(vec!["max degree".into(), deg.max.to_string()]);
                table.row(vec![
                    "connected components".into(),
                    asgraph::components::connected_components(&g)
                        .count()
                        .to_string(),
                ]);
                table.row(vec!["degeneracy".into(), cores.degeneracy().to_string()]);
                table.row(vec!["maximal cliques".into(), cliques.len().to_string()]);
                table.row(vec![
                    "largest clique".into(),
                    cliques.max_size().to_string(),
                ]);
                table.row(vec![
                    "triangles".into(),
                    asgraph::metrics::triangle_count(&g).to_string(),
                ]);
                table.row(vec![
                    "avg clustering".into(),
                    f3(asgraph::stats::average_clustering(&g)),
                ]);
                if let Some(alpha) = asgraph::stats::power_law_alpha(&g, 6) {
                    table.row(vec!["power-law alpha (k_min=6)".into(), f3(alpha)]);
                }
                if let Some(r) = asgraph::stats::degree_assortativity(&g) {
                    table.row(vec!["degree assortativity".into(), f3(r)]);
                }
                print!("{}", table.render());
                Ok(())
            }
            Command::Generate { scale, seed, out } => {
                let config = match scale.as_str() {
                    "tiny" => topology::ModelConfig::tiny(*seed),
                    "medium" => topology::ModelConfig::medium(*seed),
                    "default" => topology::ModelConfig::default_scale(*seed),
                    "full" => topology::ModelConfig::full_scale(*seed),
                    _ => topology::ModelConfig::small(*seed),
                };
                let topo = topology::generate(&config).map_err(|e| e.to_string())?;
                topology::io::save_dataset(&topo, out).map_err(|e| e.to_string())?;
                println!(
                    "wrote {} ASes / {} links / {} IXPs to {}",
                    topo.graph.node_count(),
                    topo.graph.edge_count(),
                    topo.ixps.len(),
                    out.display()
                );
                Ok(())
            }
            Command::Analyze { dataset } => {
                let topo = topology::io::load_dataset(dataset).map_err(|e| e.to_string())?;
                let result = cpm::percolate(&topo.graph);
                let analysis = kclique_core::analyze_topology(topo, result);
                let s = analysis.topo.tag_summary();
                println!(
                    "{} ASes, {} links | on-IXP {} | national {} continental {} worldwide {} unknown {}",
                    analysis.topo.graph.node_count(),
                    analysis.topo.graph.edge_count(),
                    s.on_ixp,
                    s.national,
                    s.continental,
                    s.worldwide,
                    s.unknown
                );
                println!(
                    "{} communities, k_max {}, bands: root <= {}, crown >= {}",
                    analysis.result.total_communities(),
                    analysis.result.k_max().unwrap_or(0),
                    analysis.bounds.root_max_k,
                    analysis.bounds.crown_min_k
                );
                let mut table = Table::new(vec!["k", "communities", "mean on-IXP"]);
                for level in &analysis.result.levels {
                    let fracs: Vec<f64> = analysis
                        .infos
                        .iter()
                        .filter(|i| i.id.k == level.k)
                        .map(|i| i.on_ixp_fraction)
                        .collect();
                    let mean = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
                    table.row(vec![
                        level.k.to_string(),
                        level.communities.len().to_string(),
                        pct(mean),
                    ]);
                }
                print!("{}", table.render());
                Ok(())
            }
            Command::Baselines { input } => {
                let g = load_graph(input)?;
                let cores = baselines::kcore::decompose(&g);
                let partition = baselines::louvain::louvain(&g);
                let mut table = Table::new(vec!["method", "result"]);
                table.row(vec![
                    "k-core".into(),
                    format!(
                        "degeneracy {}, top core has {} nodes",
                        cores.degeneracy(),
                        cores.core(cores.degeneracy()).len()
                    ),
                ]);
                let d3 = baselines::kdense::communities(&g, 3);
                table.row(vec![
                    "k-dense (k=3)".into(),
                    format!(
                        "{} communities covering {} nodes",
                        d3.len(),
                        d3.iter().map(Vec::len).sum::<usize>()
                    ),
                ]);
                table.row(vec![
                    "Louvain".into(),
                    format!(
                        "{} communities, modularity {}",
                        partition.community_count,
                        f3(partition.modularity)
                    ),
                ]);
                let cpm3 = cpm::percolate_at(&g, 3);
                table.row(vec![
                    "k-clique (k=3)".into(),
                    format!(
                        "{} communities covering {} memberships",
                        cpm3.len(),
                        cpm3.iter().map(Vec::len).sum::<usize>()
                    ),
                ]);
                print!("{}", table.render());
                Ok(())
            }
            Command::StreamPercolate {
                input,
                log,
                k,
                all_k,
                mode,
                threads,
                deadline,
            } => {
                // `--input` runs exactly what `communities` runs; `--log`
                // replays the log into the same engine, the token riding
                // inside the source so the replay and the finish both
                // poll it. Neither arm keeps durable state.
                let token = cancel_token(deadline);
                let result = if let Some(input) = input {
                    percolate_input(input, *threads, *mode, &token)?
                } else {
                    let log = log.as_ref().expect("parse guarantees input xor log");
                    let mut source = cpm_stream::LogSource::open(log)
                        .map_err(|e| CliFailure::stream(log.display(), &e))?
                        .with_cancel(token);
                    cpm_stream::stream_percolate_parallel_mode(&mut source, *threads, *mode)
                        .map_err(|e| match e {
                            StreamError::Interrupted => interrupted_no_durable_state(),
                            e => CliFailure::stream("stream-percolate", &e),
                        })?
                };
                print_communities(&result, *k, *all_k);
                Ok(())
            }
            Command::CliqueLogBuild {
                input,
                out,
                checkpoint_cliques,
                resume,
                deadline,
            } => {
                let g = load_graph(input)?;
                let token = cancel_token(deadline);
                let options = cpm_stream::LogBuildOptions {
                    checkpoint_cliques: *checkpoint_cliques,
                    resume: *resume,
                    cancel: Some(token),
                };
                let outcome = cpm_stream::build_clique_log(&g, out, &options)
                    .map_err(|e| CliFailure::stream(format_args!("{}", out.display()), &e))?;
                if outcome.resumed_from > 0 {
                    println!(
                        "resumed after {} durable cliques already in {}",
                        outcome.resumed_from,
                        out.display()
                    );
                }
                println!(
                    "wrote {} cliques over {} nodes (largest {}) to {}",
                    outcome.info.clique_count,
                    outcome.info.node_count,
                    outcome.info.max_size,
                    out.display()
                );
                if outcome.interrupted {
                    return Err(CliFailure::interrupted(format!(
                        "interrupted: {} holds {} cliques and is sealed; rerun with --resume to \
                         continue the enumeration",
                        out.display(),
                        outcome.info.clique_count
                    )));
                }
                Ok(())
            }
            Command::CliqueLogInfo { log } => {
                let reader = cpm_stream::CliqueLogReader::open(log)
                    .map_err(|e| CliFailure::io(log.display(), &e))?;
                let info = reader.info();
                let mut table = Table::new(vec!["field", "value"]);
                table.row(vec!["nodes".into(), info.node_count.to_string()]);
                table.row(vec!["cliques".into(), info.clique_count.to_string()]);
                table.row(vec!["largest clique".into(), info.max_size.to_string()]);
                if let Ok(meta) = std::fs::metadata(log) {
                    table.row(vec!["file bytes".into(), meta.len().to_string()]);
                }
                print!("{}", table.render());
                Ok(())
            }
            Command::CliqueLogRecover { log } => {
                let report = cpm_stream::CliqueLogReader::recover(log).map_err(|e| {
                    CliFailure::io(format_args!("cannot recover {}", log.display()), &e)
                })?;
                let mut table = Table::new(vec!["field", "value"]);
                table.row(vec!["nodes".into(), report.node_count.to_string()]);
                table.row(vec![
                    "cliques recovered".into(),
                    report.cliques_recovered.to_string(),
                ]);
                table.row(vec![
                    "segments recovered".into(),
                    report.segments_recovered.to_string(),
                ]);
                table.row(vec!["largest clique".into(), report.max_size.to_string()]);
                table.row(vec![
                    "bytes discarded".into(),
                    report.bytes_discarded.to_string(),
                ]);
                table.row(vec![
                    "was already finished".into(),
                    report.was_finished.to_string(),
                ]);
                print!("{}", table.render());
                if !report.was_finished {
                    println!(
                        "log sealed at the last durable clique; continue with: \
                         clique-log build --resume --input <edges> --out {}",
                        log.display()
                    );
                }
                Ok(())
            }
            Command::Serve {
                snapshot,
                addr,
                threads,
                mode,
            } => {
                // One token covers the whole lifetime: SIGINT during
                // the initial load interrupts it (exit 75, nothing was
                // served yet); SIGINT while serving drains connections
                // and exits 0 — the daemon owes its peers a clean
                // close, not a resumable error.
                let token = cancel_token(&None);
                // Test hook: models a slow snapshot load so the
                // interrupted-startup exit path (SIGINT before serving
                // begins -> 75) can be exercised deterministically. The
                // pause only delays; the exit path below is the real
                // load-interruption mapping.
                if let Ok(ms) = std::env::var("KCLIQUE_SERVE_STARTUP_PAUSE_MS") {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|e| format!("bad KCLIQUE_SERVE_STARTUP_PAUSE_MS: {e}"))?;
                    let until = std::time::Instant::now() + std::time::Duration::from_millis(ms);
                    while std::time::Instant::now() < until && !token.is_cancelled() {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                }
                let mut config = serve::ServeConfig::new(addr.clone(), snapshot.clone());
                config.mode = *mode;
                config.threads = match threads {
                    exec::Threads::Fixed(n) => (*n).max(1),
                    exec::Threads::Auto => exec::available_parallelism().clamp(2, 8),
                };
                let server = serve::Server::bind(&config, &token).map_err(|e| match e {
                    serve::ServeError::Load(serve::LoadError::Corrupt(err)) => {
                        CliFailure::corrupt(format!("{}: {err}", snapshot.display()))
                    }
                    serve::ServeError::Load(serve::LoadError::Interrupted) => {
                        CliFailure::interrupted(
                            "interrupted while loading the snapshot; nothing was served, \
                             rerun to restart",
                        )
                    }
                    serve::ServeError::Load(serve::LoadError::Io(err)) => {
                        CliFailure::general(format!("cannot load {}: {err}", snapshot.display()))
                    }
                    serve::ServeError::Io(err) => {
                        CliFailure::general(format!("cannot bind {addr}: {err}"))
                    }
                })?;
                let local = server
                    .local_addr()
                    .map_err(|e| CliFailure::general(format!("cannot read bound address: {e}")))?;
                println!(
                    "serving {} on http://{local} ({} workers); Ctrl-C to stop",
                    snapshot.display(),
                    config.threads
                );
                server
                    .run(&token)
                    .map_err(|e| CliFailure::general(format!("server failed: {e}")))?;
                println!(
                    "shutdown: connections drained (generation {})",
                    server.generation()
                );
                Ok(())
            }
            Command::Ingest {
                inputs,
                format,
                out,
                check,
                map,
                lenient,
                largest_cc,
                json,
                deadline,
            } => {
                let token = cancel_token(deadline);
                let mut ing = ingest::Ingestor::new(ingest::IngestOptions {
                    lenient: *lenient,
                    limits: ingest::Limits::default(),
                    largest_cc: *largest_cc,
                    cancel: Some(token),
                });
                for path in inputs {
                    ing.ingest_path(path, *format).map_err(ingest_failure)?;
                }
                let outcome = ing.finish().map_err(ingest_failure)?;
                let report = if *json {
                    let mut s = outcome.report.to_json();
                    s.push('\n');
                    s
                } else {
                    outcome.report.render_human()
                };
                if *check {
                    // Dry run: the report IS the product, so it goes to
                    // stdout and nothing touches the filesystem.
                    print!("{report}");
                    return Ok(());
                }
                let out = out.as_ref().expect("parse guarantees out xor check");
                let edges = asgraph::io::to_edge_list_string(&outcome.graph);
                let table = map.as_ref().map(|_| {
                    let mut table = String::from("# internal_id as_number\n");
                    for (internal, external) in outcome.external_ids.iter().enumerate() {
                        use std::fmt::Write as _;
                        let _ = writeln!(table, "{internal} {external}");
                    }
                    table
                });
                // Failed runs write nothing: both outputs are staged as
                // .tmp siblings and renamed into place only after every
                // write succeeds, so a map failure cannot leave a fresh
                // out file behind.
                let out_tmp = tmp_sibling(out);
                let map_tmp = map.as_ref().map(|m| tmp_sibling(m));
                let staged = (|| -> Result<(), String> {
                    std::fs::write(&out_tmp, &edges)
                        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
                    if let (Some(m), Some(m_tmp), Some(table)) = (map, &map_tmp, &table) {
                        std::fs::write(m_tmp, table)
                            .map_err(|e| format!("cannot write {}: {e}", m.display()))?;
                    }
                    std::fs::rename(&out_tmp, out)
                        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
                    if let (Some(m), Some(m_tmp)) = (map, &map_tmp) {
                        std::fs::rename(m_tmp, m).map_err(|e| {
                            // The out file is already in place; take it
                            // back out so the contract holds.
                            let _ = std::fs::remove_file(out);
                            format!("cannot write {}: {e}", m.display())
                        })?;
                    }
                    Ok(())
                })();
                if let Err(e) = staged {
                    let _ = std::fs::remove_file(&out_tmp);
                    if let Some(m_tmp) = &map_tmp {
                        let _ = std::fs::remove_file(m_tmp);
                    }
                    return Err(e.into());
                }
                // Counters go to stderr: stdout stays byte-clean for
                // pipelines, like every other verb's notices.
                eprint!("{report}");
                println!(
                    "wrote {} ASes / {} links to {}{}",
                    outcome.graph.node_count(),
                    outcome.graph.edge_count(),
                    out.display(),
                    match map {
                        Some(m) => format!(" (id map: {})", m.display()),
                        None => String::new(),
                    }
                );
                Ok(())
            }
            Command::Rewire {
                input,
                output,
                swaps,
                seed,
            } => {
                use rand::SeedableRng;
                let g = load_graph(input)?;
                let attempts = swaps.unwrap_or(10 * g.edge_count());
                let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
                let (h, report) = asgraph::rewire::rewire(&g, attempts, &mut rng);
                std::fs::write(output, asgraph::io::to_edge_list_string(&h))
                    .map_err(|e| format!("cannot write {}: {e}", output.display()))?;
                println!(
                    "rewired {}: {}/{} swaps succeeded, wrote {}",
                    input.display(),
                    report.successes,
                    report.attempts,
                    output.display()
                );
                Ok(())
            }
        }
    }
}

/// The `.tmp` staging sibling of an output path (same directory, so
/// the final rename is atomic on every real filesystem).
fn tmp_sibling(path: &std::path::Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("out"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

/// Builds the cooperative-cancellation token for a long command: an
/// optional `--deadline` plus Ctrl-C watching. The first SIGINT trips
/// the token (the command stops at its next poll and exits
/// [`EXIT_INTERRUPTED`]); a second one kills the process the usual way.
fn cancel_token(deadline: &Option<u64>) -> exec::CancelToken {
    let token = match deadline {
        Some(secs) => exec::CancelToken::with_deadline(std::time::Duration::from_secs(*secs)),
        None => exec::CancelToken::new(),
    };
    token.watch_sigint();
    token
}

/// Loads an edge list and percolates it — what `communities` and
/// `stream-percolate --input` both run. Always the cancellable pipeline:
/// a live token is bit-identical to the plain one, and Ctrl-C /
/// `--deadline` then stop the run cooperatively.
fn percolate_input(
    input: &PathBuf,
    threads: exec::Threads,
    mode: cpm::Mode,
    token: &exec::CancelToken,
) -> Result<cpm::CpmResult, CliFailure> {
    let g = load_graph(input)?;
    cpm::percolate_fused_cancellable(&g, threads, cliques::Kernel::Auto, token, mode)
        .map_err(|_| interrupted_no_durable_state())
}

/// Classifies an ingestion failure onto the exit-code contract: parse
/// (and resource-cap) diagnostics are corrupt input (65), transport
/// errors classify by I/O kind, cancellation is resumable (75).
fn ingest_failure(e: ingest::IngestFailure) -> CliFailure {
    match e {
        ingest::IngestFailure::Parse(err) => CliFailure::corrupt(err.to_string()),
        ingest::IngestFailure::Io { source, error } => CliFailure::io(source, &error),
        ingest::IngestFailure::Interrupted => CliFailure::interrupted(
            "interrupted during ingestion; no output was written, rerun to restart",
        ),
    }
}

/// Prints a percolation the way `communities` and `stream-percolate`
/// both do: the per-level table with `--all-k`, else level `k`'s cover.
fn print_communities(result: &cpm::CpmResult, k: Option<u32>, all_k: bool) {
    if all_k {
        let mut table = Table::new(vec!["k", "communities", "largest"]);
        for level in &result.levels {
            let largest = level
                .communities
                .iter()
                .map(cpm::Community::size)
                .max()
                .unwrap_or(0);
            table.row(vec![
                level.k.to_string(),
                level.communities.len().to_string(),
                largest.to_string(),
            ]);
        }
        print!("{}", table.render());
    } else {
        let k = k.expect("parse guarantees k for non-all-k");
        let comms = result.cover(k);
        println!("# {} {k}-clique communities", comms.len());
        for (i, c) in comms.iter().enumerate() {
            let ids: Vec<String> = c.iter().map(ToString::to_string).collect();
            println!("{i}\t{}", ids.join(" "));
        }
    }
}

fn interrupted_no_durable_state() -> CliFailure {
    CliFailure::interrupted(
        "interrupted before completion; this command keeps no durable state, rerun to restart",
    )
}

/// The flags a verb accepts, each with whether it takes a value;
/// `None` for an unknown verb or `clique-log` action (the parser
/// reports those itself).
fn flag_table(sub: &str, action: Option<&str>) -> Option<&'static [(&'static str, bool)]> {
    let table: &'static [(&'static str, bool)] = match (sub, action) {
        ("communities", _) => &[
            ("--input", true),
            ("--k", true),
            ("--all-k", false),
            ("--mode", true),
            ("--threads", true),
            ("--deadline", true),
        ],
        ("tree", _) => &[("--input", true), ("--min-k", true)],
        ("stats" | "baselines", _) => &[("--input", true)],
        ("generate", _) => &[("--scale", true), ("--seed", true), ("--out", true)],
        ("analyze", _) => &[("--dataset", true)],
        ("rewire", _) => &[
            ("--input", true),
            ("--output", true),
            ("--swaps", true),
            ("--seed", true),
        ],
        ("stream-percolate", _) => &[
            ("--input", true),
            ("--log", true),
            ("--k", true),
            ("--all-k", false),
            ("--mode", true),
            ("--threads", true),
            ("--deadline", true),
        ],
        ("clique-log", Some("build")) => &[
            ("--input", true),
            ("--out", true),
            ("--checkpoint-cliques", true),
            ("--resume", false),
            ("--deadline", true),
        ],
        ("clique-log", Some("info" | "recover")) => &[("--log", true)],
        ("serve", _) => &[
            ("--snapshot", true),
            ("--addr", true),
            ("--threads", true),
            ("--mode", true),
        ],
        ("ingest", _) => &[
            ("--input", true),
            ("--format", true),
            ("--out", true),
            ("--check", false),
            ("--map", true),
            ("--lenient", false),
            ("--largest-cc", false),
            ("--json", false),
            ("--deadline", true),
        ],
        ("help" | "--help" | "-h", _) => &[],
        _ => return None,
    };
    Some(table)
}

/// Rejects every argument of `sub` that its [`flag_table`] does not
/// list: a mistyped or removed flag is a usage error naming it, never
/// silently ignored.
fn check_flags(sub: &str, rest: &[String]) -> Result<(), String> {
    // `clique-log` takes its action as the first word.
    let (action, args) = match (sub, rest.split_first()) {
        ("clique-log", Some((action, args))) => (Some(action.as_str()), args),
        _ => (None, rest),
    };
    let Some(table) = flag_table(sub, action) else {
        return Ok(());
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        match table.iter().find(|(name, _)| name == arg) {
            Some(&(_, takes_value)) => i += 1 + usize::from(takes_value),
            None if arg.starts_with('-') => return Err(format!("unknown flag {arg} for {sub}")),
            None => return Err(format!("unexpected argument {arg:?} for {sub}")),
        }
    }
    Ok(())
}

fn load_graph(path: &PathBuf) -> Result<asgraph::Graph, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    asgraph::io::parse_edge_list(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        Command::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_serve() {
        let c = parse(&["serve", "--snapshot", "internet.cliquelog"]).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                snapshot: PathBuf::from("internet.cliquelog"),
                addr: "127.0.0.1:7117".to_owned(),
                threads: exec::Threads::Auto,
                mode: cpm::Mode::Exact,
            }
        );
        let c = parse(&[
            "serve",
            "--snapshot",
            "s.snap",
            "--addr",
            "0.0.0.0:8080",
            "--threads",
            "6",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                snapshot: PathBuf::from("s.snap"),
                addr: "0.0.0.0:8080".to_owned(),
                threads: exec::Threads::Fixed(6),
                mode: cpm::Mode::Exact,
            }
        );
        assert!(parse(&["serve"]).unwrap_err().contains("--snapshot"));
        assert!(parse(&["serve", "--snapshot", "s", "--threads", "zero"])
            .unwrap_err()
            .contains("--threads"));
    }

    #[test]
    fn parses_ingest() {
        let c = parse(&[
            "ingest",
            "--input",
            "a.aslinks",
            "--input",
            "b.csv",
            "--out",
            "g.edges",
            "--map",
            "ids.txt",
            "--lenient",
            "--largest-cc",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Ingest {
                inputs: vec![PathBuf::from("a.aslinks"), PathBuf::from("b.csv")],
                format: None,
                out: Some(PathBuf::from("g.edges")),
                check: false,
                map: Some(PathBuf::from("ids.txt")),
                lenient: true,
                largest_cc: true,
                json: false,
                deadline: None,
            }
        );
        let c = parse(&[
            "ingest", "--input", "a", "--check", "--format", "dimes", "--json",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Ingest {
                inputs: vec![PathBuf::from("a")],
                format: Some(ingest::Format::Dimes),
                out: None,
                check: true,
                map: None,
                lenient: false,
                largest_cc: false,
                json: true,
                deadline: None,
            }
        );
        // `auto` is the explicit spelling of the default.
        assert!(matches!(
            parse(&["ingest", "--input", "a", "--check", "--format", "auto"]).unwrap(),
            Command::Ingest { format: None, .. }
        ));
        assert!(parse(&["ingest", "--check"])
            .unwrap_err()
            .contains("--input"));
        assert!(parse(&["ingest", "--input", "a"])
            .unwrap_err()
            .contains("--out <edges> or --check"));
        assert!(parse(&["ingest", "--input", "a", "--out", "o", "--check"])
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(
            parse(&["ingest", "--input", "a", "--check", "--format", "xml"])
                .unwrap_err()
                .contains("--format")
        );
    }

    #[test]
    fn parses_communities() {
        let c = parse(&["communities", "--input", "g.txt", "--k", "4"]).unwrap();
        assert_eq!(
            c,
            Command::Communities {
                input: PathBuf::from("g.txt"),
                k: Some(4),
                all_k: false,
                mode: cpm::Mode::Exact,
                threads: exec::Threads::Auto,
                deadline: None,
            }
        );
        let c = parse(&["communities", "--input", "g.txt", "--all-k"]).unwrap();
        assert!(matches!(c, Command::Communities { all_k: true, .. }));
    }

    #[test]
    fn parses_threads_flag() {
        for (name, want) in [
            ("auto", exec::Threads::Auto),
            ("1", exec::Threads::Fixed(1)),
            ("4", exec::Threads::Fixed(4)),
        ] {
            let c = parse(&[
                "communities",
                "--input",
                "g.txt",
                "--k",
                "3",
                "--threads",
                name,
            ])
            .unwrap();
            assert!(matches!(c, Command::Communities { threads, .. } if threads == want));
            let c = parse(&[
                "stream-percolate",
                "--input",
                "g.txt",
                "--all-k",
                "--threads",
                name,
            ])
            .unwrap();
            assert!(matches!(c, Command::StreamPercolate { threads, .. } if threads == want));
        }
        for bad in ["0", "-1", "many"] {
            assert!(parse(&[
                "communities",
                "--input",
                "g.txt",
                "--k",
                "3",
                "--threads",
                bad
            ])
            .is_err());
        }
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // Removed flags, typos, another verb's flags, stray words.
        for (args, offender) in [
            (
                &[
                    "communities",
                    "--input",
                    "g",
                    "--k",
                    "3",
                    "--sweep",
                    "legacy",
                ][..],
                "--sweep",
            ),
            (
                &[
                    "communities",
                    "--input",
                    "g",
                    "--k",
                    "3",
                    "--pipeline",
                    "staged",
                ][..],
                "--pipeline",
            ),
            (
                &["communities", "--input", "g", "--k", "3", "--thread", "4"][..],
                "--thread",
            ),
            (
                &["communities", "--input", "g", "--k", "3", "--resume"][..],
                "--resume",
            ),
            (
                &["stream-percolate", "--input", "g", "--k", "3", "--approx"][..],
                "--approx",
            ),
            (
                &[
                    "communities",
                    "--input",
                    "g",
                    "--k",
                    "3",
                    "--kernel",
                    "merge",
                ][..],
                "--kernel",
            ),
            (
                &[
                    "stream-percolate",
                    "--input",
                    "g",
                    "--all-k",
                    "--kernel",
                    "auto",
                ][..],
                "--kernel",
            ),
            (
                &[
                    "clique-log",
                    "build",
                    "--input",
                    "g",
                    "--out",
                    "o",
                    "--kernel",
                    "bitset",
                ][..],
                "--kernel",
            ),
            (
                &["clique-log", "info", "--log", "c", "--out", "o"][..],
                "--out",
            ),
            (
                &["serve", "--snapshot", "s", "--deadline", "5"][..],
                "--deadline",
            ),
            (&["tree", "--input", "g", "extra"][..], "extra"),
            (&["help", "--verbose"][..], "--verbose"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(offender), "{args:?}: {err}");
        }
        // A flag's value is never mistaken for a flag.
        assert!(parse(&["generate", "--out", "--scale"]).is_ok());
    }

    #[test]
    fn communities_validation() {
        assert!(parse(&["communities", "--input", "g.txt"]).is_err());
        assert!(parse(&["communities", "--input", "g.txt", "--k", "1"]).is_err());
        assert!(parse(&["communities", "--input", "g.txt", "--k", "3", "--all-k"]).is_err());
        assert!(parse(&["communities", "--k", "3"]).is_err());
    }

    #[test]
    fn parses_tree_defaults() {
        let c = parse(&["tree", "--input", "g.txt"]).unwrap();
        assert_eq!(
            c,
            Command::Tree {
                input: PathBuf::from("g.txt"),
                min_k: 2
            }
        );
    }

    #[test]
    fn parses_generate() {
        let c = parse(&["generate", "--scale", "tiny", "--out", "d"]).unwrap();
        assert_eq!(
            c,
            Command::Generate {
                scale: "tiny".into(),
                seed: 42,
                out: PathBuf::from("d")
            }
        );
        assert!(parse(&["generate", "--scale", "huge", "--out", "d"]).is_err());
        assert!(parse(&["generate", "--scale", "tiny"]).is_err());
    }

    #[test]
    fn parses_rewire() {
        let c = parse(&["rewire", "--input", "a", "--output", "b", "--swaps", "99"]).unwrap();
        assert_eq!(
            c,
            Command::Rewire {
                input: PathBuf::from("a"),
                output: PathBuf::from("b"),
                swaps: Some(99),
                seed: 42
            }
        );
        assert!(parse(&["rewire", "--input", "a"]).is_err());
    }

    #[test]
    fn parses_stream_percolate() {
        let c = parse(&["stream-percolate", "--input", "g.txt", "--k", "4"]).unwrap();
        assert_eq!(
            c,
            Command::StreamPercolate {
                input: Some(PathBuf::from("g.txt")),
                log: None,
                k: Some(4),
                all_k: false,
                mode: cpm::Mode::Exact,
                threads: exec::Threads::Auto,
                deadline: None,
            }
        );
        let c = parse(&["stream-percolate", "--log", "c.log", "--all-k"]).unwrap();
        assert!(matches!(
            c,
            Command::StreamPercolate {
                input: None,
                all_k: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_mode_flag() {
        for (cmd, tail) in [
            ("communities", &["--input", "g.txt", "--k", "4"][..]),
            ("stream-percolate", &["--input", "g.txt", "--all-k"][..]),
            ("serve", &["--snapshot", "s.snap"][..]),
        ] {
            let mut base = vec![cmd];
            base.extend_from_slice(tail);
            for (value, want) in [("exact", cpm::Mode::Exact), ("almost", cpm::Mode::Almost)] {
                let mut args = base.clone();
                args.extend_from_slice(&["--mode", value]);
                let got = match parse(&args).unwrap() {
                    Command::Communities { mode, .. }
                    | Command::StreamPercolate { mode, .. }
                    | Command::Serve { mode, .. } => mode,
                    other => panic!("unexpected parse of {args:?}: {other:?}"),
                };
                assert_eq!(got, want, "{args:?}");
            }
            // Default is exact, and garbage is rejected with context.
            let got = match parse(&base).unwrap() {
                Command::Communities { mode, .. }
                | Command::StreamPercolate { mode, .. }
                | Command::Serve { mode, .. } => mode,
                other => panic!("unexpected parse of {base:?}: {other:?}"),
            };
            assert_eq!(got, cpm::Mode::Exact, "{base:?}");
            let mut args = base.clone();
            args.extend_from_slice(&["--mode", "fuzzy"]);
            assert!(parse(&args).unwrap_err().contains("bad --mode"), "{args:?}");
        }
    }

    #[test]
    fn stream_percolate_validation() {
        // Needs exactly one source and exactly one of --k / --all-k.
        assert!(parse(&["stream-percolate", "--k", "3"]).is_err());
        assert!(parse(&["stream-percolate", "--input", "a", "--log", "b", "--k", "3"]).is_err());
        assert!(parse(&["stream-percolate", "--input", "a"]).is_err());
        assert!(parse(&["stream-percolate", "--input", "a", "--k", "3", "--all-k"]).is_err());
        assert!(parse(&["stream-percolate", "--input", "a", "--k", "1"]).is_err());
    }

    #[test]
    fn parses_clique_log() {
        let c = parse(&["clique-log", "build", "--input", "g.txt", "--out", "c.log"]).unwrap();
        assert_eq!(
            c,
            Command::CliqueLogBuild {
                input: PathBuf::from("g.txt"),
                out: PathBuf::from("c.log"),
                checkpoint_cliques: 0,
                resume: false,
                deadline: None,
            }
        );
        let c = parse(&["clique-log", "info", "--log", "c.log"]).unwrap();
        assert_eq!(
            c,
            Command::CliqueLogInfo {
                log: PathBuf::from("c.log"),
            }
        );
        let c = parse(&["clique-log", "recover", "--log", "c.log"]).unwrap();
        assert_eq!(
            c,
            Command::CliqueLogRecover {
                log: PathBuf::from("c.log"),
            }
        );
        assert!(parse(&["clique-log"]).is_err());
        assert!(parse(&["clique-log", "verify"]).is_err());
        assert!(parse(&["clique-log", "build", "--input", "g.txt"]).is_err());
        assert!(parse(&["clique-log", "recover"]).is_err());
    }

    #[test]
    fn parses_build_robustness_flags() {
        let c = parse(&[
            "clique-log",
            "build",
            "--input",
            "g.txt",
            "--out",
            "c.log",
            "--checkpoint-cliques",
            "128",
            "--resume",
            "--deadline",
            "30",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::CliqueLogBuild {
                input: PathBuf::from("g.txt"),
                out: PathBuf::from("c.log"),
                checkpoint_cliques: 128,
                resume: true,
                deadline: Some(30),
            }
        );
        // Cadence 0 would mean "never seal a segment": rejected.
        assert!(parse(&[
            "clique-log",
            "build",
            "--input",
            "g.txt",
            "--out",
            "c.log",
            "--checkpoint-cliques",
            "0",
        ])
        .is_err());
    }

    #[test]
    fn parses_deadline_flag() {
        for cmd in [
            vec!["communities", "--input", "g.txt", "--all-k"],
            vec!["stream-percolate", "--input", "g.txt", "--all-k"],
        ] {
            let mut with = cmd.clone();
            with.extend(["--deadline", "120"]);
            match parse(&with).unwrap() {
                Command::Communities { deadline, .. }
                | Command::StreamPercolate { deadline, .. } => assert_eq!(deadline, Some(120)),
                other => panic!("unexpected command {other:?}"),
            }
            match parse(&cmd).unwrap() {
                Command::Communities { deadline, .. }
                | Command::StreamPercolate { deadline, .. } => assert_eq!(deadline, None),
                other => panic!("unexpected command {other:?}"),
            }
        }
        assert!(parse(&[
            "communities",
            "--input",
            "g.txt",
            "--all-k",
            "--deadline",
            "soon"
        ])
        .is_err());
    }

    #[test]
    fn end_to_end_streaming_pipeline() {
        let dir = std::env::temp_dir().join(format!("kclique_cli_stream_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("toy.edges");
        std::fs::write(&edges, "0 1\n0 2\n1 2\n1 3\n2 3\n").unwrap();

        let log = dir.join("toy.cliquelog");
        Command::CliqueLogBuild {
            input: edges.clone(),
            out: log.clone(),
            checkpoint_cliques: 0,
            resume: false,
            deadline: None,
        }
        .run()
        .unwrap();
        Command::CliqueLogInfo { log: log.clone() }.run().unwrap();
        // Recovering a healthy finished log is a no-op.
        Command::CliqueLogRecover { log: log.clone() }
            .run()
            .unwrap();
        Command::CliqueLogInfo { log: log.clone() }.run().unwrap();
        for (input, log_arg) in [(Some(edges.clone()), None), (None, Some(log.clone()))] {
            Command::StreamPercolate {
                input: input.clone(),
                log: log_arg.clone(),
                k: Some(3),
                all_k: false,
                mode: cpm::Mode::Exact,
                threads: exec::Threads::Auto,
                deadline: None,
            }
            .run()
            .unwrap();
            Command::StreamPercolate {
                input,
                log: log_arg,
                k: None,
                all_k: true,
                mode: cpm::Mode::Exact,
                threads: exec::Threads::Fixed(2),
                deadline: None,
            }
            .run()
            .unwrap();
        }
        Command::StreamPercolate {
            input: Some(edges),
            log: None,
            k: Some(3),
            all_k: false,
            mode: cpm::Mode::Almost,
            threads: exec::Threads::Auto,
            deadline: None,
        }
        .run()
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_deadline_interrupts_with_resumable_exit_code() {
        let dir = std::env::temp_dir().join(format!("kclique_cli_deadline_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("toy.edges");
        std::fs::write(&edges, "0 1\n0 2\n1 2\n1 3\n2 3\n3 4\n2 4\n").unwrap();
        let log = dir.join("toy.cliquelog");

        // A zero deadline trips before the first clique: the build must
        // stop, seal a valid (empty) log, and report exit code 75.
        let err = Command::CliqueLogBuild {
            input: edges.clone(),
            out: log.clone(),
            checkpoint_cliques: 2,
            resume: false,
            deadline: Some(0),
        }
        .run()
        .unwrap_err();
        assert_eq!(err.code, EXIT_INTERRUPTED);
        assert!(err.message.contains("--resume"), "{err}");

        // The sealed log is valid and resumable: a deadline-free resume
        // completes it, and a replay then matches the live graph.
        Command::CliqueLogBuild {
            input: edges.clone(),
            out: log.clone(),
            checkpoint_cliques: 2,
            resume: true,
            deadline: None,
        }
        .run()
        .unwrap();
        Command::StreamPercolate {
            input: None,
            log: Some(log),
            k: None,
            all_k: true,
            mode: cpm::Mode::Exact,
            threads: exec::Threads::Auto,
            deadline: None,
        }
        .run()
        .unwrap();

        // The interruption exit code also reaches the in-memory
        // commands (which have nothing durable to resume).
        let err = Command::Communities {
            input: edges.clone(),
            k: None,
            all_k: true,
            mode: cpm::Mode::Exact,
            threads: exec::Threads::Auto,
            deadline: Some(0),
        }
        .run()
        .unwrap_err();
        assert_eq!(err.code, EXIT_INTERRUPTED);
        let err = Command::StreamPercolate {
            input: Some(edges),
            log: None,
            k: Some(3),
            all_k: false,
            mode: cpm::Mode::Exact,
            threads: exec::Threads::Auto,
            deadline: Some(0),
        }
        .run()
        .unwrap_err();
        assert_eq!(err.code, EXIT_INTERRUPTED);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_log_reports_corrupt_input_and_recover_fixes_it() {
        let dir = std::env::temp_dir().join(format!("kclique_cli_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("toy.edges");
        std::fs::write(&edges, "0 1\n0 2\n1 2\n1 3\n2 3\n").unwrap();
        let log = dir.join("toy.cliquelog");
        Command::CliqueLogBuild {
            input: edges,
            out: log.clone(),
            checkpoint_cliques: 1,
            resume: false,
            deadline: None,
        }
        .run()
        .unwrap();

        // Tear the log the way a crash would: drop the tail.
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 5]).unwrap();

        for cmd in [
            Command::CliqueLogInfo { log: log.clone() },
            Command::StreamPercolate {
                input: None,
                log: Some(log.clone()),
                k: Some(3),
                all_k: false,
                mode: cpm::Mode::Exact,
                threads: exec::Threads::Auto,
                deadline: None,
            },
        ] {
            let err = cmd.run().unwrap_err();
            assert_eq!(err.code, EXIT_CORRUPT_INPUT, "{err}");
            assert!(err.message.contains("recover"), "not actionable: {err}");
        }

        // Recovery salvages the intact prefix; info works again.
        Command::CliqueLogRecover { log: log.clone() }
            .run()
            .unwrap();
        Command::CliqueLogInfo { log }.run().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_command() {
        assert!(parse(&["frobnicate"]).is_err());
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn end_to_end_generate_and_analyze() {
        let dir = std::env::temp_dir().join(format!("kclique_cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Command::Generate {
            scale: "tiny".into(),
            seed: 1,
            out: dir.clone(),
        }
        .run()
        .unwrap();
        Command::Analyze {
            dataset: dir.clone(),
        }
        .run()
        .unwrap();
        // And the plain-graph commands work on the written edge list.
        let edges = dir.join("topology.edges");
        Command::Stats {
            input: edges.clone(),
        }
        .run()
        .unwrap();
        Command::Communities {
            input: edges.clone(),
            k: Some(3),
            all_k: false,
            mode: cpm::Mode::Exact,
            threads: exec::Threads::Auto,
            deadline: None,
        }
        .run()
        .unwrap();
        Command::Communities {
            input: edges.clone(),
            k: None,
            all_k: true,
            mode: cpm::Mode::Exact,
            threads: exec::Threads::Fixed(2),
            deadline: None,
        }
        .run()
        .unwrap();
        // A generous (never-expiring) deadline must not change the
        // single-k output path's behaviour, only its engine.
        Command::Communities {
            input: edges.clone(),
            k: Some(3),
            all_k: false,
            mode: cpm::Mode::Exact,
            threads: exec::Threads::Auto,
            deadline: Some(3600),
        }
        .run()
        .unwrap();
        Command::Baselines {
            input: edges.clone(),
        }
        .run()
        .unwrap();
        let rewired = dir.join("null.edges");
        Command::Rewire {
            input: edges,
            output: rewired.clone(),
            swaps: Some(500),
            seed: 1,
        }
        .run()
        .unwrap();
        assert!(rewired.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reports_path() {
        let err = Command::Stats {
            input: PathBuf::from("/no/such/file.edges"),
        }
        .run()
        .unwrap_err();
        assert!(err.message.contains("/no/such/file.edges"));
        // A missing file is a generic failure, not corrupt input.
        assert_eq!(err.code, 1);
    }
}
