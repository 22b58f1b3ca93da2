//! The reproduction as a library: one analysis, every experiment over it.
//!
//! Each module regenerates one table or figure of the paper (see
//! `DESIGN.md` §3 for the index) or runs one extension experiment. All
//! of them are an [`Experiment`]: they read the one shared [`Analysis`]
//! (the seeded topology and its percolation, computed once), print a
//! human-readable report to stdout and return their machine-readable
//! [`Artifact`]s. The `repro_all` binary runs them with these flags:
//!
//! ```text
//! --scale tiny|small|default|full   topology preset   (default: default)
//! --seed <u64>                      generator seed    (default: 42)
//! --threads <n>                     CPM workers       (default: available)
//! --out <dir>                       also write the artifacts there
//! --only <name>                     run one experiment (see EXPERIMENTS)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline_comparison;
mod census_blowup;
mod community_significance;
mod cover_distributions;
mod crown_trunk_root;
mod dataset_summary;
mod directed_cpm;
mod evolution;
mod fig_4_1;
mod fig_4_2;
mod fig_4_3;
mod fig_4_4;
mod ixp_analysis;
mod overlap_analysis;
mod table_2_1;
mod table_2_2;
mod topology_validation;
mod zp_analysis;

use kclique_core::svg::{ScatterPlot, Series};
use kclique_core::{analyze, Analysis, MetricRow};
use std::path::PathBuf;
use topology::ModelConfig;

/// One experiment: reads the shared analysis, prints its report to
/// stdout and returns the files it produces.
pub type Experiment = fn(&Analysis, &Options) -> Vec<Artifact>;

/// Every experiment by name, in presentation order: first the paper's
/// own artifacts, then the extension experiments.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    // paper artifacts
    ("dataset_summary", dataset_summary::run),
    ("table_2_1", table_2_1::run),
    ("table_2_2", table_2_2::run),
    ("fig_4_1", fig_4_1::run),
    ("fig_4_2", fig_4_2::run),
    ("fig_4_3", fig_4_3::run),
    ("fig_4_4", fig_4_4::run),
    ("overlap_analysis", overlap_analysis::run),
    ("ixp_analysis", ixp_analysis::run),
    ("crown_trunk_root", crown_trunk_root::run),
    ("baseline_comparison", baseline_comparison::run),
    // extensions
    ("topology_validation", topology_validation::run),
    ("community_significance", community_significance::run),
    ("zp_analysis", zp_analysis::run),
    ("cover_distributions", cover_distributions::run),
    ("evolution", evolution::run),
    ("directed_cpm", directed_cpm::run),
    ("census_blowup", census_blowup::run),
];

/// A file an experiment produces: its name and its contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// File name, relative to the output directory.
    pub name: String,
    /// File contents.
    pub contents: String,
}

impl Artifact {
    fn new(name: impl Into<String>, contents: String) -> Artifact {
        Artifact {
            name: name.into(),
            contents,
        }
    }
}

/// Figure 4.3's or 4.4's SVG: `value` against k, main communities filled,
/// parallel ones hollow.
fn main_vs_parallel_svg(
    title: &str,
    y_label: &str,
    log_y: bool,
    (main, parallel): (&[&MetricRow], &[&MetricRow]),
    value: fn(&MetricRow) -> f64,
) -> String {
    let series = |rows: &[&MetricRow], name: &str, filled| Series {
        name: name.into(),
        points: rows.iter().map(|r| (r.id.k as f64, value(r))).collect(),
        filled,
    };
    ScatterPlot {
        title: title.into(),
        x_label: "k".into(),
        y_label: y_label.into(),
        log_y,
        series: vec![
            series(main, "main", true),
            series(parallel, "parallel", false),
        ],
    }
    .to_svg()
}

/// The columns that hold wall-clock timings, by artifact name: the only
/// cells in which two runs with the same options may differ.
pub const TIMING_COLUMNS: &[(&str, &[&str])] =
    &[("census_blowup.tsv", &["enumerate", "percolate all k"])];

/// `contents` of artifact `name` with every cell of its
/// [`TIMING_COLUMNS`] below the header replaced by `-`; every other
/// byte is kept.
pub fn without_timings(name: &str, contents: &str) -> String {
    let Some((_, columns)) = TIMING_COLUMNS.iter().find(|(n, _)| *n == name) else {
        return contents.to_owned();
    };
    let mut lines = contents.split('\n');
    let header = lines.next().unwrap_or_default();
    let timed: Vec<usize> = header
        .split('\t')
        .enumerate()
        .filter(|(_, column)| columns.contains(column))
        .map(|(i, _)| i)
        .collect();
    let mut out = header.to_owned();
    for line in lines {
        out.push('\n');
        let cells: Vec<&str> = line
            .split('\t')
            .enumerate()
            .map(|(i, cell)| if timed.contains(&i) { "-" } else { cell })
            .collect();
        out.push_str(&cells.join("\t"));
    }
    out
}

/// Parsed command-line options of `repro_all`, read by every
/// experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Preset name (`tiny`, `small`, `default`, `full`).
    pub scale: String,
    /// Generator seed.
    pub seed: u64,
    /// CPM worker threads.
    pub threads: usize,
    /// Output directory for the artifacts, if requested.
    pub out: Option<PathBuf>,
    /// The one experiment to run (a name in [`EXPERIMENTS`]), or all.
    pub only: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: "default".to_owned(),
            seed: 42,
            threads: std::thread::available_parallelism().map_or(4, usize::from),
            out: None,
            only: None,
        }
    }
}

impl Options {
    /// Parses `std::env::args`, exiting with status 2 and a usage
    /// message on bad input.
    pub fn from_env() -> Options {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            eprintln!(
                "usage: --scale tiny|small|default|full --seed <u64> --threads <n> --out <dir> --only <name>"
            );
            std::process::exit(2);
        })
    }

    /// Parses an argument iterator.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unrecognised or malformed flag;
    /// for an unknown `--only` name it lists the valid ones.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match flag.as_str() {
                "--scale" => {
                    let v = value("--scale")?;
                    if !["tiny", "small", "default", "full"].contains(&v.as_str()) {
                        return Err(format!("unknown scale {v:?}"));
                    }
                    opts.scale = v;
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?;
                }
                "--threads" => {
                    opts.threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("bad thread count: {e}"))?;
                    if opts.threads == 0 {
                        return Err("thread count must be positive".to_owned());
                    }
                }
                "--out" => {
                    opts.out = Some(PathBuf::from(value("--out")?));
                }
                "--only" => {
                    let v = value("--only")?;
                    if !EXPERIMENTS.iter().any(|(name, _)| *name == v) {
                        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                        return Err(format!(
                            "unknown experiment {v:?}; valid names: {}",
                            names.join(", ")
                        ));
                    }
                    opts.only = Some(v);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(opts)
    }

    /// The model config for the selected preset and seed.
    pub fn config(&self) -> ModelConfig {
        match self.scale.as_str() {
            "tiny" => ModelConfig::tiny(self.seed),
            "small" => ModelConfig::small(self.seed),
            "full" => ModelConfig::full_scale(self.seed),
            _ => ModelConfig::default_scale(self.seed),
        }
    }

    /// Runs the full pipeline for these options: the analysis every
    /// experiment reads.
    ///
    /// # Panics
    ///
    /// Panics if the preset config is invalid (a bug in the presets).
    pub fn run_analysis(&self) -> Analysis {
        let config = self.config();
        eprintln!(
            "# generating {} topology (seed {}) and running CPM on {} threads ...",
            self.scale, self.seed, self.threads
        );
        let analysis = analyze(&config, self.threads).expect("preset configs are valid");
        eprintln!(
            "# nodes={} edges={} maximal_cliques={} k_max={} communities={}",
            analysis.topo.graph.node_count(),
            analysis.topo.graph.edge_count(),
            analysis.result.clique_count,
            analysis.result.k_max().unwrap_or(0),
            analysis.result.total_communities()
        );
        analysis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, "default");
        assert_eq!(o.seed, 42);
        assert!(o.out.is_none());
    }

    #[test]
    fn full_flags() {
        let o = parse(&[
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--threads",
            "2",
            "--out",
            "/tmp/x",
        ])
        .unwrap();
        assert_eq!(o.scale, "tiny");
        assert_eq!(o.seed, 7);
        assert_eq!(o.threads, 2);
        assert_eq!(o.out, Some(PathBuf::from("/tmp/x")));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale", "galactic"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn only_takes_one_experiment_name() {
        let o = parse(&["--only", "fig_4_1"]).unwrap();
        assert_eq!(o.only.as_deref(), Some("fig_4_1"));
        assert!(parse(&["--only"]).is_err());
        let err = parse(&["--only", "fig_9_9"]).unwrap_err();
        for (name, _) in EXPERIMENTS {
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn config_presets() {
        for (scale, expect_n) in [("tiny", 400usize), ("small", 2000), ("full", 35000)] {
            let o = Options {
                scale: scale.to_owned(),
                ..Default::default()
            };
            assert_eq!(o.config().n_ases, expect_n);
        }
    }

    #[test]
    fn timing_cells_are_masked_and_nothing_else() {
        let tsv = "m\tenumerate\tpercolate all k\tn\n6\t1ms\t2ms\t1\n8\t3ms\t4ms\t1\n";
        assert_eq!(
            without_timings("census_blowup.tsv", tsv),
            "m\tenumerate\tpercolate all k\tn\n6\t-\t-\t1\n8\t-\t-\t1\n"
        );
        assert_eq!(without_timings("fig_4_1.tsv", tsv), tsv);
    }
}
