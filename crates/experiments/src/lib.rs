//! Shared runner for the experiment binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! `DESIGN.md` §3 for the index) and accepts the same flags:
//!
//! ```text
//! --scale tiny|small|default|full   topology preset   (default: default)
//! --seed <u64>                      generator seed    (default: 42)
//! --threads <n>                     CPM workers       (default: available)
//! --out <dir>                       also write TSV/DOT artefacts there
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kclique_core::{analyze, Analysis};
use std::path::PathBuf;
use topology::ModelConfig;

/// Parsed command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Preset name (`tiny`, `small`, `default`, `full`).
    pub scale: String,
    /// Generator seed.
    pub seed: u64,
    /// CPM worker threads.
    pub threads: usize,
    /// Output directory for machine-readable artefacts, if requested.
    pub out: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: "default".to_owned(),
            seed: 42,
            threads: std::thread::available_parallelism().map_or(4, usize::from),
            out: None,
        }
    }
}

impl Options {
    /// Parses `std::env::args`, exiting with a usage message on bad input.
    pub fn from_env() -> Options {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            eprintln!(
                "usage: --scale tiny|small|default|full --seed <u64> --threads <n> --out <dir>"
            );
            std::process::exit(2);
        })
    }

    /// Parses an argument iterator.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unrecognised or malformed flag.
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

    /// Runs the full pipeline for these options.
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

    /// Writes `content` under the output directory (if one was given),
    /// creating it as needed.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure — experiment artefacts must not be silently
    /// dropped.
    pub fn write_artifact(&self, name: &str, content: &str) {
        let Some(dir) = &self.out else { return };
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write artifact");
        eprintln!("# wrote {}", path.display());
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
    fn config_presets() {
        for (scale, expect_n) in [("tiny", 400usize), ("small", 2000), ("full", 35000)] {
            let o = Options {
                scale: scale.to_owned(),
                ..Default::default()
            };
            assert_eq!(o.config().n_ases, expect_n);
        }
    }
}
