//! The durability-cost suite of the v2 clique log
//! (`BENCH_faultio.json`).
//!
//! The v2 log buys crash safety with per-segment framing, CRC32C
//! checksums and a flush per sealed segment. This suite prices that
//! purchase: for each substrate it times, at three checkpoint cadences
//! (the `variant` column) — `none` (one giant segment, the
//! uncheckpointed baseline), `default` (the library cadence) and `fine`
//! (64 cliques per segment) —
//!
//! - `build` of the log;
//! - `replay` of it (frame parsing and CRC verification per segment);
//! - `recover` of a copy torn at 2/3 of its length (the salvage walk
//!   over every frame).
//!
//! `--check` is a CI gate: on every substrate, `build` at the default
//! cadence takes at most 1.05× the uncheckpointed build's median.
//! Checkpointing is sold as costing at most 5 % wall-clock, so the gate
//! measures exactly that claim.

use crate::{find, round_robin, substrate, substrates_of, Args, Cell, Row, Suite};
use cpm_stream::{CliqueLogReader, LogBuildOptions};

/// The faultio suite.
pub(crate) const SUITE: Suite = Suite {
    name: "faultio",
    ops: &["build", "replay", "recover"],
    flags: &["--substrate", "--iters", "--seed", "--out", "--check"],
    substrates: &["sparse", "dense", "small"],
    iters: 7,
    run,
    check: Some(check),
};

/// Cadences benchmarked: label plus cliques per segment.
const CADENCES: [(&str, usize); 3] = [
    ("none", usize::MAX),
    ("default", cpm_stream::DEFAULT_CHECKPOINT_CLIQUES),
    ("fine", 64),
];

fn run(args: &Args) -> Vec<Row> {
    let dir = std::env::temp_dir().join(format!("kclique_bench_faultio_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut rows = Vec::new();
    for &flag in &args.substrates {
        let (name, g) = substrate(flag, args.seed);
        let g = &g;
        let mut cells = Vec::new();
        for (variant, cadence) in CADENCES {
            let row = |op| Row {
                variant: Some(variant),
                ..Row::new("faultio", name, op)
            };
            let path = dir.join(format!("{name}_{variant}.cliquelog"));
            let torn = dir.join(format!("{name}_{variant}_torn.cliquelog"));
            let options = LogBuildOptions {
                checkpoint_cliques: cadence,
                ..Default::default()
            };
            let build = {
                let path = path.clone();
                move || cpm_stream::build_clique_log(g, &path, &options).expect("build failed")
            };
            build();
            let mut bytes = std::fs::read(&path).expect("read log");
            bytes.truncate(bytes.len() * 2 / 3);
            cells.push(Cell::one(row("build"), build));
            cells.push(Cell::one(row("replay"), move || {
                let mut reader = CliqueLogReader::open(&path).expect("open failed");
                let mut buf = Vec::new();
                let mut n = 0u64;
                while reader.read_next(&mut buf).expect("decode failed") {
                    n += 1;
                }
                n
            }));
            cells.push(Cell::one(row("recover"), move || {
                std::fs::write(&torn, &bytes).expect("write torn copy");
                CliqueLogReader::recover(&torn).expect("recover failed")
            }));
        }
        rows.extend(round_robin(args.iters, cells));
    }
    std::fs::remove_dir_all(&dir).ok();
    rows
}

fn check(rows: &[Row]) -> Vec<String> {
    const BOUND: f64 = 1.05;
    let mut violations = Vec::new();
    for sub in substrates_of(rows) {
        let median = |c| find(rows, (sub, "build", None, Some(c), None)).and_then(|r| r.median_ns);
        let (Some(base), Some(with)) = (median("none"), median("default")) else {
            continue;
        };
        let ratio = with as f64 / base.max(1) as f64;
        if ratio > BOUND {
            violations.push(format!(
                "{sub}/build @ default cadence is {ratio:.3}x the uncheckpointed build \
                 (bound {BOUND}x)"
            ));
        }
    }
    violations
}
