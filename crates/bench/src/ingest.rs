//! The merge suite of the ingest layer (`BENCH_ingest.json`), on the
//! `small` and `medium` presets by default.
//!
//! One op, `merge`: sources parsed, merged and cleaned into the graph,
//! as the `ingest` verb does it. Each substrate is rendered in memory
//! as edge-list text two ways (the `variant` column):
//!
//! - `dup`: twelve sources, each a seeded 85% sample of the links in
//!   shuffled order and orientation. Like the paper's merge of several
//!   measurement sources, most records repeat a link that another
//!   source already gave.
//! - `flat`: one source holding every link once.
//!
//! `--check` gates memory: on every substrate, `dup`'s peak heap is at
//! most 1.5× `flat`'s. The two read ~10× apart in records but hold
//! about the same distinct links, so the gate passes when ingest memory
//! follows the distinct links and fails when it follows the records.

use crate::{find, round_robin, substrate, substrates_of, Args, Cell, Row, Suite};
use ingest::{Format, IngestOptions, IngestOutcome, Ingestor};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The ingest suite.
pub(crate) const SUITE: Suite = Suite {
    name: "ingest",
    ops: &["merge"],
    flags: &["--substrate", "--iters", "--seed", "--out", "--check"],
    substrates: &["small", "medium"],
    iters: 11,
    run,
    check: Some(check),
};

/// Sources of the `dup` variant, and the share of links each holds.
const DUP_SOURCES: u64 = 12;
const DUP_SAMPLE: f64 = 0.85;

fn run(args: &Args) -> Vec<Row> {
    let mut rows = Vec::new();
    for &flag in &args.substrates {
        let (name, g) = substrate(flag, args.seed);
        let links: Vec<(u32, u32)> = g.edges().collect();
        let dup: Vec<String> = (0..DUP_SOURCES)
            .map(|i| render(&links, DUP_SAMPLE, args.seed ^ (i + 1)))
            .collect();
        let flat = vec![render(&links, 1.0, args.seed)];
        let cells = [("dup", dup), ("flat", flat)]
            .into_iter()
            .map(|(variant, sources)| {
                let row = Row {
                    variant: Some(variant),
                    ..Row::new("ingest", name, "merge")
                };
                Cell::one(row, move || merge(&sources))
            })
            .collect();
        rows.extend(round_robin(args.iters, cells));
    }
    rows
}

/// One edge-list source: each link kept with probability `share`, in
/// either orientation, lines shuffled.
fn render(links: &[(u32, u32)], share: f64, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::new();
    for &(u, v) in links {
        if rng.random_bool(share) {
            let (a, b) = if rng.random_bool(0.5) { (u, v) } else { (v, u) };
            lines.push(format!("{a} {b}\n"));
        }
    }
    lines.shuffle(&mut rng);
    lines.concat()
}

/// Ingests `sources` as one run.
fn merge(sources: &[String]) -> IngestOutcome {
    let mut ing = Ingestor::new(IngestOptions::default());
    for (i, text) in sources.iter().enumerate() {
        ing.ingest_reader(&format!("s{i}"), Format::EdgeList, text.as_bytes())
            .expect("rendered sources are valid");
    }
    ing.finish()
        .expect("rendered sources are within the limits")
}

fn check(rows: &[Row]) -> Vec<String> {
    const BOUND: f64 = 1.5;
    let mut violations = Vec::new();
    for sub in substrates_of(rows) {
        let peak = |v| find(rows, (sub, "merge", None, Some(v), None)).and_then(|r| r.peak_bytes);
        let (Some(dup), Some(flat)) = (peak("dup"), peak("flat")) else {
            continue;
        };
        let ratio = dup as f64 / flat.max(1) as f64;
        if ratio > BOUND {
            violations.push(format!(
                "{sub}/merge: dup's peak heap is {ratio:.2}x flat's (bound {BOUND}x)"
            ));
        }
    }
    violations
}
