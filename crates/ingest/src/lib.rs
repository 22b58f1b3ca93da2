//! Hardened ingestion of real AS-topology datasets.
//!
//! The paper (§2.1) builds its graph by merging several measurement
//! sources — BGP-derived edge lists, CAIDA-style AS-links files,
//! DIMES-like CSV exports — then cleaning the union: duplicate links
//! collapse, self-loops go, and optionally only the largest connected
//! component is kept. This crate is that pipeline, built to the same
//! discipline as the clique-log v2 decoder:
//!
//! - **streaming and bounded** — sources are read line-by-line through
//!   a budgeted reader; no read happens before it is bounded, and no
//!   allocation is proportional to a hostile token ([`Limits`]);
//! - **diagnosed** — every rejection is an [`IngestError`] naming the
//!   source, 1-based line, and (for field errors) byte column;
//! - **two failure modes** — strict (default) aborts on the first bad
//!   record; lenient skips and counts it. Resource-cap breaches abort
//!   in both modes;
//! - **interruptible** — a shared [`exec::CancelToken`] is polled
//!   between lines, so Ctrl-C or a deadline yields a clean
//!   resumable-interruption exit instead of a torn run.
//!
//! # Example
//!
//! ```
//! use ingest::{Format, IngestOptions, Ingestor};
//!
//! let mut ing = Ingestor::new(IngestOptions::default());
//! ing.ingest_reader("links", Format::AsLinks, &b"D\t1\t2\nD\t2\t3\n"[..])
//!     .unwrap();
//! ing.ingest_reader("extra", Format::EdgeList, &b"1 3\n1 3\n"[..])
//!     .unwrap();
//! let out = ing.finish().unwrap();
//! assert_eq!(out.graph.node_count(), 3);
//! assert_eq!(out.graph.edge_count(), 3);
//! assert_eq!(out.report.cleanup.duplicates_removed, 1);
//! ```

mod cleanup;
mod error;
mod format;
mod line;
mod parse;

pub mod limits;

pub use cleanup::CleanupCounters;
pub use error::{BadAsReason, CapKind, IngestError, IngestErrorKind, IngestFailure};
pub use format::Format;
pub use limits::Limits;
pub use parse::{SkipCounters, SourceReport};

use asgraph::Graph;
use cleanup::Links;
use exec::CancelToken;
use parse::RunBudget;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// How an ingestion run should behave.
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    /// Skip (and count) bad records instead of aborting on the first.
    pub lenient: bool,
    /// Resource budgets for the whole run.
    pub limits: Limits,
    /// Keep only the largest connected component (§2.1's final step).
    pub largest_cc: bool,
    /// Cooperative cancellation; polled between lines.
    pub cancel: Option<CancelToken>,
}

/// The full, auditable record of one ingestion run.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Per-source parse outcomes, in ingestion order.
    pub sources: Vec<SourceReport>,
    /// What the merge-and-cleanup stages did.
    pub cleanup: CleanupCounters,
}

/// The product of a finished run: the cleaned graph, the internal-id →
/// AS-number table, and the report.
#[derive(Debug)]
pub struct IngestOutcome {
    /// Dense graph over internal ids `0..n`, ready for the clique
    /// percolation pipeline.
    pub graph: Graph,
    /// `external_ids[internal]` is the original AS number. When
    /// [`CleanupCounters::identity_ids`] is set this is exactly `0..n`.
    pub external_ids: Vec<u32>,
    /// Per-source and per-stage counters.
    pub report: IngestReport,
}

/// Streams one or more sources into a cleaned graph.
///
/// Sources are added with [`Ingestor::ingest_path`] /
/// [`Ingestor::ingest_reader`]; [`Ingestor::finish`] runs the §2.1
/// cleanup over the union. The byte/line/record budgets in
/// [`Limits`] span all sources together.
pub struct Ingestor {
    opts: IngestOptions,
    budget: RunBudget,
    /// The distinct links of every line accepted so far, with the
    /// counts of raw pairs and self-loops behind them. Its size follows
    /// the distinct links, not the records read; `max_edge_records`
    /// bounds the pairs charged to it, duplicates included.
    links: Links,
    sources: Vec<SourceReport>,
}

impl Ingestor {
    /// Creates an ingestor with the given options.
    pub fn new(opts: IngestOptions) -> Self {
        let budget = RunBudget::new(&opts.limits);
        Ingestor {
            opts,
            budget,
            links: Links::default(),
            sources: Vec::new(),
        }
    }

    /// Ingests one already-open source under an explicit format.
    pub fn ingest_reader<R: BufRead>(
        &mut self,
        name: &str,
        format: Format,
        reader: R,
    ) -> Result<&SourceReport, IngestFailure> {
        let report = parse::parse_source(
            reader,
            name,
            format,
            &self.opts.limits,
            self.opts.lenient,
            self.opts.cancel.as_ref(),
            &mut self.budget,
            &mut self.links,
        )?;
        self.sources.push(report);
        Ok(self.sources.last().expect("just pushed"))
    }

    /// Opens and ingests a file, auto-detecting the format from the
    /// extension and leading content unless one is forced.
    pub fn ingest_path(
        &mut self,
        path: &Path,
        format: Option<Format>,
    ) -> Result<&SourceReport, IngestFailure> {
        let name = path.display().to_string();
        let file = File::open(path).map_err(|error| IngestFailure::Io {
            source: name.clone(),
            error,
        })?;
        let mut reader = BufReader::new(file);
        let format = match format {
            Some(f) => f,
            None => {
                let head = reader.fill_buf().map_err(|error| IngestFailure::Io {
                    source: name.clone(),
                    error,
                })?;
                Format::detect(path, head)
            }
        };
        self.ingest_reader(&name, format, reader)
    }

    /// Runs the cleanup pipeline over everything ingested so far.
    pub fn finish(self) -> Result<IngestOutcome, IngestFailure> {
        let cleaned = cleanup::cleanup(self.links, self.opts.largest_cc, &self.opts.limits)
            .map_err(IngestFailure::Parse)?;
        Ok(IngestOutcome {
            graph: cleaned.graph,
            external_ids: cleaned.external_ids,
            report: IngestReport {
                sources: self.sources,
                cleanup: cleaned.counters,
            },
        })
    }
}

impl IngestReport {
    /// Renders the report as an aligned human-readable table.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.sources {
            let _ = writeln!(
                out,
                "source {} [{}]: {} lines, {} bytes, {} records, {} edges emitted{}{}",
                s.name,
                s.format,
                s.lines,
                s.bytes,
                s.records,
                s.edges_emitted,
                if s.header_skipped {
                    ", header skipped"
                } else {
                    ""
                },
                if s.skipped.total() > 0 {
                    format!(", {} skipped", s.skipped.total())
                } else {
                    String::new()
                },
            );
            let sk = &s.skipped;
            for (n, what) in [
                (sk.field_count, "bad field count"),
                (sk.bad_as_number, "bad AS number"),
                (sk.line_too_long, "line too long"),
                (sk.unknown_tag, "unknown tag"),
                (sk.as_set_too_large, "AS set too large"),
                (sk.empty_as_set, "empty AS set"),
            ] {
                if n > 0 {
                    let _ = writeln!(out, "  skipped {n}: {what}");
                }
            }
        }
        let c = &self.cleanup;
        let _ = writeln!(out, "cleanup: {} raw records", c.raw_records);
        let _ = writeln!(out, "  self-loops removed   {}", c.self_loops_removed);
        let _ = writeln!(out, "  duplicates removed   {}", c.duplicates_removed);
        let _ = writeln!(out, "  distinct AS numbers  {}", c.distinct_nodes);
        let _ = writeln!(out, "  links kept           {}", c.edges);
        let _ = writeln!(out, "  components           {}", c.components);
        if c.largest_cc_applied {
            let _ = writeln!(
                out,
                "  largest CC filter    dropped {} nodes, {} links",
                c.lcc_nodes_dropped, c.lcc_edges_dropped
            );
        }
        out
    }

    /// Renders the report as a single JSON object (hand-rolled: the
    /// workspace carries no serialisation dependency).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"sources\":[");
        for (i, s) in self.sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"format\":\"{}\",\"lines\":{},\"bytes\":{},\
                 \"comment_lines\":{},\"header_skipped\":{},\"records\":{},\
                 \"edges_emitted\":{},\"skipped\":{{\"field_count\":{},\
                 \"bad_as_number\":{},\"line_too_long\":{},\"unknown_tag\":{},\
                 \"as_set_too_large\":{},\"empty_as_set\":{},\"total\":{}}}}}",
                json_string(&s.name),
                s.format,
                s.lines,
                s.bytes,
                s.comment_lines,
                s.header_skipped,
                s.records,
                s.edges_emitted,
                s.skipped.field_count,
                s.skipped.bad_as_number,
                s.skipped.line_too_long,
                s.skipped.unknown_tag,
                s.skipped.as_set_too_large,
                s.skipped.empty_as_set,
                s.skipped.total(),
            );
        }
        let c = &self.cleanup;
        let _ = write!(
            out,
            "],\"cleanup\":{{\"raw_records\":{},\"self_loops_removed\":{},\
             \"duplicates_removed\":{},\"distinct_nodes\":{},\"edges\":{},\
             \"components\":{},\"largest_cc_applied\":{},\"lcc_nodes_dropped\":{},\
             \"lcc_edges_dropped\":{},\"identity_ids\":{}}}}}",
            c.raw_records,
            c.self_loops_removed,
            c.duplicates_removed,
            c.distinct_nodes,
            c.edges,
            c.components,
            c.largest_cc_applied,
            c.lcc_nodes_dropped,
            c.lcc_edges_dropped,
            c.identity_ids,
        );
        out
    }
}

/// Minimal JSON string encoder (source names can hold anything a path
/// can).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One line of a generated source, and what it must contribute.
    enum Expect {
        /// A comment or blank line.
        Comment,
        /// An accepted record's endpoint pairs, in the orientation written.
        Record(Vec<(u32, u32)>),
        /// A malformed record, tallied by the given skip counter.
        Skip(fn(&mut SkipCounters) -> &mut u64),
    }

    /// Renders one drawn line of an edge-list or AS-links source: `kind`
    /// picks its shape, and `a`, `b`, `c` index the cleanup tests' pool
    /// of AS numbers, which is small enough that links repeat, in both
    /// orientations, within and across sources.
    fn render_line(as_links: bool, kind: u8, (a, b, c): (usize, usize, usize)) -> (String, Expect) {
        use crate::cleanup::tests::POOL;
        let (x, y, z) = (POOL[a], POOL[b], POOL[c]);
        match (as_links, kind) {
            (false, 0..=2) => (format!("{x} {y}"), Expect::Record(vec![(x, y)])),
            (true, 0..=2) => (format!("D\t{x}\t{y}"), Expect::Record(vec![(x, y)])),
            (false, 3) => (format!("{x}\t{x}"), Expect::Record(vec![(x, x)])),
            (true, 3) => (format!("I {x} {x} 2"), Expect::Record(vec![(x, x)])),
            (false, 4) => (format!("{x} {y} {z}"), Expect::Skip(|s| &mut s.field_count)),
            (true, 4) => (
                format!("M\t{x}_{y}\t{z}"),
                Expect::Record(vec![(x, z), (y, z)]),
            ),
            (false, 5) => (format!("{x}"), Expect::Skip(|s| &mut s.field_count)),
            (true, 5) => (
                format!("T {x} {y},{z},{x}"),
                Expect::Record(vec![(x, y), (x, z), (x, x)]),
            ),
            (false, 6) => (format!("{x} AS{y}"), Expect::Skip(|s| &mut s.bad_as_number)),
            (true, 6) => (
                format!("D\t{x}_\t{y}"),
                Expect::Skip(|s| &mut s.bad_as_number),
            ),
            (false, 7) => (
                format!("{x} 9{y}0000000000"),
                Expect::Skip(|s| &mut s.bad_as_number),
            ),
            (true, 7) => (format!("X {x} {y}"), Expect::Skip(|s| &mut s.unknown_tag)),
            (false, 8) => (
                format!("{x} {y} # {z}"),
                Expect::Skip(|s| &mut s.field_count),
            ),
            (true, 8) => (format!("M ,_ {y}"), Expect::Skip(|s| &mut s.empty_as_set)),
            (_, 9) => (format!("# {x}"), Expect::Comment),
            _ => (" \t".to_owned(), Expect::Comment),
        }
    }

    /// What the merge must produce, computed the way cleanup did before
    /// links were deduplicated on accept: every accepted pair in a
    /// vector, self-loops out and orientation normalised, sorted and
    /// deduplicated. The distinct links then go through the cleanup
    /// tests' plain reference.
    fn merge_reference(
        mut pairs: Vec<(u32, u32)>,
        largest_cc: bool,
    ) -> (CleanupCounters, Vec<u32>, Vec<(u32, u32)>) {
        let raw = pairs.len() as u64;
        pairs.retain_mut(|(u, v)| {
            (*u, *v) = ((*u).min(*v), (*u).max(*v));
            u != v
        });
        let self_loops = raw - pairs.len() as u64;
        pairs.sort_unstable();
        pairs.dedup();
        let (mut counters, ids, edges) = cleanup::tests::reference(&pairs, largest_cc);
        counters.raw_records = raw;
        counters.self_loops_removed = self_loops;
        counters.duplicates_removed = raw - self_loops - pairs.len() as u64;
        (counters, ids, edges)
    }

    proptest! {
        /// A lenient multi-source merge, deduplicated as lines are
        /// accepted, equals the reference over the accepted pairs: graph,
        /// id table, every cleanup counter and every source report. The
        /// edge-record cap is sometimes set to trip inside a source;
        /// that source then fails at the line whose pairs overrun it,
        /// and only the lines before it stay in the merge.
        #[test]
        fn merge_matches_reference(
            sources in prop::collection::vec(
                (
                    0u8..2,
                    prop::collection::vec((0u8..11, (0usize..12, 0usize..12, 0usize..12)), 0..24),
                ),
                1..5,
            ),
            settings in (0u64..4, 0u8..2),
        ) {
            let (cap_quarters, largest_cc) = settings;
            let sources: Vec<(Format, String, Vec<Expect>)> = sources
                .iter()
                .map(|(as_links, draws)| {
                    let as_links = *as_links == 1;
                    let mut text = String::new();
                    let mut expects = Vec::new();
                    for &(kind, abc) in draws {
                        let (line, expect) = render_line(as_links, kind, abc);
                        text.push_str(&line);
                        text.push('\n');
                        expects.push(expect);
                    }
                    let format = if as_links { Format::AsLinks } else { Format::EdgeList };
                    (format, text, expects)
                })
                .collect();
            let emitted: u64 = sources
                .iter()
                .flat_map(|(_, _, expects)| expects)
                .map(|e| match e {
                    Expect::Record(pairs) => pairs.len() as u64,
                    _ => 0,
                })
                .sum();
            let limits = Limits {
                max_edge_records: match cap_quarters {
                    0 => Limits::default().max_edge_records,
                    q => emitted * q / 4,
                },
                ..Limits::default()
            };
            let mut ing = Ingestor::new(IngestOptions {
                lenient: true,
                largest_cc: largest_cc == 1,
                limits,
                ..IngestOptions::default()
            });
            let mut records_left = limits.max_edge_records;
            let mut accepted = Vec::new();
            let mut reports = Vec::new();
            for (i, (format, text, expects)) in sources.iter().enumerate() {
                let mut report = SourceReport {
                    name: format!("s{i}"),
                    format: *format,
                    lines: expects.len() as u64,
                    bytes: text.len() as u64,
                    comment_lines: 0,
                    header_skipped: false,
                    records: 0,
                    edges_emitted: 0,
                    skipped: SkipCounters::default(),
                };
                let mut capped_at = None;
                for (line, expect) in expects.iter().enumerate() {
                    match expect {
                        Expect::Comment => report.comment_lines += 1,
                        Expect::Skip(counter) => *counter(&mut report.skipped) += 1,
                        Expect::Record(pairs) if pairs.len() as u64 > records_left => {
                            capped_at = Some(line as u64 + 1);
                            break;
                        }
                        Expect::Record(pairs) => {
                            records_left -= pairs.len() as u64;
                            report.records += 1;
                            report.edges_emitted += pairs.len() as u64;
                            accepted.extend_from_slice(pairs);
                        }
                    }
                }
                let got = ing.ingest_reader(&report.name, *format, text.as_bytes());
                match (got, capped_at) {
                    (Ok(_), None) => reports.push(report),
                    (Err(IngestFailure::Parse(e)), Some(line)) => {
                        prop_assert_eq!(e.line(), line, "{}", e);
                        prop_assert!(
                            matches!(
                                e.kind(),
                                IngestErrorKind::CapExceeded { cap: CapKind::EdgeRecords, .. }
                            ),
                            "{}",
                            e
                        );
                    }
                    (got, _) => {
                        return Err(TestCaseError::fail(format!(
                            "source {i}: got {:?}, expected the cap at line {capped_at:?}",
                            got.map(|r| r.records)
                        )));
                    }
                }
            }
            let out = ing.finish().expect("the merge finishes");
            let (counters, ids, edges) = merge_reference(accepted, largest_cc == 1);
            prop_assert_eq!(out.report.cleanup, counters);
            prop_assert_eq!(&out.external_ids, &ids);
            prop_assert_eq!(out.graph.edges().collect::<Vec<_>>(), edges);
            prop_assert_eq!(out.graph.node_count(), ids.len());
            prop_assert_eq!(&out.report.sources, &reports);
        }
    }

    #[test]
    fn multi_source_merge() {
        let mut ing = Ingestor::new(IngestOptions::default());
        ing.ingest_reader("a", Format::EdgeList, &b"1 2\n2 3\n"[..])
            .unwrap();
        ing.ingest_reader("b", Format::AsLinks, &b"D\t2\t3\nD\t3\t1\n"[..])
            .unwrap();
        let out = ing.finish().unwrap();
        assert_eq!(out.graph.node_count(), 3);
        assert_eq!(out.graph.edge_count(), 3);
        assert_eq!(out.report.sources.len(), 2);
        assert_eq!(out.report.cleanup.duplicates_removed, 1);
        assert_eq!(out.external_ids, vec![1, 2, 3]);
    }

    #[test]
    fn cancel_token_interrupts() {
        let token = CancelToken::new();
        token.cancel();
        let mut ing = Ingestor::new(IngestOptions {
            cancel: Some(token),
            ..IngestOptions::default()
        });
        // Enough lines to reach a poll point.
        let data = "1 2\n".repeat(5000);
        let err = ing
            .ingest_reader("big", Format::EdgeList, data.as_bytes())
            .unwrap_err();
        assert!(matches!(err, IngestFailure::Interrupted));
    }

    #[test]
    fn report_renders_and_serialises() {
        let mut ing = Ingestor::new(IngestOptions {
            lenient: true,
            ..IngestOptions::default()
        });
        ing.ingest_reader("src \"x\"", Format::EdgeList, &b"1 2\nbad\n"[..])
            .unwrap();
        let out = ing.finish().unwrap();
        let human = out.report.render_human();
        assert!(human.contains("1 skipped"), "{human}");
        assert!(human.contains("bad field count"), "{human}");
        let json = out.report.to_json();
        assert!(json.contains("\"field_count\":1"), "{json}");
        assert!(json.contains("\"src \\\"x\\\"\""), "{json}");
        assert!(json.contains("\"raw_records\":1"), "{json}");
    }
}
