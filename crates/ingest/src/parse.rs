//! Per-format record parsing over the bounded line reader.
//!
//! One function, [`parse_source`], drives all three formats. It never
//! panics on any byte sequence, never allocates proportionally to a
//! single hostile token (excerpts are truncated, AS sets are capped),
//! and reports every rejection with a line and column. In lenient mode
//! record-level errors are skipped and tallied in [`SkipCounters`];
//! resource-cap errors abort either way.

use crate::cleanup::Links;
use crate::error::{BadAsReason, CapKind, IngestError, IngestErrorKind, IngestFailure};
use crate::format::Format;
use crate::limits::Limits;
use crate::line::{LineError, LineOutcome, LineReader};
use exec::CancelToken;
use std::io::BufRead;

/// How often (in lines) the cancel token is polled.
const CANCEL_POLL_LINES: u64 = 4096;

/// Lenient-mode skip tallies, by rejection reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipCounters {
    /// Lines with the wrong field count.
    pub field_count: u64,
    /// Lines with an unparsable or out-of-range AS number.
    pub bad_as_number: u64,
    /// Lines over the per-line byte cap.
    pub line_too_long: u64,
    /// AS-links lines with an unknown record tag.
    pub unknown_tag: u64,
    /// AS-links lines whose multi-origin set exceeded the cap.
    pub as_set_too_large: u64,
    /// AS-links lines with an empty AS set.
    pub empty_as_set: u64,
}

impl SkipCounters {
    /// Total skipped records.
    pub fn total(&self) -> u64 {
        self.field_count
            + self.bad_as_number
            + self.line_too_long
            + self.unknown_tag
            + self.as_set_too_large
            + self.empty_as_set
    }

    fn bump(&mut self, kind: &IngestErrorKind) {
        match kind {
            IngestErrorKind::FieldCount { .. } => self.field_count += 1,
            IngestErrorKind::BadAsNumber { .. } => self.bad_as_number += 1,
            IngestErrorKind::LineTooLong { .. } => self.line_too_long += 1,
            IngestErrorKind::UnknownTag { .. } => self.unknown_tag += 1,
            IngestErrorKind::AsSetTooLarge { .. } => self.as_set_too_large += 1,
            IngestErrorKind::EmptyAsSet => self.empty_as_set += 1,
            IngestErrorKind::CapExceeded { .. } => unreachable!("caps are never skipped"),
        }
    }
}

/// Per-source parse outcome: what was read, kept, and (leniently)
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceReport {
    /// Source label (usually the file name).
    pub name: String,
    /// The format this source was parsed as.
    pub format: Format,
    /// Lines read, including comments and blanks.
    pub lines: u64,
    /// Bytes read.
    pub bytes: u64,
    /// Comment and blank lines.
    pub comment_lines: u64,
    /// Whether a DIMES-style header row was skipped.
    pub header_skipped: bool,
    /// Record lines accepted.
    pub records: u64,
    /// Endpoint pairs emitted (≥ `records` when multi-origin sets
    /// expand).
    pub edges_emitted: u64,
    /// Lenient-mode skips, by reason (all zero in strict mode).
    pub skipped: SkipCounters,
}

impl SourceReport {
    fn new(name: &str, format: Format) -> Self {
        SourceReport {
            name: name.to_owned(),
            format,
            lines: 0,
            bytes: 0,
            comment_lines: 0,
            header_skipped: false,
            records: 0,
            edges_emitted: 0,
            skipped: SkipCounters::default(),
        }
    }
}

/// Shared mutable budgets for one run (all sources together).
pub(crate) struct RunBudget {
    pub(crate) bytes_left: u64,
    pub(crate) lines_left: u64,
    pub(crate) records_left: u64,
}

impl RunBudget {
    pub(crate) fn new(limits: &Limits) -> Self {
        RunBudget {
            bytes_left: limits.max_bytes,
            lines_left: limits.max_lines,
            records_left: limits.max_edge_records,
        }
    }
}

/// Parses one source, handing every endpoint pair of each accepted line
/// to `links`. Returns the per-source report.
#[allow(clippy::too_many_arguments)]
pub(crate) fn parse_source<R: BufRead>(
    reader: R,
    name: &str,
    format: Format,
    limits: &Limits,
    lenient: bool,
    cancel: Option<&CancelToken>,
    budget: &mut RunBudget,
    links: &mut Links,
) -> Result<SourceReport, IngestFailure> {
    let mut report = SourceReport::new(name, format);
    // The two AS-links member sets, reused line to line; each holds at
    // most `max_moas_set` members.
    let mut sets = (Vec::new(), Vec::new());
    // The current line's endpoint pairs, as the source wrote them: at
    // most `max_moas_set²`. They reach `links` only once the whole line
    // is accepted.
    let mut staged = Vec::new();
    let mut lines = LineReader::new(
        reader,
        limits.max_line_bytes,
        budget.bytes_left,
        limits.max_bytes,
        budget.lines_left,
        limits.max_lines,
    );
    // DIMES header grace: only the very first record-candidate line.
    let mut first_record_line = true;
    let fail = |e: LineError, line: u64| match e {
        LineError::Io(error) => IngestFailure::Io {
            source: name.to_owned(),
            error,
        },
        LineError::Cap(cap, limit) => IngestFailure::Parse(IngestError::new(
            name,
            line,
            None,
            IngestErrorKind::CapExceeded { cap, limit },
        )),
    };
    loop {
        let outcome = match lines.next_line() {
            Ok(o) => o,
            Err(e) => {
                let at = lines.line_no();
                settle(budget, &lines, &mut report);
                return Err(fail(e, at.max(1)));
            }
        };
        if lines.line_no().is_multiple_of(CANCEL_POLL_LINES) {
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    settle(budget, &lines, &mut report);
                    return Err(IngestFailure::Interrupted);
                }
            }
        }
        match outcome {
            LineOutcome::Eof => break,
            LineOutcome::TooLong => {
                let err = IngestError::new(
                    name,
                    lines.line_no(),
                    None,
                    IngestErrorKind::LineTooLong {
                        limit: limits.max_line_bytes,
                    },
                );
                if lenient {
                    report.skipped.bump(err.kind());
                    if let Err(e) = lines.discard_line() {
                        let at = lines.line_no();
                        settle(budget, &lines, &mut report);
                        return Err(fail(e, at));
                    }
                    // An over-long first line forfeits the header grace:
                    // it was a record candidate.
                    first_record_line = false;
                    continue;
                }
                settle(budget, &lines, &mut report);
                return Err(err.into());
            }
            LineOutcome::Line => {}
        }
        let line = lines.line();
        let trimmed = trim(line);
        if trimmed.is_empty() || trimmed[0] == b'#' {
            report.comment_lines += 1;
            continue;
        }
        let line_no = lines.line_no();
        let result = parse_record(
            line,
            format,
            name,
            line_no,
            limits,
            budget,
            &mut staged,
            &mut sets,
        );
        match result {
            Ok(()) => {
                report.records += 1;
                report.edges_emitted += staged.len() as u64;
                for (u, v) in staged.drain(..) {
                    links.accept(u, v);
                }
                first_record_line = false;
            }
            Err(err) => {
                // Drop any pairs the failing line staged before the
                // error: record acceptance is atomic per line, so
                // lenient output is independent of *where* in the line
                // the rot sits.
                budget.records_left += staged.len() as u64;
                staged.clear();
                if !err.kind().is_record_error() {
                    settle(budget, &lines, &mut report);
                    return Err(err.into());
                }
                if format == Format::Dimes && first_record_line {
                    // A DIMES export's first data row is often a column
                    // header; treat exactly one unparsable first row as
                    // one, in both modes.
                    report.header_skipped = true;
                    first_record_line = false;
                    continue;
                }
                first_record_line = false;
                if lenient {
                    report.skipped.bump(err.kind());
                    continue;
                }
                settle(budget, &lines, &mut report);
                return Err(err.into());
            }
        }
    }
    settle(budget, &lines, &mut report);
    Ok(report)
}

fn settle<R: BufRead>(budget: &mut RunBudget, lines: &LineReader<R>, report: &mut SourceReport) {
    budget.bytes_left -= lines.bytes_used();
    budget.lines_left -= lines.lines_used();
    report.bytes = lines.bytes_used();
    report.lines = lines.lines_used();
}

/// Parses one non-comment line, staging its pairs; each is charged to
/// the run's edge-record budget, duplicates included. Errors carry
/// `name` and `line_no`.
#[allow(clippy::too_many_arguments)]
fn parse_record(
    line: &[u8],
    format: Format,
    name: &str,
    line_no: u64,
    limits: &Limits,
    budget: &mut RunBudget,
    staged: &mut Vec<(u32, u32)>,
    (set1, set2): &mut (Vec<u32>, Vec<u32>),
) -> Result<(), IngestError> {
    let mut emit = |u: u32, v: u32| -> Result<(), IngestError> {
        if budget.records_left == 0 {
            return Err(IngestError::new(
                name,
                line_no,
                None,
                IngestErrorKind::CapExceeded {
                    cap: CapKind::EdgeRecords,
                    limit: limits.max_edge_records,
                },
            ));
        }
        budget.records_left -= 1;
        staged.push((u, v));
        Ok(())
    };
    match format {
        Format::EdgeList => {
            let mut fields = SplitWs::new(line);
            let (c1, a) = fields.next().expect("non-blank line has a field");
            let Some((c2, b)) = fields.next() else {
                return Err(field_count(name, line_no, 1, "exactly 2"));
            };
            if fields.next().is_some() {
                return Err(field_count(
                    name,
                    line_no,
                    3 + fields.count_rest(),
                    "exactly 2",
                ));
            }
            let u = parse_as(a, false).map_err(|r| bad_as(name, line_no, c1, a, r))?;
            let v = parse_as(b, false).map_err(|r| bad_as(name, line_no, c2, b, r))?;
            emit(u, v)
        }
        Format::AsLinks => {
            let mut fields = SplitWs::new(line);
            let (ct, tag) = fields.next().expect("non-blank line has a field");
            if !matches!(tag, b"D" | b"I" | b"M" | b"T") {
                return Err(IngestError::new(
                    name,
                    line_no,
                    Some(ct),
                    IngestErrorKind::UnknownTag {
                        tag: crate::error::excerpt(tag),
                    },
                ));
            }
            let Some((c1, f1)) = fields.next() else {
                return Err(field_count(name, line_no, 1, "at least 3"));
            };
            let Some((c2, f2)) = fields.next() else {
                return Err(field_count(name, line_no, 2, "at least 3"));
            };
            // Trailing columns (link counts, monitor lists) are ignored.
            parse_as_set(name, line_no, c1, f1, limits, set1)?;
            parse_as_set(name, line_no, c2, f2, limits, set2)?;
            for &u in set1.iter() {
                for &v in set2.iter() {
                    emit(u, v)?;
                }
            }
            Ok(())
        }
        Format::Dimes => {
            let mut fields = SplitByte::new(line, b',');
            let Some((c1, f1)) = fields.next() else {
                return Err(field_count(name, line_no, 0, "at least 2"));
            };
            let Some((c2, f2)) = fields.next() else {
                return Err(field_count(name, line_no, 1, "at least 2"));
            };
            let f1 = trim(f1);
            let f2 = trim(f2);
            let u = parse_as(f1, true).map_err(|r| bad_as(name, line_no, c1, f1, r))?;
            let v = parse_as(f2, true).map_err(|r| bad_as(name, line_no, c2, f2, r))?;
            emit(u, v)
        }
    }
}

fn field_count(name: &str, line: u64, got: usize, want: &'static str) -> IngestError {
    IngestError::new(name, line, None, IngestErrorKind::FieldCount { got, want })
}

fn bad_as(name: &str, line: u64, column: u32, field: &[u8], reason: BadAsReason) -> IngestError {
    IngestError::new(
        name,
        line,
        Some(column),
        IngestErrorKind::BadAsNumber {
            field: crate::error::excerpt(field),
            reason,
        },
    )
}

/// Parses a multi-origin AS set field (`"7018"`, `"3257_29"`,
/// `"1,2,3"`) into `out`, capped at `limits.max_moas_set` members.
fn parse_as_set(
    name: &str,
    line_no: u64,
    col: u32,
    field: &[u8],
    limits: &Limits,
    out: &mut Vec<u32>,
) -> Result<(), IngestError> {
    out.clear();
    // The common case, one member: a field `parse_as` accepts holds no
    // separator. Any rejection is re-diagnosed below, element by element.
    if limits.max_moas_set > 0 {
        if let Ok(v) = parse_as(field, false) {
            out.push(v);
            return Ok(());
        }
    }
    let is_separator = |b: &u8| *b == b',' || *b == b'_';
    // Decided once per field, not per empty element: rescanning the
    // field for every `,` of a separator-only field is quadratic.
    if field.iter().all(is_separator) {
        return Err(IngestError::new(
            name,
            line_no,
            Some(col),
            IngestErrorKind::EmptyAsSet,
        ));
    }
    let mut start = 0;
    for i in 0..=field.len() {
        if i < field.len() && !is_separator(&field[i]) {
            continue;
        }
        let element = &field[start..i];
        let element_col = col + start as u32;
        if element.is_empty() {
            // `,,`, or a leading or trailing separator, beside a member.
            return Err(bad_as(
                name,
                line_no,
                element_col,
                element,
                BadAsReason::NotANumber,
            ));
        }
        if out.len() == limits.max_moas_set {
            return Err(IngestError::new(
                name,
                line_no,
                Some(col),
                IngestErrorKind::AsSetTooLarge {
                    got: out.len() + 1,
                    limit: limits.max_moas_set,
                },
            ));
        }
        let v =
            parse_as(element, false).map_err(|r| bad_as(name, line_no, element_col, element, r))?;
        out.push(v);
        start = i + 1;
    }
    Ok(())
}

/// Parses one AS number: ASCII digits, optionally `AS`/`as`-prefixed
/// (DIMES exports), value within the 32-bit AS space. Never allocates.
fn parse_as(field: &[u8], allow_prefix: bool) -> Result<u32, BadAsReason> {
    let digits = if allow_prefix && (field.starts_with(b"AS") || field.starts_with(b"as")) {
        &field[2..]
    } else {
        field
    };
    if digits.is_empty() {
        return Err(BadAsReason::NotANumber);
    }
    let mut value: u64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return Err(BadAsReason::NotANumber);
        }
        // `value` is at most `u32::MAX` here, so this cannot overflow.
        value = value * 10 + u64::from(b - b'0');
        if value > u64::from(u32::MAX) {
            return Err(BadAsReason::ExceedsAsSpace);
        }
    }
    Ok(value as u32)
}

fn trim(mut s: &[u8]) -> &[u8] {
    while let [b' ' | b'\t', rest @ ..] = s {
        s = rest;
    }
    while let [rest @ .., b' ' | b'\t'] = s {
        s = rest;
    }
    s
}

/// Whitespace-run field splitter yielding `(1-based column, field)`.
struct SplitWs<'a> {
    line: &'a [u8],
    pos: usize,
}

impl<'a> SplitWs<'a> {
    fn new(line: &'a [u8]) -> Self {
        SplitWs { line, pos: 0 }
    }

    /// Number of fields remaining (consumes the iterator).
    fn count_rest(&mut self) -> usize {
        let mut n = 0;
        while self.next().is_some() {
            n += 1;
        }
        n
    }
}

impl<'a> Iterator for SplitWs<'a> {
    type Item = (u32, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.line.len() && matches!(self.line[self.pos], b' ' | b'\t') {
            self.pos += 1;
        }
        if self.pos >= self.line.len() {
            return None;
        }
        let start = self.pos;
        while self.pos < self.line.len() && !matches!(self.line[self.pos], b' ' | b'\t') {
            self.pos += 1;
        }
        Some((start as u32 + 1, &self.line[start..self.pos]))
    }
}

/// Single-byte separator splitter (CSV) yielding
/// `(1-based column, field)`; consecutive separators yield empty fields.
struct SplitByte<'a> {
    line: &'a [u8],
    sep: u8,
    pos: usize,
    done: bool,
}

impl<'a> SplitByte<'a> {
    fn new(line: &'a [u8], sep: u8) -> Self {
        SplitByte {
            line,
            sep,
            pos: 0,
            done: false,
        }
    }
}

impl<'a> Iterator for SplitByte<'a> {
    type Item = (u32, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let start = self.pos;
        while self.pos < self.line.len() && self.line[self.pos] != self.sep {
            self.pos += 1;
        }
        let field = &self.line[start..self.pos];
        if self.pos < self.line.len() {
            self.pos += 1;
        } else {
            self.done = true;
        }
        Some((start as u32 + 1, field))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `text` as one source; returns its report and the distinct
    /// links it merged, ascending.
    fn run(
        text: &str,
        format: Format,
        lenient: bool,
    ) -> Result<(SourceReport, Vec<(u32, u32)>), IngestFailure> {
        let limits = Limits::default();
        let mut budget = RunBudget::new(&limits);
        let mut links = Links::default();
        let report = parse_source(
            text.as_bytes(),
            "test",
            format,
            &limits,
            lenient,
            None,
            &mut budget,
            &mut links,
        )?;
        Ok((report, links.sorted()))
    }

    #[test]
    fn edge_list_basics() {
        let (r, pairs) = run("# c\n1 2\n\n3\t4\n", Format::EdgeList, false).unwrap();
        assert_eq!(pairs, vec![(1, 2), (3, 4)]);
        assert_eq!(r.records, 2);
        assert_eq!(r.comment_lines, 2);
        assert_eq!(r.lines, 4);
    }

    #[test]
    fn edge_list_field_count_diagnostics() {
        for (text, got) in [("1\n", 1), ("1 2 3\n", 3)] {
            let err = run(text, Format::EdgeList, false).unwrap_err();
            let IngestFailure::Parse(e) = err else {
                panic!("expected parse failure");
            };
            assert_eq!(e.line(), 1);
            assert!(
                matches!(e.kind(), IngestErrorKind::FieldCount { got: g, .. } if *g == got),
                "{e}"
            );
        }
    }

    #[test]
    fn bad_as_number_has_column() {
        let err = run("1 2\n10 x7\n", Format::EdgeList, false).unwrap_err();
        let IngestFailure::Parse(e) = err else {
            panic!("expected parse failure");
        };
        assert_eq!(e.line(), 2);
        assert_eq!(e.column(), Some(4));
        assert!(e.to_string().contains("x7"), "{e}");
    }

    #[test]
    fn as_overflow_is_rejected_with_reason() {
        for huge in [
            "4294967296",
            "18446744073709551616",
            "99999999999999999999999",
        ] {
            let err = run(&format!("1 {huge}\n"), Format::EdgeList, false).unwrap_err();
            let IngestFailure::Parse(e) = err else {
                panic!("expected parse failure");
            };
            assert!(
                matches!(
                    e.kind(),
                    IngestErrorKind::BadAsNumber {
                        reason: BadAsReason::ExceedsAsSpace,
                        ..
                    }
                ),
                "{e}"
            );
        }
        // The largest 32-bit ASN is fine.
        let (_, pairs) = run("1 4294967295\n", Format::EdgeList, false).unwrap();
        assert_eq!(pairs, vec![(1, u32::MAX)]);
    }

    #[test]
    fn lenient_skips_and_counts() {
        let text = "1 2\nbad line here\n3 4\n5 x\n6 7\n";
        let (r, pairs) = run(text, Format::EdgeList, true).unwrap();
        assert_eq!(pairs, vec![(1, 2), (3, 4), (6, 7)]);
        assert_eq!(r.skipped.field_count, 1);
        assert_eq!(r.skipped.bad_as_number, 1);
        assert_eq!(r.skipped.total(), 2);
        assert_eq!(r.records, 3);
    }

    #[test]
    fn aslinks_tags_and_moas() {
        let text = "D\t1\t2\t5\nI 3 4\nM\t5_6\t7\nT 8 9,10\n";
        let (r, pairs) = run(text, Format::AsLinks, false).unwrap();
        assert_eq!(pairs, vec![(1, 2), (3, 4), (5, 7), (6, 7), (8, 9), (8, 10)]);
        assert_eq!(r.records, 4);
        assert_eq!(r.edges_emitted, 6);
    }

    #[test]
    fn aslinks_unknown_tag() {
        let err = run("X 1 2\n", Format::AsLinks, false).unwrap_err();
        let IngestFailure::Parse(e) = err else {
            panic!("expected parse failure");
        };
        assert!(
            matches!(e.kind(), IngestErrorKind::UnknownTag { tag } if tag == "X"),
            "{e}"
        );
        // Lenient mode skips it.
        let (r, pairs) = run("X 1 2\nD 3 4\n", Format::AsLinks, true).unwrap();
        assert_eq!(pairs, vec![(3, 4)]);
        assert_eq!(r.skipped.unknown_tag, 1);
    }

    #[test]
    fn aslinks_set_cap_and_empty_set() {
        let limits = Limits {
            max_moas_set: 3,
            ..Limits::default()
        };
        let mut budget = RunBudget::new(&limits);
        let mut links = Links::default();
        let err = parse_source(
            &b"D 1,2,3,4 9\n"[..],
            "t",
            Format::AsLinks,
            &limits,
            false,
            None,
            &mut budget,
            &mut links,
        )
        .unwrap_err();
        let IngestFailure::Parse(e) = err else {
            panic!("expected parse failure");
        };
        assert!(
            matches!(e.kind(), IngestErrorKind::AsSetTooLarge { limit: 3, .. }),
            "{e}"
        );

        let err = run("D _ 9\n", Format::AsLinks, false).unwrap_err();
        let IngestFailure::Parse(e) = err else {
            panic!("expected parse failure");
        };
        assert!(matches!(e.kind(), IngestErrorKind::EmptyAsSet), "{e}");
    }

    #[test]
    fn failing_line_emits_nothing() {
        // Both AS sets are parsed before the cross product, so the M
        // record fails on "x" having emitted nothing. Whatever a failing
        // line did stage never reaches the merge, so lenient acceptance
        // is per-line atomic.
        let (_, pairs) = run("M\t1\t3,x\nD 7 8\n", Format::AsLinks, true).unwrap();
        assert_eq!(pairs, vec![(7, 8)]);
    }

    #[test]
    fn separator_only_sets_cost_linear_time() {
        // Whether a field holds only separators is decided once per
        // field; deciding it per empty element made each of these lines
        // cost seconds.
        let line = format!("D\t{}\t1\n", ",".repeat(60_000));
        let text = line.repeat(16);
        let started = std::time::Instant::now();
        let (r, pairs) = run(&text, Format::AsLinks, true).unwrap();
        assert_eq!(r.skipped.empty_as_set, 16);
        assert!(pairs.is_empty());
        let err = run(&text, Format::AsLinks, false).unwrap_err();
        let IngestFailure::Parse(e) = err else {
            panic!("expected parse failure");
        };
        assert_eq!(e.line(), 1);
        assert_eq!(e.column(), Some(3));
        assert!(matches!(e.kind(), IngestErrorKind::EmptyAsSet), "{e}");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn dimes_csv_with_header_and_prefixes() {
        let text = "Source,Target,Weight\nAS1,AS2,0.5\n3, 4 ,x\n";
        let (r, pairs) = run(text, Format::Dimes, false).unwrap();
        assert!(r.header_skipped);
        assert_eq!(pairs, vec![(1, 2), (3, 4)]);
        // Header grace applies once: a second word row is an error.
        let err = run("a,b\nc,d\n", Format::Dimes, false).unwrap_err();
        assert!(matches!(err, IngestFailure::Parse(e) if e.line() == 2));
    }

    #[test]
    fn crlf_and_whitespace_chaos() {
        let text = "\u{feff}1 2\r\n  3\t\t4  \r\n\r\n# c\r\n5 6";
        let (r, pairs) = run(text, Format::EdgeList, false).unwrap();
        assert_eq!(pairs, vec![(1, 2), (3, 4), (5, 6)]);
        assert_eq!(r.records, 3);
    }

    #[test]
    fn record_cap_aborts_even_lenient() {
        let limits = Limits {
            max_edge_records: 2,
            ..Limits::default()
        };
        // The cap counts records, duplicates included, not distinct links.
        for text in ["1 2\n3 4\n5 6\n", "1 2\n1 2\n1 2\n"] {
            let mut budget = RunBudget::new(&limits);
            let mut links = Links::default();
            let err = parse_source(
                text.as_bytes(),
                "t",
                Format::EdgeList,
                &limits,
                true,
                None,
                &mut budget,
                &mut links,
            )
            .unwrap_err();
            let IngestFailure::Parse(e) = err else {
                panic!("expected parse failure");
            };
            assert!(
                matches!(
                    e.kind(),
                    IngestErrorKind::CapExceeded {
                        cap: CapKind::EdgeRecords,
                        limit: 2,
                    }
                ),
                "{text:?}: {e}"
            );
            assert_eq!(e.line(), 3, "{text:?}");
        }
    }

    #[test]
    fn budgets_span_sources() {
        let limits = Limits {
            max_lines: 3,
            ..Limits::default()
        };
        let mut budget = RunBudget::new(&limits);
        let mut links = Links::default();
        parse_source(
            &b"1 2\n3 4\n"[..],
            "a",
            Format::EdgeList,
            &limits,
            false,
            None,
            &mut budget,
            &mut links,
        )
        .unwrap();
        let err = parse_source(
            &b"5 6\n7 8\n"[..],
            "b",
            Format::EdgeList,
            &limits,
            false,
            None,
            &mut budget,
            &mut links,
        )
        .unwrap_err();
        let IngestFailure::Parse(e) = err else {
            panic!("expected parse failure");
        };
        assert_eq!(e.source_name(), "b");
        assert!(
            matches!(
                e.kind(),
                IngestErrorKind::CapExceeded {
                    cap: CapKind::Lines,
                    ..
                }
            ),
            "{e}"
        );
    }
}
