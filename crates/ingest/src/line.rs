//! Bounded, streaming line reading.
//!
//! The same discipline as the clique-log v2 decoder: every read is
//! bounded *before* it happens. The line buffer never grows past the
//! per-line cap (plus two bytes of CRLF slack needed to tell "exactly
//! at the cap" from "over it"), and the shared byte/line budgets are
//! charged as bytes are consumed — a multi-terabyte stream of garbage
//! is rejected after `max_bytes`, not buffered.

use crate::error::CapKind;
use std::io::{self, BufRead};

/// What [`LineReader::next_line`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineOutcome {
    /// End of the source; the buffer is empty.
    Eof,
    /// A complete line is in the buffer (newline and `\r` stripped).
    Line,
    /// The current line exceeds the per-line cap. The buffer holds the
    /// bounded prefix; any unconsumed remainder of the line is skipped
    /// by [`LineReader::discard_line`], which a lenient caller must
    /// invoke before the next [`LineReader::next_line`] (it is a no-op
    /// when the line's newline already fell inside the bounded window).
    TooLong,
}

/// Why reading stopped short of a line.
#[derive(Debug)]
pub(crate) enum LineError {
    /// Transport failure.
    Io(io::Error),
    /// A shared budget ran dry: `(which, limit)`.
    Cap(CapKind, u64),
}

pub(crate) struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    line_no: u64,
    bytes_left: u64,
    bytes_limit: u64,
    lines_left: u64,
    lines_limit: u64,
    max_line: usize,
    bytes_consumed: u64,
    /// Set once the (possible) UTF-8 BOM has been handled.
    started: bool,
    /// True when the current line's terminator (newline or EOF) has
    /// already been consumed. An over-long line whose newline fell
    /// inside the bounded copy window is fully consumed despite the
    /// `TooLong` outcome; [`LineReader::discard_line`] must then be a
    /// no-op or it would swallow the *next* line.
    terminated: bool,
}

impl<R: BufRead> LineReader<R> {
    /// Wraps `inner`, drawing on the *remaining* shared budgets
    /// `bytes_left`/`lines_left` (the caller settles totals afterwards
    /// via [`LineReader::bytes_used`] / [`LineReader::lines_used`]).
    /// `bytes_limit`/`lines_limit` are only quoted in diagnostics.
    pub(crate) fn new(
        inner: R,
        max_line: usize,
        bytes_left: u64,
        bytes_limit: u64,
        lines_left: u64,
        lines_limit: u64,
    ) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            line_no: 0,
            bytes_left,
            bytes_limit,
            lines_left,
            lines_limit,
            max_line,
            bytes_consumed: 0,
            started: false,
            terminated: true,
        }
    }

    /// The current line's content (valid after `Line` or `TooLong`).
    pub(crate) fn line(&self) -> &[u8] {
        &self.buf
    }

    /// 1-based number of the current line.
    pub(crate) fn line_no(&self) -> u64 {
        self.line_no
    }

    /// Bytes consumed so far.
    pub(crate) fn bytes_used(&self) -> u64 {
        self.bytes_consumed
    }

    /// Lines consumed so far.
    pub(crate) fn lines_used(&self) -> u64 {
        self.line_no
    }

    fn charge_bytes(&mut self, n: u64) -> Result<(), LineError> {
        if n > self.bytes_left {
            return Err(LineError::Cap(CapKind::Bytes, self.bytes_limit));
        }
        self.bytes_left -= n;
        self.bytes_consumed += n;
        Ok(())
    }

    /// Reads the next line into the internal buffer.
    pub(crate) fn next_line(&mut self) -> Result<LineOutcome, LineError> {
        self.buf.clear();
        if !self.started {
            self.started = true;
            self.skip_bom()?;
        }
        let mut on_line = false;
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(LineError::Io(e)),
            };
            if chunk.is_empty() {
                // EOF: a buffered partial line is the (newline-less)
                // final line.
                if !on_line {
                    return Ok(LineOutcome::Eof);
                }
                self.terminated = true;
                self.strip_cr();
                return Ok(self.classify());
            }
            if !on_line {
                if self.lines_left == 0 {
                    return Err(LineError::Cap(CapKind::Lines, self.lines_limit));
                }
                self.lines_left -= 1;
                self.line_no += 1;
                on_line = true;
            }
            // Room for the cap plus CRLF slack: only once the buffer
            // holds max_line + 2 bytes can no suffix make it legal.
            let room = (self.max_line + 2).saturating_sub(self.buf.len());
            let take = chunk.len().min(room.max(1));
            // Copy first, charge second: the chunk borrow must end
            // before `charge_bytes` re-borrows `self`. The copy is
            // bounded by `room` either way, and a failed charge aborts
            // the run before anything is consumed.
            match find_newline(&chunk[..take]) {
                Some(nl) => {
                    self.buf.extend_from_slice(&chunk[..nl]);
                    self.charge_bytes(nl as u64 + 1)?;
                    self.inner.consume(nl + 1);
                    self.terminated = true;
                    self.strip_cr();
                    return Ok(self.classify());
                }
                None => {
                    self.buf.extend_from_slice(&chunk[..take]);
                    self.charge_bytes(take as u64)?;
                    self.inner.consume(take);
                    if self.buf.len() > self.max_line + 1 {
                        self.terminated = false;
                        return Ok(LineOutcome::TooLong);
                    }
                }
            }
        }
    }

    /// Consumes (and charges) the unconsumed remainder of an over-long
    /// line, through its newline or EOF — the lenient skip path. A
    /// no-op when the line's terminator was already consumed (its
    /// newline fell inside the bounded copy window), so a following
    /// valid record is never swallowed.
    pub(crate) fn discard_line(&mut self) -> Result<(), LineError> {
        if self.terminated {
            return Ok(());
        }
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(LineError::Io(e)),
            };
            if chunk.is_empty() {
                self.terminated = true;
                return Ok(());
            }
            match find_newline(chunk) {
                Some(nl) => {
                    self.charge_bytes(nl as u64 + 1)?;
                    self.inner.consume(nl + 1);
                    self.terminated = true;
                    return Ok(());
                }
                None => {
                    let n = chunk.len();
                    self.charge_bytes(n as u64)?;
                    self.inner.consume(n);
                }
            }
        }
    }

    fn skip_bom(&mut self) -> Result<(), LineError> {
        let chunk = match self.inner.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(LineError::Io(e)),
        };
        if chunk.starts_with(b"\xEF\xBB\xBF") {
            self.charge_bytes(3)?;
            self.inner.consume(3);
        }
        Ok(())
    }

    fn strip_cr(&mut self) {
        if self.buf.last() == Some(&b'\r') {
            self.buf.pop();
        }
    }

    fn classify(&self) -> LineOutcome {
        if self.buf.len() > self.max_line {
            LineOutcome::TooLong
        } else {
            LineOutcome::Line
        }
    }
}

/// Index of the first `\n` in `bytes`, tested a 64-bit word at a time.
///
/// Each word is XORed with eight newlines, which turns newline bytes
/// into zero bytes, and the classic zero-byte test
/// `(w - 0x01..01) & !w & 0x80..80` flags them. A borrow out of a true
/// zero byte can also flag the byte *above* it (a `0x0B` right after a
/// newline, say), but never one below, so the lowest flagged byte of a
/// little-endian load is always the first newline.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ NEWLINES;
        let hits = w.wrapping_sub(ONES) & !w & HIGHS;
        if hits != 0 {
            return Some(base + hits.trailing_zeros() as usize / 8);
        }
        base += 8;
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == b'\n').map(|i| base + i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    /// Bytes that sit where the word-at-a-time test can go wrong: the
    /// newline itself, `0x0B` (the XOR makes it `0x01`, which the
    /// borrow out of a newline just below it falsely flags), bytes with
    /// the high bit set, and zero.
    const TRICKY: [u8; 10] = [b'\n', 0x0B, 0x80, 0x8A, 0xFF, 0x00, 0x01, 0x09, b'\r', b'a'];

    /// Maps `(choice, raw)` draws to bytes, two in three from
    /// [`TRICKY`] and the rest arbitrary.
    fn bytes_from(draws: &[(usize, u8)]) -> Vec<u8> {
        draws
            .iter()
            .map(|&(choice, raw)| TRICKY.get(choice).copied().unwrap_or(raw))
            .collect()
    }

    /// One framing step: outcome, buffer, line number, bytes charged.
    type Frame = (LineOutcome, Vec<u8>, u64, u64);

    /// Every frame a reader yields, skipping each over-long line.
    fn frames<R: BufRead>(mut r: LineReader<R>) -> Vec<Frame> {
        let mut out = Vec::new();
        loop {
            let outcome = r.next_line().unwrap();
            out.push((outcome, r.line().to_vec(), r.line_no(), r.bytes_used()));
            match outcome {
                LineOutcome::Eof => return out,
                LineOutcome::TooLong => r.discard_line().unwrap(),
                LineOutcome::Line => {}
            }
        }
    }

    #[test]
    fn newline_finder_edges() {
        assert_eq!(find_newline(b""), None);
        assert_eq!(find_newline(b"\n"), Some(0));
        assert_eq!(find_newline(b"\n\x0B\x0B\x0B\x0B\x0B\x0B\x0B"), Some(0));
        assert_eq!(find_newline(b"\xFF\x80\x8A\x0B\x00\x01\x09\n"), Some(7));
        assert_eq!(find_newline(b"\xFF\x80\x8A\x0B\x00\x01\x09\x0B"), None);
        assert_eq!(find_newline(b"01234567\x0B\x0B\n"), Some(10));
    }

    proptest! {
        /// The word-at-a-time finder agrees with the byte loop at every
        /// alignment.
        #[test]
        fn newline_finder_matches_byte_scan(
            draws in prop::collection::vec((0usize..15, 0u8..=255), 0..160),
        ) {
            let bytes = bytes_from(&draws);
            for start in 0..bytes.len().min(9) {
                let tail = &bytes[start..];
                prop_assert_eq!(find_newline(tail), tail.iter().position(|&b| b == b'\n'));
            }
        }

        /// Lines framed through a tiny `BufReader`, so that lines
        /// straddle refills, are the lines framed through a big one:
        /// same outcomes, contents, numbers and bytes charged.
        #[test]
        fn framing_is_independent_of_refill_size(
            draws in prop::collection::vec((0usize..15, 0u8..=255), 0..120),
            max_line in 1usize..24,
        ) {
            let data = bytes_from(&draws);
            let framed = |capacity: usize| {
                let inner = BufReader::with_capacity(capacity, &data[..]);
                frames(LineReader::new(inner, max_line, 1 << 20, 1 << 20, 1 << 20, 1 << 20))
            };
            let reference = framed(8192);
            for capacity in 1..=17 {
                prop_assert_eq!(&framed(capacity), &reference);
            }
        }
    }

    fn reader(data: &[u8], max_line: usize) -> LineReader<&[u8]> {
        LineReader::new(data, max_line, 1 << 20, 1 << 20, 1 << 20, 1 << 20)
    }

    fn lines(data: &[u8]) -> Vec<Vec<u8>> {
        let mut r = reader(data, 64);
        let mut out = Vec::new();
        loop {
            match r.next_line().unwrap() {
                LineOutcome::Eof => return out,
                LineOutcome::Line => out.push(r.line().to_vec()),
                LineOutcome::TooLong => panic!("unexpected TooLong"),
            }
        }
    }

    #[test]
    fn lf_crlf_and_final_line() {
        assert_eq!(
            lines(b"a\nb\r\nc"),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
        );
        assert_eq!(lines(b""), Vec::<Vec<u8>>::new());
        assert_eq!(lines(b"\n\n"), vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn bom_is_stripped_once() {
        assert_eq!(lines(b"\xEF\xBB\xBF1 2\n"), vec![b"1 2".to_vec()]);
        // A BOM mid-file is content, not a BOM.
        assert_eq!(
            lines(b"x\n\xEF\xBB\xBFy\n"),
            vec![b"x".to_vec(), b"\xEF\xBB\xBFy".to_vec()]
        );
    }

    #[test]
    fn exact_cap_lines_pass_with_both_endings() {
        for ending in [&b"\n"[..], b"\r\n"] {
            let mut data = vec![b'a'; 8];
            data.extend_from_slice(ending);
            let mut r = reader(&data, 8);
            assert!(matches!(r.next_line().unwrap(), LineOutcome::Line));
            assert_eq!(r.line().len(), 8);
        }
    }

    #[test]
    fn overlong_line_is_flagged_and_skippable() {
        let mut data = vec![b'a'; 100];
        data.extend_from_slice(b"\nok\n");
        let mut r = reader(&data, 8);
        assert!(matches!(r.next_line().unwrap(), LineOutcome::TooLong));
        assert!(r.line().len() <= 10, "buffer stays bounded");
        assert_eq!(r.line_no(), 1);
        r.discard_line().unwrap();
        assert!(matches!(r.next_line().unwrap(), LineOutcome::Line));
        assert_eq!(r.line(), b"ok");
        assert_eq!(r.line_no(), 2);
    }

    #[test]
    fn barely_overlong_line_does_not_swallow_the_next_record() {
        // One byte over the cap: the newline lands inside the bounded
        // copy window, so next_line consumes it before returning
        // TooLong. The lenient skip (discard_line) must then be a
        // no-op, not eat through the NEXT newline.
        for ending in [&b"\n"[..], b"\r\n"] {
            let mut data = vec![b'a'; 9];
            data.extend_from_slice(ending);
            data.extend_from_slice(b"3 4");
            data.extend_from_slice(ending);
            data.extend_from_slice(b"5 6");
            data.extend_from_slice(ending);
            let mut r = reader(&data, 8);
            assert!(matches!(r.next_line().unwrap(), LineOutcome::TooLong));
            assert_eq!(r.line_no(), 1);
            r.discard_line().unwrap();
            assert!(matches!(r.next_line().unwrap(), LineOutcome::Line));
            assert_eq!(r.line(), b"3 4");
            assert_eq!(r.line_no(), 2);
            assert!(matches!(r.next_line().unwrap(), LineOutcome::Line));
            assert_eq!(r.line(), b"5 6");
            assert_eq!(r.line_no(), 3);
            assert!(matches!(r.next_line().unwrap(), LineOutcome::Eof));
        }
    }

    #[test]
    fn overlong_final_line_without_newline_is_skippable() {
        let data = vec![b'a'; 100];
        let mut r = reader(&data, 8);
        assert!(matches!(r.next_line().unwrap(), LineOutcome::TooLong));
        r.discard_line().unwrap();
        assert!(matches!(r.next_line().unwrap(), LineOutcome::Eof));
    }

    #[test]
    fn byte_budget_trips() {
        let mut r = LineReader::new(&b"0123456789\n"[..], 64, 5, 5, 100, 100);
        match r.next_line() {
            Err(LineError::Cap(CapKind::Bytes, 5)) => {}
            other => panic!("expected byte-cap error, got {other:?}"),
        }
    }

    #[test]
    fn line_budget_trips() {
        let mut r = LineReader::new(&b"a\nb\nc\n"[..], 64, 100, 100, 2, 2);
        assert!(matches!(r.next_line().unwrap(), LineOutcome::Line));
        assert!(matches!(r.next_line().unwrap(), LineOutcome::Line));
        match r.next_line() {
            Err(LineError::Cap(CapKind::Lines, 2)) => {}
            other => panic!("expected line-cap error, got {other:?}"),
        }
    }
}
