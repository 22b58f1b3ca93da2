//! Fault injection for the clique log's I/O paths.
//!
//! The durability claims of the v2 log (every sealed segment survives a
//! writer crash; recovery salvages exactly the intact prefix) are only
//! worth something if they are *tested under faults*, not inspected.
//! This module provides the injectable wrappers those tests use:
//!
//! - [`FaultyWriter`] — a `Write` sink that dies after a byte budget
//!   (simulating `kill -9` mid-segment), truncates writes short (so
//!   `write_all` retry loops are exercised), and/or storms
//!   [`io::ErrorKind::Interrupted`] (which `write_all` must absorb);
//! - [`FaultyReader`] — a `Read` source that flips a bit at a chosen
//!   offset (simulating silent media corruption on the read path).
//!
//! A killed [`FaultyWriter`] keeps every byte accepted before the
//! fault: [`FaultyWriter::into_bytes`] is the torn file image a crashed
//! process would have left on disk, ready to be handed to
//! [`CliqueLogReader::recover`](crate::CliqueLogReader::recover).

use crate::log::LogSink;
use std::io::{self, Read, Write};

/// What faults a [`FaultyWriter`] injects.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Accept at most this many bytes, then fail every further write
    /// and flush — the "process killed mid-write" simulation. `None`
    /// never dies.
    pub fail_after_bytes: Option<u64>,
    /// Accept only half of each write call (min 1 byte), forcing
    /// callers through their `write_all` retry loops.
    pub short_writes: bool,
    /// Return `ErrorKind::Interrupted` from every Nth write call
    /// (before writing anything). `write_all` must retry these; a
    /// caller that treats them as fatal loses durable work spuriously.
    pub interrupted_every: Option<u64>,
}

impl FaultPlan {
    /// A plan that only kills the sink after `n` bytes.
    pub fn kill_after(n: u64) -> Self {
        FaultPlan {
            fail_after_bytes: Some(n),
            ..FaultPlan::default()
        }
    }
}

/// A `Write`/[`LogSink`] wrapper executing a [`FaultPlan`] over an
/// in-memory buffer.
#[derive(Debug, Default)]
pub struct FaultyWriter {
    bytes: Vec<u8>,
    plan: FaultPlan,
    written: u64,
    calls: u64,
    dead: bool,
}

impl FaultyWriter {
    /// A sink executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultyWriter {
            plan,
            ..FaultyWriter::default()
        }
    }

    /// The bytes accepted before any fault — the torn file image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Bytes accepted so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// True once the byte budget was exhausted and the sink died.
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

impl Write for FaultyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::other("injected fault: sink is dead"));
        }
        self.calls += 1;
        if let Some(every) = self.plan.interrupted_every {
            if every > 0 && self.calls.is_multiple_of(every) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected interrupt",
                ));
            }
        }
        if buf.is_empty() {
            return Ok(0);
        }
        let mut len = buf.len();
        if self.plan.short_writes {
            len = len.div_ceil(2);
        }
        if let Some(limit) = self.plan.fail_after_bytes {
            let remaining = limit.saturating_sub(self.written);
            if remaining == 0 {
                self.dead = true;
                return Err(io::Error::other("injected fault: byte budget exhausted"));
            }
            len = len.min(remaining as usize);
        }
        self.bytes.extend_from_slice(&buf[..len]);
        self.written += len as u64;
        Ok(len)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("injected fault: sink is dead"));
        }
        Ok(())
    }
}

impl LogSink for FaultyWriter {
    fn sync(&mut self) -> io::Result<()> {
        self.flush()
    }
}

/// A `Read` wrapper that XORs `mask` into the byte at `offset` as it
/// streams past — one silently flipped bit (or several) on the read
/// path, which checksummed readers must catch — and/or dies after a
/// byte budget (the read-side `kill -9`: an NFS mount going away, a
/// pipe's writer crashing mid-transfer).
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    offset: u64,
    mask: u8,
    kill_after: Option<u64>,
    position: u64,
}

impl<R: Read> FaultyReader<R> {
    /// Flips `mask` into the byte at absolute stream `offset`.
    pub fn new(inner: R, offset: u64, mask: u8) -> Self {
        FaultyReader {
            inner,
            offset,
            mask,
            kill_after: None,
            position: 0,
        }
    }

    /// Yields at most `n` bytes, then fails every further read with a
    /// non-`Interrupted` I/O error. `mask = 0` makes this a pure
    /// truncation-with-error source.
    pub fn kill_after(inner: R, n: u64) -> Self {
        FaultyReader {
            inner,
            offset: 0,
            mask: 0,
            kill_after: Some(n),
            position: 0,
        }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut want = buf.len();
        if let Some(limit) = self.kill_after {
            let remaining = limit.saturating_sub(self.position);
            if remaining == 0 {
                return Err(io::Error::other("injected fault: read source is dead"));
            }
            want = want.min(remaining as usize);
        }
        let n = self.inner.read(&mut buf[..want])?;
        let start = self.position;
        if self.mask != 0 && self.offset >= start && self.offset < start + n as u64 {
            buf[(self.offset - start) as usize] ^= self.mask;
        }
        self.position += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CliqueLogReader, CliqueLogWriter};

    #[test]
    fn kill_after_keeps_exactly_the_budget() {
        let mut w = FaultyWriter::new(FaultPlan::kill_after(10));
        assert!(w.write_all(b"0123456789").is_ok());
        let err = w.write_all(b"x").unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(w.is_dead());
        assert_eq!(w.into_bytes(), b"0123456789");
    }

    #[test]
    fn kill_mid_write_keeps_the_prefix() {
        let mut w = FaultyWriter::new(FaultPlan::kill_after(4));
        // write_all accepts 4 bytes, then errors on the remainder.
        let err = w.write_all(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("byte budget"), "{err}");
        assert_eq!(w.into_bytes(), b"0123");
    }

    #[test]
    fn short_writes_are_absorbed_by_write_all() {
        let mut w = FaultyWriter::new(FaultPlan {
            short_writes: true,
            ..FaultPlan::default()
        });
        w.write_all(b"hello world").unwrap();
        assert_eq!(w.into_bytes(), b"hello world");
    }

    #[test]
    fn interrupt_storms_are_absorbed_by_write_all() {
        let mut w = FaultyWriter::new(FaultPlan {
            interrupted_every: Some(2),
            ..FaultPlan::default()
        });
        for _ in 0..50 {
            w.write_all(b"abc").unwrap();
        }
        assert_eq!(w.into_bytes().len(), 150);
    }

    #[test]
    fn log_written_through_storms_and_short_writes_is_valid() {
        let mut sink = FaultyWriter::new(FaultPlan {
            short_writes: true,
            interrupted_every: Some(3),
            ..FaultPlan::default()
        });
        let cliques: Vec<Vec<u32>> = (0..13).map(|i| vec![i, i + 20, i + 40]).collect();
        let mut w = CliqueLogWriter::from_sink(&mut sink, 100, 4).unwrap();
        for c in &cliques {
            w.push(c).unwrap();
        }
        let info = w.finish().unwrap();
        assert_eq!(info.clique_count, 13);
        // The image written through the faults decodes like a healthy
        // file: write_all absorbed every injected hiccup.
        let path = std::env::temp_dir().join(format!(
            "cpm_stream_faultio_{}.cliquelog",
            std::process::id()
        ));
        std::fs::write(&path, sink.into_bytes()).unwrap();
        let mut r = CliqueLogReader::open(&path).unwrap();
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while r.read_next(&mut buf).unwrap() {
            got.push(buf.clone());
        }
        assert_eq!(got, cliques);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faulty_reader_kill_after_yields_exact_prefix_then_errors() {
        let data = [7u8; 100];
        let mut r = FaultyReader::kill_after(&data[..], 33);
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_ne!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(out, vec![7u8; 33]);
    }

    #[test]
    fn faulty_reader_flips_exactly_one_byte() {
        let data: Vec<u8> = (0..=255).collect();
        let mut r = FaultyReader::new(&data[..], 100, 0x80);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), data.len());
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            if i == 100 {
                assert_eq!(b, a ^ 0x80);
            } else {
                assert_eq!(b, a);
            }
        }
    }
}
