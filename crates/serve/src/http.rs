//! Minimal, hardened HTTP/1.1 wire handling: bounded request parsing
//! and buffered response writing.
//!
//! The vendored-deps constraint rules out hyper; the daemon speaks just
//! enough HTTP/1.1 for `curl`, browsers, and the load generator:
//! request line + headers + optional (discarded) body in, status line +
//! `Content-Length` + JSON body out, with keep-alive by default.
//!
//! Parsing mirrors the hardened-decoding posture of the clique-log
//! reader (`stream/src/log.rs`): every read is bounded before it
//! happens — the request line and each header line by [`MAX_LINE`],
//! the header count by [`MAX_HEADERS`], the body by [`MAX_BODY`] — and
//! every violation is a clean `ErrorKind::InvalidData` (mapped to a
//! `400`/`413` by the server), never a panic and never an allocation
//! sized by attacker-controlled numbers.

use std::io::{self, BufRead, Read, Write};
use std::time::{Duration, Instant};

/// Longest accepted request line or header line, in bytes (including
/// the CRLF). Longer lines abort the parse before buffering more.
pub const MAX_LINE: usize = 8 * 1024;

/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// Largest accepted request body, in bytes. The daemon's endpoints
/// carry no meaningful body; anything longer is refused outright.
pub const MAX_BODY: u64 = 64 * 1024;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Marker payload of the error [`DeadlineReader`] returns when a peer
/// takes longer than the per-request deadline to deliver a request.
#[derive(Debug)]
struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("request deadline exceeded")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// True when `e` is the per-request deadline tripping (the caller
/// answers `408` and closes), as opposed to an ordinary socket timeout
/// tick (the caller's idle bookkeeping).
pub fn is_deadline_error(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<DeadlineExceeded>())
}

/// A `BufRead` adapter that turns a poll-timeout socket into a
/// slowloris-proof request source.
///
/// The underlying stream has a short read timeout
/// ([`READ_POLL`](crate::READ_POLL) upstream), so a silent peer surfaces `WouldBlock` every poll tick.
/// Without this adapter two attacks hold a connection worker forever:
///
/// - **trickle**: a peer feeding one byte per tick never surfaces
///   `WouldBlock` at all, so the caller's idle check never runs — yet
///   at 64 headers x 8 KiB a request can be dripped out for hours;
/// - **mid-request stall**: a peer sending half a request then going
///   quiet surfaces `WouldBlock` to a parser that has already consumed
///   the half, so treating it as an idle tick corrupts the stream.
///
/// The adapter starts a clock at the first byte of each request
/// (cleared by [`DeadlineReader::end_request`]). While the clock runs,
/// poll timeouts are absorbed and retried — never shown to the caller —
/// until the deadline lapses, at which point every read fails with a
/// [`is_deadline_error`] error whether the peer trickles or stalls.
/// With no request in flight, poll timeouts pass through unchanged: the
/// caller's idle accounting keeps working between requests.
#[derive(Debug)]
pub struct DeadlineReader<R> {
    inner: R,
    limit: Duration,
    request_start: Option<Instant>,
}

impl<R: BufRead> DeadlineReader<R> {
    /// Wraps `inner`, allowing each request at most `limit` from its
    /// first byte to its last.
    pub fn new(inner: R, limit: Duration) -> Self {
        DeadlineReader {
            inner,
            limit,
            request_start: None,
        }
    }

    /// Clears the per-request clock; call after a request has been
    /// fully parsed.
    pub fn end_request(&mut self) {
        self.request_start = None;
    }

    /// The wrapped reader (e.g. to inspect its buffer for pipelining).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    fn deadline_error() -> io::Error {
        io::Error::new(io::ErrorKind::TimedOut, DeadlineExceeded)
    }
}

impl<R: BufRead> Read for DeadlineReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for DeadlineReader<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        loop {
            if let Some(start) = self.request_start {
                // Checked on every call, not just on timeouts: a
                // trickling peer that always has a byte ready must
                // still hit the deadline.
                if start.elapsed() >= self.limit {
                    return Err(Self::deadline_error());
                }
            }
            // The borrow checker cannot see that the `Ok` branch's
            // borrow ends when we loop, so probe errors first.
            match self.inner.fill_buf() {
                Ok(chunk) => {
                    if !chunk.is_empty() && self.request_start.is_none() {
                        self.request_start = Some(Instant::now());
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.request_start.is_none() {
                        // True idle tick: no request in flight, let the
                        // caller do its idle accounting.
                        return Err(e);
                    }
                    // Mid-request stall: absorb and re-poll until the
                    // deadline says otherwise.
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            return self.inner.fill_buf();
        }
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

/// One parsed request: method, decoded path, query pairs, and the
/// connection's keep-alive fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the target, without the query string.
    pub path: String,
    /// Query pairs in target order; flags without `=` get an empty
    /// value.
    pub query: Vec<(String, String)>,
    /// Whether the connection survives this exchange (`HTTP/1.1`
    /// default, overridden by `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn query_value(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one line (through `\n`) into `buf`, erroring beyond
/// [`MAX_LINE`] bytes. Returns the line with the trailing `\r\n` (or
/// `\n`) stripped, or `None` on immediate EOF.
fn read_line<R: BufRead>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<Option<usize>> {
    buf.clear();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                ))
            };
        }
        // Take at most the bytes that keep the line under the cap; the
        // buffer never grows past MAX_LINE however long the sender's
        // line is.
        let take = chunk.len().min(MAX_LINE + 1 - buf.len());
        match chunk[..take].iter().position(|&b| b == b'\n') {
            Some(nl) => {
                buf.extend_from_slice(&chunk[..=nl]);
                r.consume(nl + 1);
                let mut end = buf.len() - 1;
                if end > 0 && buf[end - 1] == b'\r' {
                    end -= 1;
                }
                return Ok(Some(end));
            }
            None => {
                buf.extend_from_slice(&chunk[..take]);
                r.consume(take);
                if buf.len() > MAX_LINE {
                    return Err(invalid("line exceeds MAX_LINE"));
                }
            }
        }
    }
}

/// Reads and parses one request off the connection.
///
/// Returns `Ok(None)` on a clean EOF before any byte (the keep-alive
/// peer hung up between requests).
///
/// # Errors
///
/// `ErrorKind::InvalidData` for malformed or oversized requests (the
/// caller answers `400` and closes); `UnexpectedEof` for a connection
/// torn mid-request; plus whatever the transport surfaces (timeouts
/// included).
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<Request>> {
    let mut buf = Vec::new();
    let Some(line_len) = read_line(r, &mut buf)? else {
        return Ok(None);
    };
    let line =
        std::str::from_utf8(&buf[..line_len]).map_err(|_| invalid("request line is not UTF-8"))?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(invalid("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported HTTP version"));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(invalid("malformed method token"));
    }
    let http11 = version == "HTTP/1.1";
    let method = method.to_owned();

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return Err(invalid("request target must be absolute"));
    }
    let path = path.to_owned();
    let query: Vec<(String, String)> = query_str
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((n, v)) => (n.to_owned(), v.to_owned()),
            None => (pair.to_owned(), String::new()),
        })
        .collect();

    // Headers: bounded count, bounded lines; only Connection and
    // Content-Length matter to this server.
    let mut keep_alive = http11;
    let mut content_length: u64 = 0;
    let mut headers = 0usize;
    loop {
        let line_len = read_line(r, &mut buf)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed in headers")
        })?;
        if line_len == 0 {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        let line = std::str::from_utf8(&buf[..line_len])
            .map_err(|_| invalid("header line is not UTF-8"))?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(invalid("malformed header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<u64>()
                .map_err(|_| invalid("malformed content-length"))?;
        }
    }

    // The endpoints take no body; drain a small one to keep the
    // connection parseable, refuse anything large before reading it.
    if content_length > MAX_BODY {
        return Err(invalid("request body exceeds MAX_BODY"));
    }
    let mut remaining = content_length;
    while remaining > 0 {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed in body",
            ));
        }
        let n = (chunk.len() as u64).min(remaining) as usize;
        r.consume(n);
        remaining -= n as u64;
    }

    Ok(Some(Request {
        method,
        path,
        query,
        keep_alive,
    }))
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one JSON response. The caller flushes (batched under
/// pipelining; see the server's connection loop).
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> io::Result<Option<Request>> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /membership/42?k=4&x HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/membership/42");
        assert_eq!(req.query_value("k"), Some("4"));
        assert_eq!(req.query_value("x"), Some(""));
        assert_eq!(req.query_value("missing"), None);
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_http10() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_torn_request_is_error() {
        assert!(parse(b"").unwrap().is_none());
        let err = parse(b"GET / HT").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = parse(b"GET / HTTP/1.1\r\nHost: h\r\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn malformed_request_lines_are_invalid_data() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / FTP/1.1\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"G\xffT / HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
    }

    #[test]
    fn oversized_request_line_is_bounded() {
        // A request line far past MAX_LINE must error without ever
        // buffering more than MAX_LINE + 1 bytes.
        let mut big = Vec::from(&b"GET /"[..]);
        big.extend(std::iter::repeat_n(b'a', 3 * MAX_LINE));
        big.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let err = parse(&big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("MAX_LINE"));
    }

    #[test]
    fn oversized_header_line_is_bounded() {
        let mut req = Vec::from(&b"GET / HTTP/1.1\r\nX-Big: "[..]);
        req.extend(std::iter::repeat_n(b'b', 2 * MAX_LINE));
        req.extend_from_slice(b"\r\n\r\n");
        let err = parse(&req).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn too_many_headers_rejected() {
        let mut req = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        for i in 0..=MAX_HEADERS {
            req.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
        }
        req.extend_from_slice(b"\r\n");
        let err = parse(&req).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("headers"));
    }

    #[test]
    fn malformed_headers_rejected() {
        for bad in [
            &b"GET / HTTP/1.1\r\nno-colon\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\nContent-Length: many\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
    }

    #[test]
    fn small_body_is_drained_large_body_refused() {
        // Two pipelined requests with a small POST body between them:
        // the body must be consumed so the second request parses.
        let bytes =
            b"POST /reload HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(&bytes[..]);
        let first = read_request(&mut r).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        let second = read_request(&mut r).unwrap().unwrap();
        assert_eq!(second.path, "/healthz");

        let huge = format!(
            "POST /reload HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(huge.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("MAX_BODY"));
    }

    /// A scripted `BufRead`: each step is either bytes to serve or a
    /// `WouldBlock` tick, mimicking a poll-timeout socket.
    struct Script {
        steps: std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>,
        current: Vec<u8>,
        pos: usize,
        /// Once the steps run out: `true` stalls with `WouldBlock`
        /// forever (a peer gone silent), `false` is a clean EOF.
        stall: bool,
    }

    impl Script {
        fn new(steps: Vec<Result<&[u8], io::ErrorKind>>) -> Self {
            Script {
                steps: steps.into_iter().map(|s| s.map(<[u8]>::to_vec)).collect(),
                current: Vec::new(),
                pos: 0,
                stall: false,
            }
        }

        fn then_stall(mut self) -> Self {
            self.stall = true;
            self
        }
    }

    impl Read for Script {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            unreachable!("DeadlineReader drives fill_buf/consume only")
        }
    }

    impl BufRead for Script {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.pos >= self.current.len() {
                match self.steps.pop_front() {
                    Some(Ok(bytes)) => {
                        self.current = bytes;
                        self.pos = 0;
                    }
                    Some(Err(kind)) => return Err(io::Error::new(kind, "scripted timeout")),
                    None if self.stall => {
                        return Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted stall"))
                    }
                    None => {
                        self.current = Vec::new();
                        self.pos = 0;
                    }
                }
            }
            Ok(&self.current[self.pos..])
        }

        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    #[test]
    fn deadline_reader_passes_idle_ticks_through() {
        // No request in flight: the WouldBlock tick must surface so the
        // server's idle accounting keeps working.
        let script = Script::new(vec![Err(io::ErrorKind::WouldBlock)]);
        let mut r = DeadlineReader::new(script, Duration::from_secs(5));
        let err = read_request(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(!is_deadline_error(&err));
    }

    #[test]
    fn deadline_reader_absorbs_mid_request_ticks() {
        // Half a request, a stall tick, the other half: the request
        // must parse — the partial bytes are never dropped as "idle".
        let script = Script::new(vec![
            Ok(&b"GET /healthz HT"[..]),
            Err(io::ErrorKind::WouldBlock),
            Ok(&b"TP/1.1\r\n\r\n"[..]),
        ]);
        let mut r = DeadlineReader::new(script, Duration::from_secs(5));
        let req = read_request(&mut r).unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn deadline_reader_times_out_a_stalled_request() {
        // First byte arrived, then the peer goes quiet forever: once
        // the deadline lapses every read fails with the marker error.
        let script = Script::new(vec![Ok(&b"GET /h"[..])]).then_stall();
        let mut r = DeadlineReader::new(script, Duration::from_millis(30));
        let err = read_request(&mut r).unwrap_err();
        assert!(is_deadline_error(&err), "{err}");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn deadline_reader_times_out_a_trickling_request() {
        // The peer always has a byte ready (never a WouldBlock), so
        // only the every-call elapsed check can stop it. A zero
        // deadline is already expired once the first byte starts the
        // clock, so the second fill_buf must refuse.
        let request = b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n";
        let steps: Vec<Result<&[u8], io::ErrorKind>> =
            request.iter().map(std::slice::from_ref).map(Ok).collect();
        let mut r = DeadlineReader::new(Script::new(steps), Duration::ZERO);
        let err = read_request(&mut r).unwrap_err();
        assert!(is_deadline_error(&err), "{err}");
    }

    #[test]
    fn deadline_reader_clock_resets_between_requests() {
        let script = Script::new(vec![Ok(
            &b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"[..]
        )]);
        let mut r = DeadlineReader::new(script, Duration::from_millis(50));
        let first = read_request(&mut r).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        r.end_request();
        // Long after the first request's clock would have expired, the
        // second (already-buffered) request still parses.
        std::thread::sleep(Duration::from_millis(60));
        let second = read_request(&mut r).unwrap().unwrap();
        assert_eq!(second.path, "/b");
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"a\":1}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
        let mut out = Vec::new();
        write_response(&mut out, 404, "{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }
}
