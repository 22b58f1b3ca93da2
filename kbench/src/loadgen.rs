//! Open-loop HTTP load against the daemon, the closed-loop service
//! probe, and the rate ladder.
//!
//! Each generator thread owns one keep-alive connection and sends on a
//! fixed schedule whether or not earlier replies have come back
//! (pipelining), so a slow server meets the load real independent users
//! would offer instead of a politely shrinking one. Every request is
//! timed from the moment it was *due*, which charges a stall to every
//! request that queued behind it. Between sends a thread blocks in
//! `ppoll` on its socket until either a reply arrives or the next send
//! is due; it never spins and never skips a send.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("kbench's load generator waits with Linux ppoll(2)");

mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::io;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x1;
    const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// Asks the kernel to fire this thread's timers on time: the default
    /// 50 µs slack would make every scheduled send that late.
    pub fn tight_timers() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only
        // changes the calling thread's timer slack; no memory is passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }

    /// Blocks until `stream` is readable or `timeout` passes; true when
    /// readable (or hung up, which the next read reports).
    pub fn wait_readable(stream: &impl AsRawFd, timeout: Duration) -> io::Result<bool> {
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fd` and `ts` are live locals for the whole call, nfds
        // is 1 to match the single PollFd, and a null sigmask leaves the
        // signal mask unchanged.
        let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        match rc {
            0 => Ok(false),
            n if n > 0 => Ok(true),
            _ => {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    Ok(false)
                } else {
                    Err(err)
                }
            }
        }
    }
}

pub use sys::tight_timers;

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Marks a request that never got a reply.
pub const UNANSWERED: u64 = u64::MAX;

/// One scheduled request and what became of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Done {
    /// Global request number within the load.
    pub g: u64,
    /// When it was due, ns since the load's epoch.
    pub due_ns: u64,
    /// When it was written.
    pub sent_ns: u64,
    /// When its reply was read ([`UNANSWERED`] if never).
    pub done_ns: u64,
    /// HTTP status (0 if never answered).
    pub status: u16,
}

impl Done {
    /// Latency from the due time ([`UNANSWERED`] if never answered).
    pub fn latency_ns(&self) -> u64 {
        if self.done_ns == UNANSWERED {
            UNANSWERED
        } else {
            self.done_ns.saturating_sub(self.due_ns)
        }
    }

    /// How late the generator sent it.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// One reply as it is read, for observers.
#[derive(Debug)]
pub struct Reply<'a> {
    /// Global request number.
    pub g: u64,
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: &'a [u8],
    /// When it was read, ns since the epoch.
    pub done_ns: u64,
}

/// An open-loop load: request `g` (counting from `first`) is due at
/// `start_ns + (g - first) / rate` seconds and carries
/// `requests[g % requests.len()]`. Scheduling stops at `until_ns`, which
/// an observer may move while the load runs; replies still outstanding
/// `drain` after that are left unanswered.
pub struct Load<'a> {
    /// The daemon.
    pub addr: SocketAddr,
    /// Epoch every timestamp counts from.
    pub t0: Instant,
    /// First due time.
    pub start_ns: u64,
    /// Total offered rate across all threads, requests per second.
    pub rate: f64,
    /// Stop scheduling at this time.
    pub until_ns: &'a AtomicU64,
    /// Request bytes, cycled.
    pub requests: &'a [Vec<u8>],
    /// Global number of the first request.
    pub first: u64,
    /// How long to wait for stragglers after scheduling stops.
    pub drain: Duration,
}

/// Runs `load` on `threads` threads, one connection each, and returns
/// every request sorted by `g`. `observe` sees each reply as it is
/// read.
///
/// # Errors
///
/// A failed connect or write; a connection the server closes only
/// leaves its outstanding requests unanswered.
pub fn run(
    load: &Load,
    threads: usize,
    observe: &(dyn Fn(&Reply) + Sync),
) -> io::Result<Vec<Done>> {
    let per_thread: Vec<io::Result<Vec<Done>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || drive(load, t as u64, threads as u64, observe)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for part in per_thread {
        all.extend(part?);
    }
    all.sort_unstable_by_key(|d| d.g);
    Ok(all)
}

fn drive(
    load: &Load,
    lane: u64,
    lanes: u64,
    observe: &(dyn Fn(&Reply) + Sync),
) -> io::Result<Vec<Done>> {
    tight_timers();
    let mut stream = TcpStream::connect(load.addr)?;
    stream.set_nodelay(true)?;
    let period_ns = 1e9 / load.rate;
    let mut out: Vec<Done> = Vec::new();
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut inbox: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut seq = lane;
    loop {
        let now = ns_since(load.t0);
        let until = load.until_ns.load(Ordering::Acquire);
        let mut next_due = None;
        loop {
            let due = load.start_ns + (seq as f64 * period_ns) as u64;
            if due >= until {
                break;
            }
            if due > now {
                next_due = Some(due);
                break;
            }
            let g = load.first + seq;
            stream.write_all(&load.requests[(g % load.requests.len() as u64) as usize])?;
            out.push(Done {
                g,
                due_ns: due,
                sent_ns: ns_since(load.t0),
                done_ns: UNANSWERED,
                status: 0,
            });
            pending.push_back(out.len() - 1);
            seq += lanes;
        }
        let wake = match next_due {
            Some(due) => due,
            None if pending.is_empty() => break,
            None => until.saturating_add(load.drain.as_nanos() as u64),
        };
        let now = ns_since(load.t0);
        if next_due.is_none() && now >= wake {
            break;
        }
        if !sys::wait_readable(&stream, Duration::from_nanos(wake.saturating_sub(now)))? {
            continue;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let done_ns = ns_since(load.t0);
        inbox.extend_from_slice(&chunk[..n]);
        let mut at = 0;
        while let Some((used, status, body)) = parse_response(&inbox[at..]) {
            let Some(i) = pending.pop_front() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "reply without a request",
                ));
            };
            out[i].done_ns = done_ns;
            out[i].status = status;
            observe(&Reply {
                g: out[i].g,
                status,
                body: &inbox[at + body.0..at + body.1],
                done_ns,
            });
            at += used;
        }
        inbox.drain(..at);
    }
    Ok(out)
}

/// Parses one complete response at the front of `buf`: bytes used,
/// status, and the body's byte range. `None` until it is complete.
pub fn parse_response(buf: &[u8]) -> Option<(usize, u16, (usize, usize))> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.get(9..12)?.parse().ok()?;
    let length: usize = head
        .split("\r\n")
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let end = head_end + length;
    (buf.len() >= end).then_some((end, status, (head_end, end)))
}

/// A closed loop: each of `threads` connections keeps `depth` requests
/// in flight, sending one more for every reply, until `until_ns`; then
/// it drains. Request `g` (counting from `first`) carries
/// `requests[g % requests.len()]`, and its due time is its send time,
/// so latency is pure service plus queueing behind the `depth - 1`
/// others. `depth = 1` on one connection is plain ping-pong.
///
/// # Errors
///
/// Connect, read or write failures, or a connection that closes or
/// stalls for ten seconds with requests in flight.
pub fn closed(
    addr: SocketAddr,
    t0: Instant,
    requests: &[Vec<u8>],
    first: u64,
    depth: usize,
    threads: usize,
    until_ns: u64,
) -> io::Result<Vec<Done>> {
    let per_thread: Vec<io::Result<Vec<Done>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|lane| {
                s.spawn(move || {
                    let mut c = Closed {
                        stream: TcpStream::connect(addr)?,
                        t0,
                        requests,
                        next_g: first + lane,
                        lanes: threads as u64,
                        out: Vec::new(),
                        pending: VecDeque::new(),
                    };
                    c.stream.set_nodelay(true)?;
                    c.stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                    c.send(depth)?;
                    let mut inbox = Vec::with_capacity(1 << 16);
                    let mut chunk = vec![0u8; 1 << 16];
                    while !c.pending.is_empty() {
                        let n = c.stream.read(&mut chunk)?;
                        if n == 0 {
                            return Err(io::ErrorKind::UnexpectedEof.into());
                        }
                        let done_ns = ns_since(t0);
                        inbox.extend_from_slice(&chunk[..n]);
                        let mut at = 0;
                        let mut replies = 0;
                        while let Some((used, status, _)) = parse_response(&inbox[at..]) {
                            let i = c.pending.pop_front().ok_or_else(|| {
                                io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    "reply without a request",
                                )
                            })?;
                            c.out[i].done_ns = done_ns;
                            c.out[i].status = status;
                            at += used;
                            replies += 1;
                        }
                        inbox.drain(..at);
                        if done_ns < until_ns {
                            c.send(replies)?;
                        }
                    }
                    Ok(c.out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for part in per_thread {
        all.extend(part?);
    }
    all.sort_unstable_by_key(|d| d.g);
    Ok(all)
}

/// One closed-loop connection's state.
struct Closed<'a> {
    stream: TcpStream,
    t0: Instant,
    requests: &'a [Vec<u8>],
    next_g: u64,
    lanes: u64,
    out: Vec<Done>,
    pending: VecDeque<usize>,
}

impl Closed<'_> {
    /// Writes the next `n` requests in one go.
    fn send(&mut self, n: usize) -> io::Result<()> {
        let mut batch = Vec::new();
        let now = ns_since(self.t0);
        for _ in 0..n {
            let g = self.next_g;
            batch.extend_from_slice(&self.requests[(g % self.requests.len() as u64) as usize]);
            self.out.push(Done {
                g,
                due_ns: now,
                sent_ns: now,
                done_ns: UNANSWERED,
                status: 0,
            });
            self.pending.push_back(self.out.len() - 1);
            self.next_g += self.lanes;
        }
        self.stream.write_all(&batch)
    }
}

/// Round trips of a 64-byte ping between two threads over loopback TCP
/// for `span`, in ns: the platform's own wakeup cost, with no daemon.
///
/// # Errors
///
/// Socket failures.
pub fn loopback_rtt(span: Duration) -> io::Result<Vec<u64>> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            let mut buf = [0u8; 64];
            loop {
                match peer.read_exact(&mut buf) {
                    Ok(()) => peer.write_all(&buf)?,
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        });
        let mut rtts = Vec::new();
        {
            let mut c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            let mut buf = [7u8; 64];
            let t0 = Instant::now();
            while t0.elapsed() < span {
                let t = Instant::now();
                c.write_all(&buf)?;
                c.read_exact(&mut buf)?;
                rtts.push(t.elapsed().as_nanos() as u64);
            }
        }
        echo.join().expect("echo thread panicked")?;
        Ok(rtts)
    })
}

/// Sends `POST /reload` on its own connection; returns the status.
///
/// # Errors
///
/// Connect, read or write failures.
pub fn post_reload(addr: SocketAddr) -> io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(
        b"POST /reload HTTP/1.1\r\nHost: kbench\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    )?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    parse_response(&reply)
        .map(|(_, status, _)| status)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no reply to POST /reload"))
}

/// The daemon's snapshot generation in a reply body, if it states one.
pub fn generation(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"generation\":";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// The rate ladder: start at `start`, double while a step passes (up to
/// `max`), then bisect `bisections` times between the last pass and the
/// first failure. Returns the highest passing rate (0 when even the
/// first step fails at every bisection) and every step tried, in order.
pub fn ladder(
    start: f64,
    max: f64,
    bisections: u32,
    mut step: impl FnMut(f64) -> bool,
) -> (f64, Vec<(f64, bool)>) {
    let mut tried = Vec::new();
    let mut probe = |rate: f64, tried: &mut Vec<(f64, bool)>| {
        let ok = step(rate);
        tried.push((rate, ok));
        ok
    };
    let mut pass = 0.0;
    let mut rate = start;
    let fail = loop {
        if !probe(rate, &mut tried) {
            break Some(rate);
        }
        pass = rate;
        if rate * 2.0 > max {
            break None;
        }
        rate *= 2.0;
    };
    if let Some(mut fail) = fail {
        for _ in 0..bisections {
            let mid = (pass + fail) / 2.0;
            if probe(mid, &mut tried) {
                pass = mid;
            } else {
                fail = mid;
            }
        }
    }
    (pass, tried)
}

/// The rate at which p99 crosses `limit`, interpolated on log p99
/// between a passing step `lo = (rate, p99)` and a failing step `hi`
/// above it; `lo`'s rate when the points do not bracket the limit.
pub fn crossing(lo: (f64, f64), hi: (f64, f64), limit: f64) -> f64 {
    let ((r0, p0), (r1, p1)) = (lo, hi);
    if r1 <= r0 || p0 > limit || p1 <= limit || p0 <= 0.0 {
        return r0;
    }
    let share = (limit.ln() - p0.ln()) / (p1.ln() - p0.ln());
    r0 + (r1 - r0) * share.clamp(0.0, 1.0)
}

/// Whether a ladder step's measured requests meet the limit: p99 from
/// the due time ≤ `limit_ns`, with unanswered requests counted as
/// infinitely late. That also demands ≥ 99% completion, and a backlog
/// that grows through the step pushes its later requests past the
/// limit. Returns the verdict and the p99.
pub fn meets_limit(window: &[Done], limit_ns: u64) -> (bool, u64) {
    if window.is_empty() {
        return (false, UNANSWERED);
    }
    let mut lat: Vec<u64> = window
        .iter()
        .map(|d| {
            if d.status == 200 {
                d.latency_ns()
            } else {
                UNANSWERED
            }
        })
        .collect();
    lat.sort_unstable();
    let p99 = lat[crate::stats::rank(lat.len(), 0.99) - 1];
    (p99 <= limit_ns, p99)
}
