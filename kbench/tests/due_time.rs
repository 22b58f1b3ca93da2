//! Open-loop latency is timed from each request's due time: one 50 ms
//! server stall must show up in every request that was due while it
//! lasted, and the generator must keep sending on schedule meanwhile.

use kbench::loadgen::{run, Load, Reply};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicU64;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const STALL: Duration = Duration::from_millis(50);

/// A one-connection HTTP server answering `ok` to every request, which
/// sleeps `STALL` before answering request number `stall_at`.
fn stalling_server(stall_at: usize) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_nodelay(true).unwrap();
        let mut inbox = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut answered = 0;
        loop {
            let n = conn.read(&mut chunk).unwrap();
            if n == 0 {
                return;
            }
            inbox.extend_from_slice(&chunk[..n]);
            while let Some(end) = inbox.windows(4).position(|w| w == b"\r\n\r\n") {
                inbox.drain(..end + 4);
                if answered == stall_at {
                    std::thread::sleep(STALL);
                }
                conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
                answered += 1;
            }
        }
    });
    (addr, handle)
}

#[test]
fn a_stall_raises_the_latency_of_every_request_due_during_it() {
    let stall_at = 200;
    let (addr, server) = stalling_server(stall_at);
    let t0 = Instant::now();
    let start_ns = 10_000_000;
    let until = AtomicU64::new(start_ns + 400_000_000);
    let requests = vec![b"GET /x HTTP/1.1\r\nHost: t\r\n\r\n".to_vec()];
    let load = Load {
        addr,
        t0,
        start_ns,
        rate: 2_000.0,
        until_ns: &until,
        requests: &requests,
        first: 0,
        drain: Duration::from_secs(5),
    };
    let dones = run(&load, 1, &|_: &Reply| {}).unwrap();
    server.join().unwrap();
    assert_eq!(dones.len(), 800);
    assert!(dones.iter().all(|d| d.status == 200));

    let stalled = dones[stall_at];
    assert!(stalled.latency_ns() >= STALL.as_nanos() as u64);
    let stall_end = stalled.due_ns + STALL.as_nanos() as u64;
    let during: Vec<_> = dones
        .iter()
        .filter(|d| d.due_ns > stalled.due_ns && d.due_ns < stall_end)
        .collect();
    assert!(
        during.len() >= 90,
        "{} requests due during the stall",
        during.len()
    );
    for d in &during {
        // Nothing queued behind the stall can be answered before it
        // ends, so each waited at least until then from its due time.
        assert!(
            d.latency_ns() >= stall_end - d.due_ns,
            "request {} due {} µs into the stall reported {} µs",
            d.g,
            (d.due_ns - stalled.due_ns) / 1000,
            d.latency_ns() / 1000
        );
        // And it was sent on schedule, not held back by the stall.
        assert!(
            d.late_ns() < 5_000_000,
            "request {} sent {} µs late",
            d.g,
            d.late_ns() / 1000
        );
    }
    let later: Vec<_> = dones
        .iter()
        .filter(|d| d.due_ns > stall_end + 200_000_000)
        .collect();
    assert!(!later.is_empty());
    assert!(
        later.iter().all(|d| d.latency_ns() < 20_000_000),
        "the backlog drained"
    );
}
