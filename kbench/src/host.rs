//! The host-speed reference. The two-vCPU Intel Xeon virtual machine
//! the baseline was measured on runs everything 10–50% slower for stretches
//! of seconds to minutes, and all four workloads slow down together, so
//! a run's median moves with whatever the host did during it. A fixed
//! kernel timed just before and just after each measurement sees the
//! same host, so each end-to-end time is scaled to what it would read
//! with the kernel at [`REF_NOMINAL_MS`]. Over seven minutes of
//! interleaved cold `communities-exact` and `communities-almost`
//! iterations, this took the spread of 15-iteration medians from 22%
//! to 6% for both. The unscaled figures are reported beside the scaled
//! ones as `raw.<metric>`.
//!
//! The kernel is benchmark code, so a change to the repository cannot
//! move it; a change to shared build settings (`.cargo/config.toml`
//! target flags) moves both and must be judged on the raw figures.

use std::hint::black_box;
use std::time::Instant;

/// What the reference kernel takes on that machine when it is quiet, in ms.
pub const REF_NOMINAL_MS: f64 = 30.0;

/// A daemon-free loopback round trip on that machine when it is quiet,
/// in µs: the wakeup-bound reference for served latency.
pub const RTT_NOMINAL_US: f64 = 15.0;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the reference kernel once and returns its wall time in ms: fill
/// fresh memory (page faults), sort it (compute and streaming), then
/// chase a million dependent random reads through it — the mix the
/// workloads' ingest, percolation and lookups make.
pub fn reference_ms() -> f64 {
    const N: u64 = 1_000_000;
    let t = Instant::now();
    let mut v: Vec<u64> = (0..N).map(mix).collect();
    v.sort_unstable();
    let (mut acc, mut i) = (0u64, 0u64);
    for _ in 0..N {
        i = mix(i ^ acc) % N;
        acc = acc.wrapping_add(v[i as usize]);
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor taking a time measured between two reference runs to the
/// nominal host (divide a rate by it instead).
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REF_NOMINAL_MS / (before_ms + after_ms)
}

/// [`factor`] for a wakeup-bound latency measured between two loopback
/// round-trip medians, in µs.
pub fn rtt_factor(before_us: f64, after_us: f64) -> f64 {
    2.0 * RTT_NOMINAL_US / (before_us + after_us)
}

/// Brackets measurements with reference runs: each [`Bracket::close`]
/// runs the kernel once and returns the factor for whatever ran since
/// the previous run, so consecutive measurements share a reference run.
#[derive(Debug)]
pub struct Bracket {
    last_ms: f64,
    /// Every reference time taken, in ms.
    pub refs: Vec<f64>,
}

impl Bracket {
    /// Opens the first bracket.
    pub fn open() -> Bracket {
        let first = reference_ms();
        Bracket {
            last_ms: first,
            refs: vec![first],
        }
    }

    /// Closes the current bracket and opens the next; returns the
    /// closed bracket's [`factor`].
    pub fn close(&mut self) -> f64 {
        let now = reference_ms();
        let f = factor(self.last_ms, now);
        self.last_ms = now;
        self.refs.push(now);
        f
    }
}
