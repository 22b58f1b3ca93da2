//! Pool reuse, measured: warm calls must not re-pay cold-start costs.
//!
//! The persistent executor exists to amortise two per-call costs: OS
//! thread spawning and scratch (re)allocation. Both are observable
//! from outside, in ways that do not depend on how work spreads over
//! the workers: thread creation through `exec::Pool::spawned_threads`,
//! each worker slot's resident scratch through a probe job that reads
//! its arena, and the scratch's allocations through the counting
//! allocator on the one-worker path, where every call allocates the
//! same bytes in the same order. It is the only test in its binary, so
//! no sibling test can grow the process-wide pool between its readings.

use exec::Pool;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: bench::memprof::CountingAlloc = bench::memprof::CountingAlloc;

/// The number of scratch types resident in each of the pool's first
/// `workers` arenas, read by a job that allocates none of its own.
fn arena_slots(workers: usize) -> Vec<usize> {
    let slots = Mutex::new(vec![0; workers]);
    Pool::global().run(workers, |mut w| {
        let n = w.arena().slots();
        slots.lock().expect("probe worker panicked")[w.index()] = n;
    });
    slots.into_inner().expect("probe worker panicked")
}

#[test]
fn warm_calls_reuse_threads_and_scratch() {
    let g = bench::random_graph(150, 0.12, 42);

    // One worker runs inline on the caller, with the caller's arena:
    // the schedule cannot move a byte. With the pool itself already
    // built, the cold call differs from a warm one only in building the
    // arena's scratch, so warm calls allocate less. The counter is
    // process-wide, and the test harness's own thread may allocate
    // while a call runs, which only ever adds to a reading: the
    // smallest warm reading is a warm call's own volume.
    let _ = Pool::global();
    let (reference, cold_bytes) = bench::memprof::measure_total(|| cpm::percolate(&g));
    let mut warm_bytes = Vec::new();
    for round in 0..5 {
        let (warm, bytes) = bench::memprof::measure_total(|| cpm::percolate(&g));
        assert_eq!(reference, warm, "one-worker round {round}");
        warm_bytes.push(bytes);
    }
    let warm_min = *warm_bytes.iter().min().expect("five rounds");
    assert!(
        warm_min < cold_bytes,
        "warm one-worker calls allocated {warm_bytes:?} bytes, cold call {cold_bytes}"
    );

    // Four workers: the cold call spawns the pool threads, and every
    // worker slot takes the enumeration scratch into its arena whether
    // or not it claims work.
    let cold = cpm::percolate_parallel(&g, 4, cpm::Mode::Exact);
    assert_eq!(reference.levels, cold.levels);
    let spawned = Pool::global().spawned_threads();
    assert!(spawned >= 3, "expected pool threads after a 4-worker call");
    let resident = arena_slots(4);
    assert!(
        resident.iter().all(|&n| n > 0),
        "a worker arena lost its scratch between jobs: {resident:?}"
    );

    // Warm calls: same work, no new threads, and every arena keeps what
    // it held (arenas are append-only, so a rebuilt arena reads empty
    // or smaller).
    for round in 0..5 {
        let warm = cpm::percolate_parallel(&g, 4, cpm::Mode::Exact);
        assert_eq!(reference.levels, warm.levels, "round {round}");
        assert_eq!(
            Pool::global().spawned_threads(),
            spawned,
            "round {round}: warm call spawned threads"
        );
        assert_eq!(
            arena_slots(4),
            resident,
            "round {round}: worker arenas were rebuilt"
        );
    }
}
