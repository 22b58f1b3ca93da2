//! Pool reuse, measured: warm calls must not re-pay cold-start costs.
//!
//! The persistent executor exists to amortise two per-call costs: OS
//! thread spawning and scratch (re)allocation. Both are observable
//! from outside — thread creation through `exec::Pool::spawned_threads`,
//! allocation churn through the counting allocator's cumulative byte
//! counter — so this test pins the amortisation down as numbers rather
//! than trusting the design. It is the only test in its binary, so no
//! sibling test can grow the process-wide pool between its census
//! readings.

use exec::Pool;

#[global_allocator]
static ALLOC: bench::memprof::CountingAlloc = bench::memprof::CountingAlloc;

#[test]
fn warm_calls_reuse_threads_and_scratch() {
    let g = bench::random_graph(150, 0.12, 42);
    let reference = cpm::percolate(&g);

    // Cold call: spawns pool threads, builds per-worker scratch arenas.
    let (cold_result, cold_bytes) =
        bench::memprof::measure_total(|| cpm::percolate_parallel(&g, 4, cpm::Mode::Exact));
    assert_eq!(reference.levels, cold_result.levels);
    let spawned = Pool::global().spawned_threads();
    assert!(spawned >= 3, "expected pool threads after a 4-worker call");

    // Warm calls: same work, but threads and arenas already exist.
    let mut warm_bytes = Vec::new();
    for round in 0..5 {
        let (warm_result, bytes) =
            bench::memprof::measure_total(|| cpm::percolate_parallel(&g, 4, cpm::Mode::Exact));
        assert_eq!(reference.levels, warm_result.levels, "round {round}");
        assert_eq!(
            Pool::global().spawned_threads(),
            spawned,
            "round {round}: warm call spawned threads"
        );
        warm_bytes.push(bytes);
    }

    // Every warm call allocates strictly less than the cold call: the
    // one-time costs (thread bookkeeping, arena construction) are gone.
    for (round, &bytes) in warm_bytes.iter().enumerate() {
        assert!(
            bytes < cold_bytes,
            "round {round}: warm call allocated {bytes} bytes, cold call {cold_bytes}"
        );
    }

    // And warm calls are allocation-stable against each other: scratch
    // arenas persist instead of being re-grown, so identical inputs
    // allocate (nearly) identical volumes. 10% slack covers ancillary
    // noise (e.g. lazily grown Vec capacities crossing a threshold).
    let min = *warm_bytes.iter().min().unwrap() as f64;
    let max = *warm_bytes.iter().max().unwrap() as f64;
    assert!(
        max <= min * 1.10,
        "warm allocation volumes vary too much: min {min}, max {max}"
    );
}
