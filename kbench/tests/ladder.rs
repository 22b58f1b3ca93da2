//! The rate ladder terminates and resolves the knee to its last
//! bracket; the step verdict counts unanswered requests as misses.

use kbench::loadgen::{crossing, ladder, meets_limit, Done, UNANSWERED};

#[test]
fn ladder_resolves_a_threshold_to_one_bisection_step() {
    for threshold in [25_000.0, 61_000.0, 99_000.0, 150_000.0, 700_000.0] {
        let (best, steps) = ladder(20_000.0, 1_280_000.0, 3, |rate| rate <= threshold);
        assert!(best <= threshold, "{threshold}: {best}");
        // The first failure sits at most one doubling above the last
        // pass; three bisections leave an eighth of that bracket.
        let bracket = steps
            .iter()
            .filter(|s| !s.1)
            .map(|s| s.0)
            .fold(f64::INFINITY, f64::min)
            - best;
        assert!(
            bracket <= best.max(20_000.0) / 8.0 + 1e-9,
            "{threshold}: bracket {bracket}"
        );
        assert!(threshold - best <= bracket, "{threshold}: {best}");
        // Doubling steps, then exactly three bisections.
        let doublings = steps.iter().take_while(|s| s.1).count() + 1;
        assert_eq!(steps.len(), doublings + 3, "{steps:?}");
    }
}

#[test]
fn ladder_terminates_when_nothing_or_everything_passes() {
    let (best, steps) = ladder(20_000.0, 1_280_000.0, 3, |_| true);
    assert_eq!(best, 1_280_000.0);
    assert_eq!(steps.len(), 7, "20k doubled up to the cap: {steps:?}");
    let (best, steps) = ladder(20_000.0, 1_280_000.0, 3, |_| false);
    assert_eq!(best, 0.0);
    assert_eq!(
        steps.len(),
        4,
        "the first step then three bisections: {steps:?}"
    );
}

#[test]
fn crossing_interpolates_on_log_latency() {
    // p99 100 µs at 40k, 10 ms at 80k: a 1 ms limit sits halfway on the
    // log scale.
    let r = crossing((40_000.0, 100_000.0), (80_000.0, 10_000_000.0), 1_000_000.0);
    assert!((r - 60_000.0).abs() < 1e-6, "{r}");
    // Points that do not bracket the limit fall back to the pass rate.
    assert_eq!(crossing((40_000.0, 2e6), (80_000.0, 3e6), 1e6), 40_000.0);
    assert_eq!(crossing((40_000.0, 1e5), (80_000.0, 5e5), 1e6), 40_000.0);
}

fn done(latency_ns: u64, status: u16) -> Done {
    Done {
        g: 0,
        due_ns: 0,
        sent_ns: 0,
        done_ns: if status == 0 { UNANSWERED } else { latency_ns },
        status,
    }
}

#[test]
fn a_step_fails_on_slow_errored_or_missing_replies() {
    let fast: Vec<Done> = (0..1000).map(|_| done(200_000, 200)).collect();
    assert!(meets_limit(&fast, 1_000_000).0);
    for bad in [done(5_000_000, 200), done(1, 503), done(0, 0)] {
        let mut w = fast.clone();
        w.extend(std::iter::repeat_n(bad, 11));
        let (ok, p99) = meets_limit(&w, 1_000_000);
        assert!(!ok, "{bad:?} -> p99 {p99}");
    }
    assert!(!meets_limit(&[], 1_000_000).0);
}
