//! `kbench compare` verdicts follow the bound and pairing rules.

use kbench::compare::{bounds, compare, verdict, Bound, Run, Verdict};
use kbench::json;
use std::collections::BTreeMap;

const LOWER: Option<Bound> = Some(Bound {
    bound: 0.1,
    higher_better: false,
});

fn pairs(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
    a.iter().copied().zip(b.iter().copied()).collect()
}

#[test]
fn verdicts() {
    let base = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];
    let same: Vec<f64> = base.iter().map(|x| x + 0.3).collect();
    assert_eq!(
        verdict(&base, &same, &pairs(&base, &same), LOWER),
        Verdict::Same
    );
    let worse: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
    assert_eq!(
        verdict(&base, &worse, &pairs(&base, &worse), LOWER),
        Verdict::Worse
    );
    let better: Vec<f64> = base.iter().map(|x| x * 0.9).collect();
    assert_eq!(
        verdict(&base, &better, &pairs(&base, &better), LOWER),
        Verdict::Better
    );
    // Winning eight pairs of ten is not a gain.
    let mut mixed = better.clone();
    mixed[0] = 150.0;
    mixed[1] = 150.0;
    assert_eq!(
        verdict(&base, &mixed, &pairs(&base, &mixed), LOWER),
        Verdict::Same
    );
    // Direction flips for higher-is-better metrics.
    let higher = Some(Bound {
        bound: 0.1,
        higher_better: true,
    });
    assert_eq!(
        verdict(&base, &worse, &pairs(&base, &worse), higher),
        Verdict::Better
    );
    assert_eq!(
        verdict(&base, &better, &pairs(&base, &better), higher),
        Verdict::Same
    );
    assert_eq!(verdict(&base, &same, &[], None), Verdict::Unbounded);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let base = [
        70.0, 130.0, 80.0, 120.0, 100.0, 90.0, 110.0, 75.0, 125.0, 100.0,
    ];
    let change: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
    assert_eq!(
        verdict(&base, &change, &pairs(&base, &change), LOWER),
        Verdict::Unresolved
    );
    // Unless every change run beats every base run.
    let far = [10.0; 10];
    assert_eq!(
        verdict(&base, &far, &pairs(&base, &far), LOWER),
        Verdict::Better
    );
}

fn run(workload: &str, seed: u64, value: f64) -> Run {
    let mut metrics = BTreeMap::new();
    metrics.insert("latency_ms".to_owned(), (value, "ms".to_owned()));
    Run {
        workload: workload.to_owned(),
        seed,
        metrics,
    }
}

#[test]
fn rows_pair_runs_by_seed_and_apply_benchmark_bounds() {
    let bench = json::parse(
        r#"{"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
    )
    .unwrap();
    let b = bounds(&bench).unwrap();
    let base: Vec<Run> = (1..=10)
        .map(|s| run("w", s, 100.0 + s as f64 * 0.1))
        .collect();
    // Same values, listed in reverse seed order: pairing by seed makes
    // every pair a tie.
    let change: Vec<Run> = (1..=10)
        .rev()
        .map(|s| run("w", s, 100.0 + s as f64 * 0.1))
        .collect();
    let rows = compare(&base, &change, &b);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].verdict, Verdict::Same);
    assert_eq!(rows[0].base.n, 10);
    assert!(bounds(&json::parse(r#"{"end_to_end": [{"name": "x"}]}"#).unwrap()).is_err());
}
