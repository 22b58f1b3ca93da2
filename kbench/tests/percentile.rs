//! The order statistics behind every reported figure.

use kbench::stats::{beyond, percentile, quartiles, tail_quantile, Summary};

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    // p75 needs 40 samples (30th is p75, ten beyond); 39 falls back to
    // the median.
    assert_eq!(tail_quantile(40), Some(0.75));
    assert_eq!(beyond(40, 0.75), 10);
    assert_eq!(tail_quantile(39), None);
    assert_eq!(tail_quantile(100), Some(0.9));
    assert_eq!(tail_quantile(999), Some(0.9));
    assert_eq!(tail_quantile(1000), Some(0.99));
    assert_eq!(tail_quantile(10_000), Some(0.999));
    for n in 1..5_000 {
        if let Some(q) = tail_quantile(n) {
            assert!(beyond(n, q) >= 10, "n={n} q={q}");
        }
    }
}

#[test]
fn nearest_rank_percentile() {
    let data: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&data, 0.5), 50.0);
    assert_eq!(percentile(&data, 0.99), 99.0);
    assert_eq!(percentile(&data, 1.0), 100.0);
    assert_eq!(percentile(&[3.0], 0.01), 3.0);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let data: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&data), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    // statistics.quantiles([4, 1, 9, 7, 3], n=4) on sorted data ==
    // [2.0, 4.0, 8.0]
    assert_eq!(quartiles(&[1.0, 3.0, 4.0, 7.0, 9.0]), [2.0, 4.0, 8.0]);
}

#[test]
fn summary_spread_is_quartile_distance_over_median() {
    let s = Summary::of(&[10.0, 1.0, 5.0, 3.0, 7.0, 9.0, 2.0, 4.0, 6.0, 8.0]).unwrap();
    assert_eq!(s.n, 10);
    assert_eq!(s.median, 5.5);
    assert!((s.spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    assert!(Summary::of(&[]).is_none());
}
