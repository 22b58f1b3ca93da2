//! Order statistics shared by the runner and `kbench compare`.

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads computed here match the
/// ones a Python checker computes from the same values. `data` must be
/// sorted and non-empty.
pub fn quartiles(data: &[f64]) -> [f64; 3] {
    assert!(!data.is_empty(), "quartiles of no samples");
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The 1-based nearest rank of percentile `q` (0 < q ≤ 1) among `n > 0`
/// samples. The small slack keeps `0.9 * 100` at rank 90 despite binary
/// rounding.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of sorted, non-empty data.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of p99.9, p99, p90 and p75 that leaves at least ten
/// samples beyond it, so a tail figure is never one or two outliers.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.75]
        .into_iter()
        .find(|&q| beyond(n, q) >= 10)
}

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub p75: f64,
}

impl Summary {
    /// Summarises `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [p25, median, p75] = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            p25,
            median,
            p75,
        })
    }

    /// A single measured value standing for itself.
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            p25: value,
            median: value,
            p75: value,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}
