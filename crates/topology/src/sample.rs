//! Weighted sampling helpers for the generator.

use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Slack, in log space, that [`cut`] leaves between the filter and the
/// exact comparison; see [`weighted_sample_without_replacement`].
const LOG_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// Samples `k` distinct indices from `0..weights.len()` with probability
/// proportional to `weights[i]`, using the Efraimidis–Spirakis exponential
/// keys method. Entries with non-positive weight are never selected.
///
/// Streams the weights once and keeps the `k` largest keys in a heap, so
/// the cost is one uniform draw per positive-weight entry plus one key
/// per entry that can still enter the sample. Returns the chosen indices
/// ascending, fewer than `k` if fewer weights are positive.
///
/// Every positive-weight entry draws its `u`, in index order, whether or
/// not its key is computed: the RNG stream is the same as sorting all
/// keys would leave it.
///
/// # The filter
///
/// Entry `i` enters only if its key `fl(u^fl(1/w))` is strictly larger
/// than the heap's worst key `T` (a tie loses: the heap's entry has the
/// smaller index). The key is skipped when `fl(u − 1) < fl(w · c)` with
/// `c = fl(fl(ln T)·(1 + s) − s)`, `s = 2^-40`, which proves it cannot
/// beat `T`:
///
/// - `ln u ≤ u − 1`, and `fl(1/w) ≥ (1/w)(1 − 2^-53)` with `ln u ≤ 0`, so
///   `ln key ≤ (u − 1)(1 − 2^-53)/w + ε` where `ε ≤ 2^-50` bounds `powf`'s
///   relative error (libm `pow` and `log` are within a few ulps).
/// - The roundings of `u − 1`, `w · c` and `c`, and the error of `ln`,
///   are each a relative `≤ 2^-51`; the factor `1 + s` absorbs them for
///   every `ln T ≤ 0`. What is left is `(u − 1)(1 − 2^-53)/w < ln T − s/2`.
/// - So `ln key < ln T − s/2 + ε < ln T`.
///
/// `T = 0` gives `c = −∞` and nothing is skipped. With `k = 0`, or
/// when the positive weights run out before the heap is full, `c = +∞`
/// skips every key that is left.
pub(crate) fn weighted_sample_without_replacement<R: Rng>(
    rng: &mut R,
    weights: impl IntoIterator<Item = f64>,
    k: usize,
) -> Vec<usize> {
    let mut entries = weights.into_iter().enumerate().filter(|&(_, w)| w > 0.0);
    let mut top: BinaryHeap<Ranked> = BinaryHeap::with_capacity(k);
    // The first `k` positive entries fill the heap unfiltered.
    for (index, w) in entries.by_ref().take(k) {
        let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        top.push(Ranked {
            key: u.powf(1.0 / w),
            index,
        });
    }
    let mut c = top.peek().map_or(f64::INFINITY, |worst| cut(worst.key));
    for (index, w) in entries {
        let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        if u - 1.0 < w * c {
            continue;
        }
        let key = u.powf(1.0 / w);
        let mut worst = top
            .peek_mut()
            .expect("the cut stays +∞ until the heap is full");
        if key > worst.key {
            *worst = Ranked { key, index };
            drop(worst);
            c = cut(top.peek().expect("k > 0").key);
        }
    }
    let mut out: Vec<usize> = top.into_iter().map(|r| r.index).collect();
    out.sort_unstable();
    out
}

/// The filter threshold for worst key `t`: a key whose
/// `u − 1 < w · cut(t)` cannot exceed `t`.
fn cut(t: f64) -> f64 {
    t.ln() * (1.0 + LOG_SLACK) - LOG_SLACK
}

/// A kept key. Orders worst first so [`BinaryHeap`]'s top is the entry
/// to evict: the smallest key, and on a tie the largest index.
struct Ranked {
    key: f64,
    index: usize,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Samples one index from `0..weights.len()` proportionally to weight.
/// Returns `None` if no weight is positive.
pub(crate) fn weighted_pick<R, I>(rng: &mut R, weights: I) -> Option<usize>
where
    R: Rng,
    I: IntoIterator<Item = f64>,
    I::IntoIter: Clone,
{
    let weights = weights.into_iter();
    let total: f64 = weights.clone().filter(|&w| w > 0.0).sum();
    if total <= 0.0 {
        return None;
    }
    let mut target = rng.random_range(0.0..total);
    let mut last = None;
    for (i, w) in weights.enumerate().filter(|&(_, w)| w > 0.0) {
        if target < w {
            return Some(i);
        }
        target -= w;
        last = Some(i);
    }
    // Floating-point slack: fall back to the last positive entry.
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The sampler as it was before it streamed: a key for every
    /// positive weight, one sort, keep the first `k`. Ties are ordered by
    /// index (the unstable sort it used left them unspecified).
    fn reference<R: Rng>(rng: &mut R, weights: &[f64], k: usize) -> Vec<usize> {
        let mut keyed: Vec<(f64, usize)> = weights
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0.0)
            .map(|(i, &w)| {
                let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                (u.powf(1.0 / w), i)
            })
            .collect();
        let k = k.min(keyed.len());
        keyed.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("keys are finite")
                .then(a.1.cmp(&b.1))
        });
        keyed.truncate(k);
        let mut out: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
        out.sort_unstable();
        out
    }

    /// One weight per `(class, x)`: the classes cover non-positive
    /// weights, degree-like weights, the `1e6` of a Tier-1 in a large
    /// IXP, the `0.05` of a far stub and `1e-300`, whose keys all round
    /// to zero and tie.
    fn weight(class: u8, x: u32) -> f64 {
        match class {
            0 => 0.0,
            1 => -f64::from(x),
            2 => 1.0e6,
            3 => 1.0e-300,
            4 => 0.05,
            5 => f64::from(x) / 1000.0,
            _ => f64::from(x % 200) + 1.0,
        }
    }

    /// Runs both samplers from the same seed; they must pick the same
    /// indices and leave the RNG at the same position.
    fn agree(weights: &[f64], k: usize, seed: u64) -> Result<(), TestCaseError> {
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        let want = reference(&mut a, weights, k);
        let got = weighted_sample_without_replacement(&mut b, weights.iter().copied(), k);
        prop_assert_eq!(got, want, "k = {} over {:?}", k, weights);
        prop_assert_eq!(b.next_u64(), a.next_u64(), "RNG position differs");
        Ok(())
    }

    proptest! {
        #[test]
        fn streaming_matches_reference(
            spec in prop::collection::vec((0u8..10, 1u32..100_000), 0..400),
            k in 0usize..40,
            seed in 0u64..1_000_000,
        ) {
            let weights: Vec<f64> = spec.iter().map(|&(c, x)| weight(c, x)).collect();
            agree(&weights, k, seed)?;
            // k at and beyond the number of positive weights.
            let positive = weights.iter().filter(|&&w| w > 0.0).count();
            agree(&weights, positive, seed)?;
            agree(&weights, positive + 3, seed)?;
        }

        #[test]
        fn streaming_matches_reference_on_stub_pools(
            pool in 1usize..2_000,
            k in 1usize..4,
            seed in 0u64..1_000_000,
        ) {
            // The generator's hot call: a few picks out of a large pool of
            // degree-weighted providers, a handful of them hubs.
            let weights: Vec<f64> = (0..pool)
                .map(|i| if i % 97 == 0 { 500.0 } else { (i % 13) as f64 + 1.0 })
                .collect();
            agree(&weights, k, seed)?;
        }
    }

    #[test]
    fn edge_cases_match_reference() {
        for seed in 0..20 {
            for k in 0..6 {
                agree(&[], k, seed).unwrap();
                agree(&[0.0, -1.0, -0.0, f64::NAN], k, seed).unwrap();
                agree(&[1.0e-300; 8], k, seed).unwrap();
                agree(&[1.0e6, 1.0e-300, 1.0, 1.0e6, 1.0e-300, 0.05], k, seed).unwrap();
                agree(&[1.0e6; 8], k, seed).unwrap();
            }
        }
    }

    #[test]
    fn sample_size_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = weighted_sample_without_replacement(&mut rng, [1.0; 20], 5);
        assert_eq!(s.len(), 5);
        let mut d = s.clone();
        d.dedup();
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn zero_weights_excluded() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = [0.0, 1.0, 0.0, 1.0];
        for _ in 0..20 {
            let s = weighted_sample_without_replacement(&mut rng, w, 4);
            assert_eq!(s, vec![1, 3]);
        }
    }

    #[test]
    fn heavier_weights_win_more_often() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = [10.0, 0.1];
        let mut wins = 0;
        for _ in 0..200 {
            let s = weighted_sample_without_replacement(&mut rng, w, 1);
            if s == vec![0] {
                wins += 1;
            }
        }
        assert!(wins > 150, "heavy item won only {wins}/200");
    }

    #[test]
    fn pick_respects_weights() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = [0.0, 5.0, 0.0];
        for _ in 0..20 {
            assert_eq!(weighted_pick(&mut rng, w), Some(1));
        }
        assert_eq!(weighted_pick(&mut rng, [0.0, 0.0]), None);
        assert_eq!(weighted_pick(&mut rng, []), None);
    }
}
