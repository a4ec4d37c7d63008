//! Zipf-distributed sampling for coverage skew.
//!
//! Example 4.1: "the number of computer science books provided by each
//! bookstore varies from 1 to 1095" — a heavily skewed distribution. [`Zipf`]
//! samples ranks with `P(k) ∝ 1 / k^s` via the precomputed CDF.

use rand::Rng as _;

use crate::Rng;

/// A Zipf distribution over ranks `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution. `n` must be positive; `s ≥ 0`
    /// (`s = 0` is uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` when there is a single rank (degenerate).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n` (0 = most probable).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Deterministically scales raw Zipf weights to per-source coverage counts
/// summing approximately to `target_total`, clamped to `[1, max_each]`.
pub fn coverage_counts(n: usize, s: f64, target_total: usize, max_each: usize) -> Vec<usize> {
    assert!(n > 0);
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| {
            let c = (w / total * target_total as f64).round() as usize;
            c.clamp(1, max_each)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probability of each rank: the steps of the CDF.
    fn pmf(z: &Zipf) -> Vec<f64> {
        let mut prev = 0.0;
        z.cdf
            .iter()
            .map(|&c| {
                let p = c - prev;
                prev = c;
                p
            })
            .collect()
    }

    #[test]
    fn pmf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(100, 1.0);
        let pmf = pmf(&z);
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(pmf.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        for p in pmf(&z) {
            assert!((p - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_is_skewed_and_seeded() {
        let z = Zipf::new(50, 1.2);
        let mut rng = crate::rng(42);
        let mut counts = vec![0usize; 50];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > 1000);
        // Determinism.
        let mut rng2 = crate::rng(42);
        let first: Vec<usize> = (0..10).map(|_| z.sample(&mut rng2)).collect();
        let mut rng3 = crate::rng(42);
        let second: Vec<usize> = (0..10).map(|_| z.sample(&mut rng3)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn coverage_counts_hit_target_roughly() {
        let counts = coverage_counts(876, 1.0, 24_364, 1_095);
        assert_eq!(counts.len(), 876);
        assert!(counts.iter().all(|&c| (1..=1095).contains(&c)));
        let total: usize = counts.iter().sum();
        let err = (total as f64 - 24_364.0).abs() / 24_364.0;
        assert!(err < 0.2, "total {total} too far from 24364");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }
}
