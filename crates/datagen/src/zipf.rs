//! Zipf-distributed coverage skew.
//!
//! Example 4.1: "the number of computer science books provided by each
//! bookstore varies from 1 to 1095" — a heavily skewed distribution.
//! [`coverage_counts`] gives rank `k` a share `∝ 1 / k^s` of the total.

/// Deterministically scales raw Zipf weights to per-source coverage counts
/// summing approximately to `target_total`, clamped to `[1, max_each]`.
pub fn coverage_counts(n: usize, s: f64, target_total: usize, max_each: usize) -> Vec<usize> {
    assert!(n > 0, "Zipf coverage needs at least one rank");
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

    #[test]
    fn uniform_when_s_zero() {
        let counts = coverage_counts(10, 0.0, 100, 1_000);
        assert_eq!(counts, vec![10; 10]);
    }

    #[test]
    fn coverage_counts_hit_target_roughly() {
        let counts = coverage_counts(876, 1.0, 24_364, 1_095);
        assert_eq!(counts.len(), 876);
        assert!(counts.iter().all(|&c| (1..=1095).contains(&c)));
        assert!(counts.windows(2).all(|w| w[1] <= w[0]), "skewed by rank");
        let total: usize = counts.iter().sum();
        let err = (total as f64 - 24_364.0).abs() / 24_364.0;
        assert!(err < 0.2, "total {total} too far from 24364");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        coverage_counts(0, 1.0, 100, 10);
    }
}
