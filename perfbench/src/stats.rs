//! Order statistics over latency samples.
//!
//! Quantiles use the nearest-rank rule on a sorted sample, so a reported
//! percentile is always a value that was actually measured.

/// Smallest number of samples a tail percentile must leave beyond it.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Zero-based index of the `q`-quantile in a sorted sample of `n`
/// values (nearest rank: the `ceil(q·n)`-th smallest value).
///
/// # Panics
/// Panics when `n` is 0 or `q` lies outside `[0, 1]`.
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    // The epsilon keeps `0.85 * 100 = 85.00000000000001` at rank 85.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Number of samples strictly above the `q`-quantile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - 1 - rank_index(n, q)
}

/// The highest quantile of `ladder` that leaves at least
/// [`MIN_BEYOND_TAIL`] samples beyond it in a sample of `n`.
pub fn tail_quantile(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&q| n > 0 && samples_beyond(n, q) >= MIN_BEYOND_TAIL)
        .fold(None, |best: Option<f64>, q| {
            Some(best.map_or(q, |b| b.max(q)))
        })
}

/// The `q`-quantile of an unsorted sample.
///
/// # Panics
/// Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_index(sorted.len(), q)]
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Sub-buckets per power of two in a [`Histogram`] (as a bit count).
const SUB_BITS: u32 = 7;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// A log-linear histogram of nanosecond latencies for runs too long to
/// keep every sample: 128 buckets per power of two (each under 0.8% wide)
/// in constant memory, so the benchmark's own bookkeeping does not grow
/// the peak memory it reports. Each bucket also keeps the sum of its
/// samples, and a quantile reads as the mean of the measured values in
/// the bucket that holds it.
pub struct Histogram {
    counts: Vec<u64>,
    sums: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((ns >> shift) as usize - (1 << SUB_BITS))
    }

    pub fn record(&mut self, ns: u64) {
        let b = Self::bucket(ns);
        self.counts[b] += 1;
        self.sums[b] += ns;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds (nearest rank, read as the mean of
    /// its bucket), or `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = rank_index(self.total as usize, q) as u64;
        let mut seen = 0;
        for (b, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                return Some(self.sums[b] as f64 / count as f64);
            }
        }
        unreachable!("rank {rank} lies within {} samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotonic_and_narrow() {
        let mut last = 0;
        for ns in (0..5000).chain([1 << 20, (1 << 20) + 1, u64::MAX]) {
            let b = Histogram::bucket(ns);
            assert!(b >= last && b < BUCKETS);
            last = b;
        }
        assert_eq!(Histogram::bucket(127), 127);
        assert_eq!(Histogram::bucket(128), 128);
        assert_eq!(Histogram::bucket(256), 256);
        assert_eq!(Histogram::bucket(257), 256);
    }

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_ns(0.5), None);
        let samples: Vec<u64> = (1..=10_000u64).map(|i| i * 37 % 9973 + 1000).collect();
        for &s in &samples {
            h.record(s);
        }
        let exact: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let got = h.quantile_ns(q).unwrap();
            let want = quantile(&exact, q);
            assert!((got - want).abs() / want < 0.008, "q {q}: {got} vs {want}");
        }
        assert_eq!(h.len(), 10_000);
    }

    #[test]
    fn rank_index_is_nearest_rank() {
        assert_eq!(rank_index(1, 0.5), 0);
        assert_eq!(rank_index(10, 0.5), 4);
        assert_eq!(rank_index(100, 0.85), 84);
        assert_eq!(rank_index(100, 0.99), 98);
        assert_eq!(rank_index(100, 1.0), 99);
        assert_eq!(rank_index(7, 0.0), 0);
        assert_eq!(rank_index(1000, 0.999), 998);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 0.85), 15);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(10_000, 0.999), 10);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        let ladder = [0.5, 0.75, 0.85, 0.9, 0.95, 0.99, 0.999];
        assert_eq!(tail_quantile(100, &ladder), Some(0.9));
        assert_eq!(tail_quantile(99, &ladder), Some(0.85));
        assert_eq!(tail_quantile(70, &ladder), Some(0.85));
        assert_eq!(tail_quantile(66, &ladder), Some(0.75));
        assert_eq!(tail_quantile(10_000, &ladder), Some(0.999));
        assert_eq!(tail_quantile(5, &ladder), None);
        assert_eq!(tail_quantile(0, &ladder), None);
    }

    #[test]
    fn quantile_and_median() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.8), 4.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
    }
}
