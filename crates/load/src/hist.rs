//! A log-bucketed, mergeable latency histogram.
//!
//! HDR-style log-linear bucketing, shared with
//! [`gencon_metrics::Histogram`]: values below 2·2⁵ = 64 are recorded
//! exactly; above, each power-of-two octave is split into 2⁵ = 32
//! sub-buckets, bounding the relative quantile error at 1/32 ≈ 3.1% while
//! keeping the whole `u64` range in under 2k fixed-size buckets. Histograms
//! merge by bucket-wise addition, so per-shard recordings aggregate without
//! loss beyond the shared bucketing.

use gencon_metrics::{index_of, quantile_of};

/// Log-bucketed histogram of `u64` samples (latencies in rounds, micros, …).
///
/// ```
/// use gencon_load::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 100);
/// assert_eq!(h.quantile(0.5), 50);
/// assert_eq!(h.max(), 100);
/// ```
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = index_of(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The exact smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Arithmetic mean of the recorded samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: the smallest bucket upper edge
    /// such that at least `⌈q·count⌉` samples fall at or below it. Exact
    /// below 64; within 3.2% above. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        quantile_of(self.buckets.iter().copied(), self.count, self.max, q)
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_metrics::{value_of, LINEAR_MAX};

    #[test]
    fn agrees_with_the_metrics_histogram() {
        let mut local = LatencyHistogram::new();
        let shared = gencon_metrics::Histogram::default();
        for v in [0, 1, 63, 64, 65, 1_000, 123_456, u64::MAX / 3, u64::MAX] {
            local.record(v);
            shared.record(v);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(local.quantile(q), shared.quantile(q), "q = {q}");
        }
        assert_eq!(local.max(), shared.max());
        assert_eq!(local.max(), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..LINEAR_MAX {
            assert_eq!(value_of(index_of(v)), v);
        }
        for v in 1..=50u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 25);
        assert_eq!(h.quantile(1.0), 50);
        assert_eq!(h.quantile(0.02), 1);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 50);
        assert!((h.mean() - 25.5).abs() < 1e-9);
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.quantile(0.9), u64::MAX);
        assert_eq!(h.quantile(0.01), 1);
    }

    #[test]
    fn large_values_within_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in [100u64, 1_000, 10_000, 1_000_000, u64::MAX / 2] {
            let idx = index_of(v);
            let rep = value_of(idx);
            assert!(rep >= v, "upper edge covers the sample: {rep} >= {v}");
            assert!(
                (rep - v) as f64 <= v as f64 / 16.0,
                "{v} → {rep} exceeds bucket error"
            );
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), u64::MAX / 2);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for i in 0..1000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % 100_000;
            h.record(x);
        }
        let qs: Vec<u64> = [0.1, 0.5, 0.9, 0.99, 0.999, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
        }
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99() && h.p99() <= h.p999());
        assert!(h.p999() <= h.max());
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in 1..=500u64 {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v * 100);
            }
            all.record(if v % 2 == 0 { v } else { v * 100 });
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.min(), all.min());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn record_n_counts() {
        let mut h = LatencyHistogram::new();
        h.record_n(7, 99);
        h.record_n(9, 0);
        h.record(1000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 7);
        assert!(h.p999() >= 1000);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_bad_q() {
        let _ = LatencyHistogram::new().quantile(1.5);
    }
}
