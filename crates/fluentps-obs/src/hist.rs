//! A small fixed-bucket histogram for synchronization wait times.
//!
//! Power-of-two buckets over integer values (iterations waited, microseconds
//! queued, …): enough resolution to report p50/p95/p99 in the experiment
//! tables without unbounded memory. Lives here (rather than in
//! `fluentps-core`) so the metrics registry and `ShardStats` share one
//! implementation.

/// Histogram over `u64` values with power-of-two buckets: bucket `i` covers
/// `[2^(i−1), 2^i)` with bucket 0 covering exactly `{0}`.
///
/// ```
/// use fluentps_obs::hist::Histogram;
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 4, 100] { h.record(v); }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile_upper(0.5) <= 4);
/// assert_eq!(h.max(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 33],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 33],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()).min(32) as usize
        }
    }

    /// Upper bound (exclusive) of bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            1
        } else if i >= 32 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`); an over-estimate by at most 2×. Returns 0 when empty.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Self::bucket_upper(i).min(self.max.max(1));
            }
        }
        self.max
    }

    /// Reset to the empty state without reallocating, so ring-of-window
    /// wrappers (see `stream::WindowedHistogram`) can rotate slots in place.
    pub fn clear(&mut self) {
        self.buckets = [0; 33];
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_upper(0.99), 0);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 16.0 / 5.0);
        assert_eq!(h.max(), 10);
    }

    #[test]
    fn quantiles_bracket_true_values() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile_upper(0.5);
        let p99 = h.quantile_upper(0.99);
        // Bucketed upper bounds: within 2× of the true quantile.
        assert!((500..=1024).contains(&p50), "p50 {p50}");
        assert!((990..=1024).contains(&p99), "p99 {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn zero_heavy_distribution() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(0);
        }
        h.record(1000);
        assert_eq!(h.quantile_upper(0.5), 1);
        assert_eq!(h.quantile_upper(1.0), 1000);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(2);
        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 100);
        assert_eq!(a.mean(), 103.0 / 3.0);
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut h = Histogram::new();
        for v in [1u64, 7, 500] {
            h.record(v);
        }
        h.clear();
        assert_eq!(h, Histogram::new());
        h.record(3);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile_upper(0.5) > 0);
    }
}
