//! Fixed log-scale duration histograms.
//!
//! Bucket `i` holds values whose base-2 magnitude is `i` (i.e. the
//! half-open range `[2^i, 2^(i+1))`, with 0 landing in bucket 0). The
//! bucket layout never varies, so histograms merge by per-bucket
//! addition: a corpus analyzed by 8 workers produces the same merged
//! bucket counts as 1 worker, whatever the completion order. Percentiles
//! are read off the cumulative bucket counts and reported as the
//! covering bucket's inclusive upper bound, which keeps them
//! order-independent too (the raw `sum`/`max` remain exact).

/// Number of buckets: one per base-2 magnitude of a `u64` nanosecond count.
pub const BUCKETS: usize = 64;

/// A mergeable log₂-bucketed histogram of nanosecond durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

/// The bucket index covering `value`.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (u64::BITS - 1 - value.leading_zeros()) as usize
    }
}

/// The inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> LogHistogram {
        LogHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value (a duration in nanoseconds).
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `p`-th percentile (0 < p ≤ 100) as the inclusive upper bound
    /// of the bucket where the cumulative count crosses `p`% — a
    /// deterministic over-estimate within a factor of 2. Returns 0 for
    /// an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Adds another histogram's contents into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The per-bucket difference `self - earlier`, for interval snapshots
    /// (`earlier` must be a prefix of this histogram's history). The exact
    /// maximum of the interval is not recoverable, so `max` is bounded by
    /// both `self.max` and the upper bound of the interval's highest
    /// non-empty bucket; an empty interval has `max` 0.
    pub fn since(&self, earlier: &LogHistogram) -> LogHistogram {
        let mut counts = [0u64; BUCKETS];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        let max = counts
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |top| self.max.min(bucket_upper(top)));
        LogHistogram {
            counts,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_magnitudes() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), 1024);
        // p50 → 5th value (16) → bucket 4 → upper 31.
        assert_eq!(h.percentile(50.0), 31);
        // p100 → last value (1024) → bucket 10 → upper 2047.
        assert_eq!(h.percentile(100.0), 2047);
        assert_eq!(LogHistogram::new().percentile(50.0), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let values = [3u64, 17, 99, 1000, 5, 123456, 7, 0];
        let mut whole = LogHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        let mut merged = b.clone();
        merged.merge(&a);
        assert_eq!(merged, whole);
        let mut other_order = a;
        other_order.merge(&b);
        assert_eq!(other_order, whole);
    }

    #[test]
    fn since_subtracts_a_prefix() {
        let mut h = LogHistogram::new();
        h.record(10);
        let early = h.clone();
        h.record(100);
        h.record(1000);
        let delta = h.since(&early);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 1100);
        assert_eq!(delta.max(), 1000);
        assert_eq!(h.since(&h).count(), 0);
    }

    #[test]
    fn since_an_empty_interval_has_no_max() {
        let mut h = LogHistogram::new();
        h.record(16_154_545);
        let delta = h.since(&h);
        assert!(delta.is_empty());
        assert_eq!(delta.max(), 0);
        assert_eq!(delta.percentile(50.0), 0);
    }

    #[test]
    fn since_bounds_a_stale_max_by_the_interval_buckets() {
        let mut h = LogHistogram::new();
        h.record(1_000_000);
        let early = h.clone();
        h.record(100);
        // The interval saw only 100 (bucket [64, 127]); the all-time max
        // of 1,000,000 must not leak into it.
        assert_eq!(h.since(&early).max(), 127);
    }
}
