//! Summary statistics used by the analyzer and the reproduction harness.
//!
//! tcpanaly compares candidate TCP implementations using statistics of
//! *response delays* (§6.1: minimum and mean response times) and reports
//! ack-delay *distributions* (§9.1: BSD's uniform 0–200 ms spread). These
//! helpers keep that logic in one place.

use crate::time::Duration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Running summary of a set of durations: count, min, max, mean and a few
/// percentiles (computed exactly; samples are retained).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<Duration>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary::default()
    }

    /// An empty summary with room for `n` samples.
    pub fn with_capacity(n: usize) -> Summary {
        Summary {
            samples: Vec::with_capacity(n),
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, d: Duration) {
        self.samples.push(d);
    }

    /// A copy with room for `n` samples in all.
    pub fn clone_with_capacity(&self, n: usize) -> Summary {
        let mut samples = Vec::with_capacity(n.max(self.samples.len()));
        samples.extend_from_slice(&self.samples);
        Summary { samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<Duration> {
        self.samples.iter().copied().min()
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<Duration> {
        self.samples.iter().copied().max()
    }

    /// Arithmetic mean, if any samples exist.
    pub fn mean(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: i128 = self.samples.iter().map(|d| i128::from(d.0)).sum();
        Some(Duration((sum / self.samples.len() as i128) as i64))
    }

    /// Exact percentile by nearest-rank (p in [0, 100]): the rank is
    /// selected in a copy of the samples, in linear time, so the samples
    /// keep their order.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let at = nearest_rank(p, self.samples.len());
        let mut copy = self.samples.clone();
        Some(*copy.select_nth_unstable(at).1)
    }

    /// `true` iff the nearest-rank `p`th percentile is at most `bound`,
    /// or there are no samples: decided by counting the samples at most
    /// `bound`, with no copy and no selection.
    pub fn percentile_at_most(&self, p: f64, bound: Duration) -> bool {
        let n = self.samples.len();
        n == 0 || self.samples.iter().filter(|&&d| d <= bound).count() > nearest_rank(p, n)
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<Duration> {
        self.percentile(50.0)
    }

    /// Borrow of the raw samples, in insertion order.
    pub fn samples(&self) -> &[Duration] {
        &self.samples
    }
}

/// The index, in sorted order, of the nearest-rank `p`th percentile of
/// `n > 0` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    rank.min(n) - 1
}

/// Exact running median of a stream of durations: after every
/// [`add`](RunningMedian::add), [`median`](RunningMedian::median) equals
/// [`Summary::median`] over the same samples (nearest rank, so the lower
/// middle for an even count), in O(log n) per insertion instead of a sort
/// per query.
#[derive(Debug, Clone, Default)]
pub struct RunningMedian {
    /// The smallest ⌈n/2⌉ samples; its top is the median.
    lower: BinaryHeap<Duration>,
    /// The largest ⌊n/2⌋ samples.
    upper: BinaryHeap<Reverse<Duration>>,
}

impl RunningMedian {
    /// An empty running median.
    pub fn new() -> RunningMedian {
        RunningMedian::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, d: Duration) {
        // Keep |lower| = ⌈n/2⌉. When `d`'s side is already full, the one
        // element that crosses over is replaced in place: one sift.
        let below = self.lower.peek().is_none_or(|&top| d <= top);
        if below && self.lower.len() > self.upper.len() {
            // `lower` is full: its top crosses over and `d` takes its place.
            if let Some(mut top) = self.lower.peek_mut() {
                let crossing = std::mem::replace(&mut *top, d);
                self.upper.push(Reverse(crossing));
            }
        } else if below {
            self.lower.push(d);
        } else if self.upper.len() == self.lower.len() {
            // `upper` is full: the least of it and `d` crosses over.
            let crossing = match self.upper.peek_mut() {
                Some(mut bottom) if bottom.0 < d => std::mem::replace(&mut bottom.0, d),
                _ => d,
            };
            self.lower.push(crossing);
        } else {
            self.upper.push(Reverse(d));
        }
    }

    /// Adds every sample of `ds`, making room for them first.
    pub fn add_all(&mut self, ds: &[Duration]) {
        self.lower.reserve(ds.len().div_ceil(2));
        self.upper.reserve(ds.len() / 2 + 1);
        for &d in ds {
            self.add(d);
        }
    }

    /// The nearest-rank median, `None` when empty.
    pub fn median(&self) -> Option<Duration> {
        self.lower.peek().copied()
    }
}

/// A fixed-bin histogram over durations, for reporting distributions such
/// as §9.1's delayed-ack latencies.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: Duration,
    bin_width: Duration,
    bins: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above the top edge.
    pub overflow: u64,
}

impl Histogram {
    /// Builds a histogram with `n_bins` bins of width `bin_width`, starting
    /// at `lo`.
    pub fn new(lo: Duration, bin_width: Duration, n_bins: usize) -> Histogram {
        assert!(bin_width.0 > 0, "bin width must be positive");
        assert!(n_bins > 0, "need at least one bin");
        Histogram {
            lo,
            bin_width,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, d: Duration) {
        if d < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((d.0 - self.lo.0) / self.bin_width.0) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total in-range samples.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// The `[lo, hi)` range of bin `i`.
    pub fn bin_range(&self, i: usize) -> (Duration, Duration) {
        let lo = Duration(self.lo.0 + self.bin_width.0 * i as i64);
        (lo, lo + self.bin_width)
    }

    /// Coefficient of variation of the bin counts — a cheap uniformity
    /// check. A uniform distribution over the bins has CV near 0; a
    /// point-mass puts nearly everything in one bin (CV ≈ √n). Used to
    /// distinguish BSD's even 0–200 ms delayed-ack spread from Linux 1.0's
    /// ≈1 ms point mass (§9.1).
    pub fn cv(&self) -> f64 {
        let n = self.bins.len() as f64;
        let total = self.total() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let mean = total / n;
        let var = self
            .bins
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }

    /// A one-line bar rendering for reports.
    pub fn render(&self) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &count) in self.bins.iter().enumerate() {
            let (lo, hi) = self.bin_range(i);
            let bar_len = (count * 50 / max) as usize;
            out.push_str(&format!(
                "{:>10} - {:>10} | {:<50} {}\n",
                lo.to_string(),
                hi.to_string(),
                "#".repeat(bar_len),
                count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for ms in [10, 20, 30, 40] {
            s.add(Duration::from_millis(ms));
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), Some(Duration::from_millis(10)));
        assert_eq!(s.max(), Some(Duration::from_millis(40)));
        assert_eq!(s.mean(), Some(Duration::from_millis(25)));
    }

    #[test]
    fn summary_percentiles_nearest_rank() {
        let mut s = Summary::new();
        for ms in 1..=100 {
            s.add(Duration::from_millis(ms));
        }
        assert_eq!(s.percentile(50.0), Some(Duration::from_millis(50)));
        assert_eq!(s.percentile(95.0), Some(Duration::from_millis(95)));
        assert_eq!(s.percentile(100.0), Some(Duration::from_millis(100)));
        assert_eq!(s.percentile(0.0), Some(Duration::from_millis(1)));
    }

    #[test]
    fn summary_empty_is_none() {
        let s = Summary::new();
        assert!(s.mean().is_none());
        assert!(s.percentile(50.0).is_none());
    }

    #[test]
    fn running_median_tracks_summary_median_after_every_insertion() {
        // Deterministic LCG stream: negatives, zeros and heavy duplicates
        // (values drawn from a range of 21 around zero), plus a run of
        // wide-range values so both heaps see reordering.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for len in [1usize, 2, 3, 4, 7, 64, 2000] {
            let mut running = RunningMedian::new();
            let mut summary = Summary::new();
            assert_eq!(running.median(), None);
            for i in 0..len {
                let d = if i % 3 == 0 {
                    Duration(next(2_000_001) as i64 - 1_000_000)
                } else {
                    Duration::from_millis(next(21) as i64 - 10)
                };
                running.add(d);
                summary.add(d);
                assert_eq!(running.median(), summary.median(), "len {len}, after {i}");
            }
        }
        // Tie-heavy: two or three distinct values, runs of one value,
        // and ascending and descending ladders that tie at every step.
        type Stream = fn(usize) -> i64;
        let streams: [(&str, Stream); 5] = [
            ("two values", |i| (i * 7 % 5 == 0) as i64),
            ("three values", |i| (i * 13 % 7 % 3) as i64),
            ("one value", |_| 4),
            ("ascending pairs", |i| i as i64 / 2),
            ("descending pairs", |i| -(i as i64 / 2)),
        ];
        for (name, value) in &streams {
            let mut running = RunningMedian::new();
            let mut summary = Summary::new();
            for i in 0..300 {
                let d = Duration::from_millis(value(i));
                running.add(d);
                summary.add(d);
                assert_eq!(running.median(), summary.median(), "{name}, after {i}");
            }
        }
    }

    #[test]
    fn percentile_at_most_matches_the_selected_percentile() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let mut inputs: Vec<Vec<Duration>> = vec![Vec::new()];
        for len in [1usize, 2, 3, 9, 10, 11, 100, 257] {
            // Random over a wide range, and tie-heavy over four values.
            inputs.push((0..len).map(|_| Duration(next(100_001) as i64)).collect());
            inputs.push((0..len).map(|_| Duration(next(4) as i64 * 10)).collect());
        }
        for samples in &inputs {
            let mut s = Summary::new();
            samples.iter().for_each(|&d| s.add(d));
            for p in [50.0, 90.0] {
                // Bounds at, between and beyond every sample value.
                let bounds = samples
                    .iter()
                    .flat_map(|d| [d.0 - 1, d.0, d.0 + 1])
                    .chain([-1, 0, 100_001]);
                for bound in bounds.map(Duration) {
                    assert_eq!(
                        s.percentile_at_most(p, bound),
                        s.percentile(p).is_none_or(|v| v <= bound),
                        "p {p}, bound {bound:?}, samples {samples:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(Duration::ZERO, Duration::from_millis(50), 4);
        h.add(Duration::from_millis(-1)); // underflow
        h.add(Duration::from_millis(0));
        h.add(Duration::from_millis(49));
        h.add(Duration::from_millis(50));
        h.add(Duration::from_millis(199));
        h.add(Duration::from_millis(200)); // overflow
        assert_eq!(h.bins(), &[2, 1, 0, 1]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.total(), 4);
        assert_eq!(
            h.bin_range(1),
            (Duration::from_millis(50), Duration::from_millis(100))
        );
    }

    #[test]
    fn histogram_cv_separates_uniform_from_point_mass() {
        let mut uniform = Histogram::new(Duration::ZERO, Duration::from_millis(10), 20);
        let mut point = Histogram::new(Duration::ZERO, Duration::from_millis(10), 20);
        for i in 0..200 {
            uniform.add(Duration::from_millis(i % 200));
            point.add(Duration::from_millis(1));
        }
        assert!(uniform.cv() < 0.3, "uniform cv = {}", uniform.cv());
        assert!(point.cv() > 3.0, "point cv = {}", point.cv());
    }

    #[test]
    fn histogram_render_has_bin_per_line() {
        let mut h = Histogram::new(Duration::ZERO, Duration::from_millis(100), 2);
        h.add(Duration::from_millis(10));
        let rendered = h.render();
        assert_eq!(rendered.lines().count(), 2);
    }
}
