//! Shared measurement primitives: allocation-free latency histograms.
//!
//! The `msoc_net` server records per-outcome request latencies with this
//! histogram, and the bench harness records its load trace's latencies
//! with it too.

/// A log2-bucketed latency histogram: fixed 64-bucket storage, no
/// allocation on [`record`](Self::record), mergeable across threads.
///
/// Bucket `i` covers values `v` with `floor(log2(max(v, 1))) == i`, i.e.
/// `[2^i, 2^(i+1))` (bucket 0 also takes `v = 0`). Quantiles come back as
/// the **upper bound** of the bucket holding that rank — pessimistic by at
/// most 2×, which is the right bias for latency reporting and keeps the
/// histogram O(1) in space regardless of sample count. Per-submitter
/// histograms merge associatively, so a multi-threaded load harness
/// records locally (no shared cache line) and merges once at the end.
///
/// # Examples
///
/// ```
/// let mut h = msoc_core::LatencyHistogram::new();
/// for us in [3u64, 5, 9, 1000] {
///     h.record(us);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile(0.5) >= 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        LatencyHistogram { buckets: [0; 64], count: 0 }
    }

    /// Records one sample (any unit; callers here use microseconds).
    pub fn record(&mut self, value: u64) {
        self.buckets[value.max(1).ilog2() as usize] += 1;
        self.count += 1;
    }

    /// Total samples recorded (including merged ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram into this one (commutative, associative).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// The value at quantile `q` in `[0, 1]` (upper bucket bound, so e.g.
    /// `quantile(0.99)` is a ≤2× pessimistic p99). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_log2_exact() {
        // Each power of two opens a new bucket; the value just below it
        // still reports the previous bucket's upper bound.
        for shift in 1..63u32 {
            let low = 1u64 << shift;
            let mut h = LatencyHistogram::new();
            h.record(low - 1);
            assert_eq!(h.quantile(1.0), low - 1, "value {} closes bucket {}", low - 1, shift - 1);
            let mut h2 = LatencyHistogram::new();
            h2.record(low);
            assert_eq!(h2.quantile(1.0), 2 * low - 1, "at {low}");
        }
        // Zero and one share bucket 0 (upper bound 1).
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.quantile(1.0), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_quantiles_walk_the_cumulative_counts() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(10); // bucket [8, 16) → upper bound 15
        }
        for _ in 0..10 {
            h.record(1000); // bucket [512, 1024) → upper bound 1023
        }
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(0.9), 15);
        assert_eq!(h.quantile(0.95), 1023);
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(LatencyHistogram::new().quantile(0.99), 0, "empty histogram");
    }

    #[test]
    fn histogram_merge_is_associative_and_matches_single_recording() {
        let samples: Vec<u64> = (0..300).map(|i| (i * 37 + 11) % 5000).collect();
        let mut whole = LatencyHistogram::new();
        let (mut a, mut b, mut c) =
            (LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new());
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            [&mut a, &mut b, &mut c][i % 3].record(v);
        }
        // (a ∪ b) ∪ c == a ∪ (b ∪ c) == whole
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut right = b;
        right.merge(&c);
        let mut right_total = a;
        right_total.merge(&right);
        assert_eq!(left, right_total);
        assert_eq!(left, whole);
        assert_eq!(left.count(), samples.len() as u64);
    }
}
