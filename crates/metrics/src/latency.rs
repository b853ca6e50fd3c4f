//! Log-bucketed, mergeable latency histogram for sustained-load runs.
//!
//! The open-loop workload axis records one publish→delivery latency per
//! (message, node) pair — at the 100k preset that is far too many
//! samples to keep as a `Vec<f64>`. [`LatencyHistogram`] stores them in
//! O(1) memory instead: a fixed array of power-of-two groups, each split
//! into 32 linear sub-buckets (hdrhistogram-style), giving a worst-case
//! relative quantile error of 1/32 ≈ 3.1 %.
//!
//! All state is integer counters, so [`LatencyHistogram::merge`] is plain
//! counter addition: commutative and associative. Shards can each record
//! locally and merge in any order without changing a single reported
//! quantile — which is what keeps multi-shard runs byte-identical to
//! one-shard ones.
//!
//! # Examples
//!
//! ```
//! use egm_metrics::LatencyHistogram;
//!
//! let mut h = LatencyHistogram::new();
//! for ms in [1.0, 2.0, 3.0, 100.0] {
//!     h.record_ms(ms);
//! }
//! assert_eq!(h.total(), 4);
//! assert!(h.p50_ms() >= 2.0);
//! assert!(h.p99_ms() >= 100.0);
//! ```

/// Number of low-order bits of linear resolution per power-of-two group.
const SUB_BITS: u32 = 5;
/// Sub-buckets per group (`2^SUB_BITS`).
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range in microseconds.
///
/// Values below `SUB` get one exact bucket each; a value with most
/// significant bit `m >= SUB_BITS` lands in group `m - SUB_BITS` at index
/// `(m - SUB_BITS) * SUB + (v >> (m - SUB_BITS))`, which for `m = 63`
/// tops out just below `(64 - SUB_BITS - 1 + 2) * SUB`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Returns the bucket index for a latency of `v` microseconds.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let shift = msb - SUB_BITS as usize;
    shift * SUB + (v >> shift) as usize
}

/// Returns the inclusive upper bound (in microseconds) of bucket `idx`.
///
/// Quantiles report this bound, so they never under-estimate a latency by
/// more than the bucket's width (≤ 1/32 of its value).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let group = idx / SUB - 1;
    let sub = (idx - group * SUB) as u64;
    // The very top bucket's bound is 2^64; wrapping_sub yields u64::MAX.
    ((sub + 1) << group).wrapping_sub(1)
}

/// A log-bucketed latency histogram with O(1) memory and exact merging.
///
/// Latencies are recorded in whole microseconds. Buckets below 32 µs are
/// exact; above that, each power-of-two range is split into 32 linear
/// sub-buckets. Count, sum, min, and max are tracked exactly, so
/// [`mean_ms`](Self::mean_ms) and [`max_ms`](Self::max_ms) carry no
/// bucketing error — only the interior quantiles are approximate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_us: u128,
    min_us: u64,
    max_us: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Records one latency sample in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.counts[bucket_index(us)] += 1;
        self.total += 1;
        self.sum_us += us as u128;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Records one latency sample in milliseconds.
    ///
    /// The sample is rounded to the nearest microsecond; negative or
    /// non-finite inputs clamp to 0.
    pub fn record_ms(&mut self, ms: f64) {
        let us = if ms.is_finite() && ms > 0.0 {
            (ms * 1000.0).round() as u64
        } else {
            0
        };
        self.record_us(us);
    }

    /// Folds another histogram into this one.
    ///
    /// Pure counter addition: `a.merge(&b)` equals `b.merge(&a)` and any
    /// parenthesisation of a multi-way merge yields identical state.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Returns the number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Returns the `q`-quantile (0 < q ≤ 1) in microseconds, or 0 when
    /// empty.
    ///
    /// Reports the upper bound of the bucket containing the target rank,
    /// so results are deterministic integers independent of merge order.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                // Never report past the observed extremes.
                return bucket_upper(idx).clamp(self.min_us, self.max_us);
            }
        }
        self.max_us
    }

    /// Median latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.quantile_us(0.50) as f64 / 1000.0
    }

    /// 99th-percentile latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.quantile_us(0.99) as f64 / 1000.0
    }

    /// 99.9th-percentile latency in milliseconds.
    pub fn p999_ms(&self) -> f64 {
        self.quantile_us(0.999) as f64 / 1000.0
    }

    /// Exact mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum_us as f64 / self.total as f64 / 1000.0
    }

    /// Exact minimum latency in milliseconds (0 when empty).
    pub fn min_ms(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.min_us as f64 / 1000.0
    }

    /// Exact maximum latency in milliseconds (0 when empty).
    pub fn max_ms(&self) -> f64 {
        self.max_us as f64 / 1000.0
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::{bucket_index, bucket_upper, LatencyHistogram, BUCKETS, SUB};

    #[test]
    fn buckets_are_monotone_and_in_range() {
        let mut values = Vec::new();
        for msb in 0..64u32 {
            values.push(1u64 << msb);
            values.push((1u64 << msb) + (1u64 << msb) / 3);
            values.push(u64::MAX >> (63 - msb));
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} for {v}");
            assert!(idx >= last, "non-monotone index at {v}");
            assert!(bucket_upper(idx) >= v, "upper bound below value {v}");
            last = idx;
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 999, 5_000, 123_456, 9_999_999, u64::MAX / 3] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            let err = (upper - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB as f64 + 1e-12, "error {err} at {v}");
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record_us(us * 100); // 100 µs .. 100 ms uniform
        }
        assert_eq!(h.total(), 1000);
        let p50 = h.quantile_us(0.5);
        assert!((49_000..=52_000).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!((98_000..=102_000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile_us(1.0), 100_000);
        assert_eq!(h.max_ms(), 100.0);
        assert_eq!(h.min_ms(), 0.1);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.p999_ms(), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.min_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let samples: Vec<u64> = (0..5000u64).map(|i| i * i % 777_777).collect();
        let mut whole = LatencyHistogram::new();
        for &s in &samples {
            whole.record_us(s);
        }
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 3 == 0 {
                left.record_us(s);
            } else {
                right.record_us(s);
            }
        }
        // Merge in both orders; both must equal the single-stream result.
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, whole);
        assert_eq!(rl, whole);
    }

    #[test]
    fn record_ms_clamps_bad_samples() {
        let mut h = LatencyHistogram::new();
        h.record_ms(-5.0);
        h.record_ms(f64::NAN);
        h.record_ms(1.5);
        assert_eq!(h.total(), 3);
        assert_eq!(h.quantile_us(1.0), 1500);
    }
}
