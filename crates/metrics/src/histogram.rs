//! Fixed-width bucket histograms.

/// A histogram with fixed-width buckets over `[lo, hi)` plus overflow and
/// underflow counters.
///
/// # Examples
///
/// ```
/// use egm_metrics::Histogram;
///
/// let mut h = Histogram::new(0.0, 100.0, 10);
/// h.record(5.0);
/// h.record(5.5);
/// h.record(95.0);
/// assert_eq!(h.bucket_count(0), 2);
/// assert_eq!(h.bucket_count(9), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "empty range");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let idx =
                ((value - self.lo) / (self.hi - self.lo) * self.buckets.len() as f64) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Records every sample in the iterator.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Number of buckets.
    pub fn bucket_len(&self) -> usize {
        self.buckets.len()
    }

    /// Half-open value range of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.buckets.len(), "bucket out of range");
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including under/overflow.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Fraction of in-range samples falling in `[from, to)`, computed over
    /// whole buckets (bucket boundaries should align with the query for
    /// exact results). Returns 0 when nothing is in range.
    pub fn fraction_between(&self, from: f64, to: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut hit = 0u64;
        for i in 0..self.buckets.len() {
            let (blo, bhi) = self.bucket_range(i);
            if blo >= from && bhi <= to {
                hit += self.buckets[i];
            }
        }
        hit as f64 / total as f64
    }

    /// Renders a compact ASCII sparkline of the bucket counts.
    pub fn sparkline(&self) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.buckets.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return " ".repeat(self.buckets.len());
        }
        self.buckets
            .iter()
            .map(|&c| {
                let level = (c as f64 / max as f64 * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[level]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::Histogram;

    #[test]
    fn buckets_partition_the_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 3.9, 9.99] {
            h.record(v);
        }
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 2);
        assert_eq!(h.bucket_count(4), 1);
        assert_eq!(h.bucket_range(1), (2.0, 4.0));
    }

    #[test]
    fn out_of_range_goes_to_flows() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(-0.1);
        h.record(1.0);
        h.record(55.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn fraction_between_uses_aligned_buckets() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record_all([5.0, 15.0, 25.0, 35.0]);
        assert_eq!(h.fraction_between(10.0, 30.0), 0.5);
        assert_eq!(h.fraction_between(0.0, 100.0), 1.0);
        let empty = Histogram::new(0.0, 1.0, 1);
        assert_eq!(empty.fraction_between(0.0, 1.0), 0.0);
    }

    #[test]
    fn sparkline_has_one_char_per_bucket() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.record_all([0.5, 0.6, 1.5, 3.5]);
        let s = h.sparkline();
        assert_eq!(s.chars().count(), 4);
        let empty = Histogram::new(0.0, 4.0, 4);
        assert_eq!(empty.sparkline(), "    ");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn inverted_range_panics() {
        let _ = Histogram::new(5.0, 5.0, 3);
    }
}
