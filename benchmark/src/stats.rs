//! Order statistics and the harness's own input generator.

/// SplitMix64: the harness's input generator. Inputs (job seeds, lookup
/// pairs, queue gaps) are drawn here so the program only ever receives
/// generated inputs, never the benchmark seed's RNG state.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant for
    /// benchmark inputs.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of a sorted, non-empty sample.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// `(q1, q3)` as Python's default `statistics.quantiles(values, n=4)`
/// gives them (the *exclusive* method) — the spread the acceptance rule
/// is stated in, so `--compare` must reproduce it exactly.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    let at = |k: usize| {
        // Python: j = i*m // n clamped to 1..=ld-1, delta = i*m - j*n,
        // with m = len + 1 and n = 4 cut points.
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n.max(2) - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        if n == 1 {
            return v[0];
        }
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The tail percentiles the harness is willing to report, highest first,
/// each with the `k` of "one sample in `k` lies beyond it".
const TAIL_LADDER: [(f64, usize); 4] = [(0.999, 1000), (0.99, 100), (0.9, 10), (0.75, 4)];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten
/// samples beyond it, as `(percentile, value)`; `None` when even the
/// lowest rung has fewer (under 40 samples).
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    TAIL_LADDER
        .iter()
        .find(|&&(_, one_in)| v.len() / one_in >= 10)
        .map(|&(p, _)| (p, quantile_sorted(&v, p)))
}

/// One fixed percentile of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles_exclusive(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            (1.5, 12.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let n = |len: usize| -> Vec<f64> { (0..len).map(|i| i as f64).collect() };
        assert_eq!(tail_percentile(&n(39)), None);
        assert_eq!(tail_percentile(&n(40)).map(|t| t.0), Some(0.75));
        assert_eq!(tail_percentile(&n(99)).map(|t| t.0), Some(0.75));
        assert_eq!(tail_percentile(&n(100)).map(|t| t.0), Some(0.9));
        assert_eq!(tail_percentile(&n(999)).map(|t| t.0), Some(0.9));
        assert_eq!(tail_percentile(&n(1_000)).map(|t| t.0), Some(0.99));
        assert_eq!(tail_percentile(&n(10_000)).map(|t| t.0), Some(0.999));
        let (p, v) = tail_percentile(&n(1_001)).unwrap();
        assert_eq!(p, 0.99);
        assert_eq!(v, 990.0);
    }

    #[test]
    fn splitmix_is_deterministic_and_shuffles() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<u32> = (0..100).collect();
        a.shuffle(&mut items);
        let mut again: Vec<u32> = (0..100).collect();
        b.shuffle(&mut again);
        assert_eq!(items, again);
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<u32>>());
    }
}
