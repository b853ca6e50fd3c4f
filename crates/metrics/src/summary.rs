//! Summary statistics with 95 % confidence intervals.

/// Summary statistics over a set of `f64` samples.
///
/// The confidence interval uses the normal approximation
/// (`1.96 · s / √n`), which is what the paper relies on: *"confidence
/// intervals with 95 % certainty do not intersect ... the large number of
/// samples used are sufficient to make such intervals very narrow"*
/// (§5.4).
///
/// # Examples
///
/// ```
/// use egm_metrics::Summary;
///
/// let s = Summary::from_samples(&[10.0, 12.0, 11.0, 13.0]);
/// assert!((s.mean - 11.5).abs() < 1e-9);
/// assert!(s.ci95_contains(11.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Half-width of the 95 % confidence interval for the mean.
    pub ci95_half: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Computes statistics over `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        assert!(samples.iter().all(|x| x.is_finite()), "non-finite sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std_dev = if n < 2 {
            0.0
        } else {
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        let ci95_half = if n < 2 {
            0.0
        } else {
            1.96 * std_dev / (n as f64).sqrt()
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            n,
            mean,
            std_dev,
            ci95_half,
            min,
            max,
        }
    }

    /// Whether `value` lies within the 95 % confidence interval of the
    /// mean.
    pub fn ci95_contains(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.ci95_half
    }

    /// Whether the confidence intervals of `self` and `other` are
    /// disjoint — the paper's criterion for calling a difference
    /// significant (§5.4).
    pub fn significantly_differs_from(&self, other: &Summary) -> bool {
        (self.mean - other.mean).abs() > self.ci95_half + other.ci95_half
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} ± {:.2} (n={}, sd={:.2}, range {:.2}–{:.2})",
            self.mean, self.ci95_half, self.n, self.std_dev, self.min, self.max
        )
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of the samples using linear
/// interpolation between order statistics.
///
/// # Panics
///
/// Panics if `samples` is empty or `q` is outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "cannot take quantile of zero samples");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::{quantile, Summary};

    #[test]
    fn basic_moments() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.n, 8);
        assert!((s.std_dev - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Summary::from_samples(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half, 0.0);
        assert!(s.ci95_contains(3.5));
    }

    #[test]
    fn significance_requires_disjoint_intervals() {
        let a = Summary::from_samples(&[10.0, 10.1, 9.9, 10.05, 9.95]);
        let b = Summary::from_samples(&[12.0, 12.1, 11.9, 12.05, 11.95]);
        assert!(a.significantly_differs_from(&b));
        let c = Summary::from_samples(&[10.0, 12.0, 8.0, 14.0, 6.0]);
        assert!(!a.significantly_differs_from(&c), "wide CI should overlap");
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_summary_panics() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_sample_panics() {
        let _ = Summary::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn quantiles_interpolate() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert_eq!(quantile(&samples, 0.5), 2.5);
        assert!((quantile(&samples, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_monotonic() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        let mut last = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = quantile(&samples, i as f64 / 10.0);
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn display_mentions_mean_and_ci() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0]);
        let text = s.to_string();
        assert!(text.contains("2.00 ±"));
        assert!(text.contains("n=3"));
    }
}
