//! xoshiro256\*\* core generator with SplitMix64 seeding and common
//! distributions (uniform ranges, Bernoulli, exponential, normal).

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// The generator is `Clone` (cloning duplicates the stream) and supports
/// [`Rng::fork`] to derive an independent child stream, which is how the
/// simulator hands per-node randomness out of a single experiment seed.
///
/// # Examples
///
/// ```
/// use egm_rng::Rng;
///
/// let mut a = Rng::seed_from_u64(1);
/// let mut b = Rng::seed_from_u64(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// SplitMix64 step used for seed expansion, as recommended by the xoshiro
/// authors.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    ///
    /// Any seed (including 0) yields a valid, non-degenerate state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child generator from this one.
    ///
    /// The child's stream is fully determined by the parent's state at the
    /// time of the call; the parent advances by one draw.
    pub fn fork(&mut self) -> Self {
        Rng::seed_from_u64(self.next_u64())
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `u64` in `[lo, hi)` using Lemire-style rejection.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % span;
            }
        }
    }

    /// Returns a uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        lo + (hi - lo) * self.f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Samples an exponentially distributed value with the given mean.
    ///
    /// Used for e.g. inter-arrival jitter. Returns 0 for `mean <= 0` and for
    /// non-finite means (`NaN`, `±∞`), so a malformed rate spec can never
    /// produce a `NaN` event time that would corrupt queue ordering. The
    /// result is always finite and non-negative.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if !mean.is_finite() || mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF; 1 - f64() is in (0, 1] so ln is finite. The min()
        // guards against overflow to +inf for astronomically large means.
        (-mean * (1.0 - self.f64()).ln()).min(f64::MAX)
    }

    /// Samples a normally distributed value via the Box–Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.f64(); // (0, 1]
        let u2 = self.f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::seed_from_u64(0xDEAD_BEEF);
        let mut b = Rng::seed_from_u64(0xDEAD_BEEF);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut rng = Rng::seed_from_u64(0);
        let first = rng.next_u64();
        let second = rng.next_u64();
        assert_ne!(first, 0);
        assert_ne!(first, second);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::seed_from_u64(99);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut rng = Rng::seed_from_u64(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_u64_hits_all_values_of_small_range() {
        let mut rng = Rng::seed_from_u64(5);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.range_u64(0, 6) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_u64_respects_bounds() {
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..10_000 {
            let v = rng.range_u64(17, 42);
            assert!((17..42).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_u64_rejects_empty() {
        let mut rng = Rng::seed_from_u64(7);
        let _ = rng.range_u64(5, 5);
    }

    #[test]
    fn bool_extremes() {
        let mut rng = Rng::seed_from_u64(8);
        assert!(!rng.bool(0.0));
        assert!(rng.bool(1.0));
        assert!(!rng.bool(-1.0));
        assert!(rng.bool(2.0));
    }

    #[test]
    fn bool_probability_is_calibrated() {
        let mut rng = Rng::seed_from_u64(9);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn exponential_mean_is_calibrated() {
        let mut rng = Rng::seed_from_u64(10);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(250.0)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 5.0, "mean {mean}");
        assert_eq!(rng.exponential(0.0), 0.0);
        assert_eq!(rng.exponential(-3.0), 0.0);
    }

    #[test]
    fn exponential_clamps_malformed_means() {
        let mut rng = Rng::seed_from_u64(13);
        assert_eq!(rng.exponential(f64::NAN), 0.0);
        assert_eq!(rng.exponential(f64::INFINITY), 0.0);
        assert_eq!(rng.exponential(f64::NEG_INFINITY), 0.0);
        // A huge-but-finite mean must still yield a finite sample.
        for _ in 0..1000 {
            let v = rng.exponential(f64::MAX);
            assert!(v.is_finite() && v >= 0.0, "sample {v}");
        }
    }

    #[test]
    fn normal_moments_are_calibrated() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn clone_duplicates_stream() {
        let mut a = Rng::seed_from_u64(12);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
