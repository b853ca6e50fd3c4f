//! Aggregate model statistics matching the figures quoted in §5.1 of the
//! paper.

/// Distributional properties of a [`RoutedModel`](crate::RoutedModel),
/// mirroring the quantities the paper reports for its Inet-3.0 model:
/// *"average hop distance between client nodes is 5.54, with 74.28 % of
/// nodes within 5 and 6 hops; average end-to-end latency of 49.83 ms, with
/// 50 % of nodes within 39 ms and 60 ms."*
///
/// # Examples
///
/// ```
/// use egm_topology::ModelStats;
///
/// let s = ModelStats::from_pairs(&[40.0, 50.0, 60.0], &[5, 6, 7], 100);
/// assert_eq!(s.mean_latency_ms, 50.0);
/// assert_eq!(s.pair_count, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Number of distinct client pairs measured.
    pub pair_count: usize,
    /// Number of routers in the generating graph.
    pub router_count: usize,
    /// Mean client-to-client one-way latency (ms).
    pub mean_latency_ms: f64,
    /// Median client-to-client one-way latency (ms).
    pub median_latency_ms: f64,
    /// Fraction of pairs with latency within [39 ms, 60 ms] — the band the
    /// paper quotes as holding 50 % of pairs.
    pub frac_latency_39_60: f64,
    /// Mean router-level hop distance between clients.
    pub mean_hops: f64,
    /// Fraction of pairs within 5–6 hops — the band the paper quotes as
    /// holding 74.28 % of pairs.
    pub frac_hops_5_6: f64,
    /// Minimum pairwise latency (ms).
    pub min_latency_ms: f64,
    /// Maximum pairwise latency (ms).
    pub max_latency_ms: f64,
}

impl ModelStats {
    /// Computes statistics from per-pair samples.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or of different lengths.
    pub fn from_pairs(latency_ms: &[f64], hops: &[u32], router_count: usize) -> Self {
        assert!(!latency_ms.is_empty(), "no pairs to summarize");
        assert_eq!(latency_ms.len(), hops.len(), "mismatched sample lengths");
        let n = latency_ms.len() as f64;
        let mean_latency_ms = latency_ms.iter().sum::<f64>() / n;
        let mut sorted = latency_ms.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let median_latency_ms = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        let frac_latency_39_60 = latency_ms
            .iter()
            .filter(|&&l| (39.0..=60.0).contains(&l))
            .count() as f64
            / n;
        let mean_hops = hops.iter().map(|&h| h as f64).sum::<f64>() / n;
        let frac_hops_5_6 = hops.iter().filter(|&&h| h == 5 || h == 6).count() as f64 / n;
        ModelStats {
            pair_count: latency_ms.len(),
            router_count,
            mean_latency_ms,
            median_latency_ms,
            frac_latency_39_60,
            mean_hops,
            frac_hops_5_6,
            min_latency_ms: sorted[0],
            max_latency_ms: *sorted.last().expect("non-empty"),
        }
    }
}

impl std::fmt::Display for ModelStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} routers; mean hops {:.2} ({:.1}% in 5-6); mean latency {:.2}ms \
             (median {:.2}ms, {:.1}% in 39-60ms, range {:.1}-{:.1}ms)",
            self.router_count,
            self.mean_hops,
            self.frac_hops_5_6 * 100.0,
            self.mean_latency_ms,
            self.median_latency_ms,
            self.frac_latency_39_60 * 100.0,
            self.min_latency_ms,
            self.max_latency_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::ModelStats;

    #[test]
    fn summarizes_simple_samples() {
        let s = ModelStats::from_pairs(&[39.0, 45.0, 61.0, 100.0], &[5, 6, 4, 7], 42);
        assert_eq!(s.pair_count, 4);
        assert_eq!(s.router_count, 42);
        assert!((s.mean_latency_ms - 61.25).abs() < 1e-9);
        assert_eq!(s.median_latency_ms, 53.0);
        assert_eq!(s.frac_latency_39_60, 0.5);
        assert_eq!(s.mean_hops, 5.5);
        assert_eq!(s.frac_hops_5_6, 0.5);
        assert_eq!(s.min_latency_ms, 39.0);
        assert_eq!(s.max_latency_ms, 100.0);
    }

    #[test]
    fn odd_median() {
        let s = ModelStats::from_pairs(&[1.0, 9.0, 5.0], &[1, 1, 1], 0);
        assert_eq!(s.median_latency_ms, 5.0);
    }

    #[test]
    #[should_panic(expected = "no pairs")]
    fn empty_input_panics() {
        let _ = ModelStats::from_pairs(&[], &[], 0);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn mismatched_lengths_panic() {
        let _ = ModelStats::from_pairs(&[1.0], &[1, 2], 0);
    }

    #[test]
    fn display_mentions_key_quantities() {
        let s = ModelStats::from_pairs(&[50.0], &[5], 3037);
        let text = s.to_string();
        assert!(text.contains("3037 routers"));
        assert!(text.contains("mean hops 5.00"));
    }
}
