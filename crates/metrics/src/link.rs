//! Emergent-structure measures over per-link payload counts.
//!
//! Fig. 4 of the paper visualizes the *top 5 % connections with highest
//! throughput* and quantifies structure as the share of all payload
//! transmissions they carry: ≈7 % for unstructured eager push, 37 % for
//! Radius, 30 % for Ranked. Fig. 6(c) uses the same measure to show
//! structure dissolving under noise (converging to 5 %, i.e. a uniform
//! spread). These functions compute that share and related skew measures.

/// Share of total traffic carried by the heaviest `fraction` of links.
///
/// `counts` holds one entry per link that carried traffic (zero entries
/// are permitted and count as links). At least one link is always
/// selected, matching "top 5 % connections" over a finite link set.
/// Returns 0 when total traffic is zero.
///
/// # Panics
///
/// Panics if `counts` is empty or `fraction` is outside `(0, 1]`.
///
/// # Examples
///
/// ```
/// use egm_metrics::link::top_fraction_share;
///
/// // One hot link out of ten carries half of all traffic.
/// let counts = [50, 6, 6, 6, 6, 6, 5, 5, 5, 5];
/// assert_eq!(top_fraction_share(&counts, 0.1), 0.5);
/// ```
pub fn top_fraction_share(counts: &[u64], fraction: f64) -> f64 {
    assert!(!counts.is_empty(), "no links to rank");
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1]"
    );
    let k = ((counts.len() as f64 * fraction).round() as usize).clamp(1, counts.len());
    if k == counts.len() {
        // Whole-set share needs no selection (and no copy).
        let total: u64 = counts.iter().sum();
        return if total == 0 { 0.0 } else { 1.0 };
    }
    let mut owned = counts.to_vec();
    top_fraction_share_mut(&mut owned, fraction)
}

/// [`top_fraction_share`] over a caller-owned buffer: O(n) via
/// `select_nth_unstable` instead of a full sort, and no clone. The slice
/// is reordered (partitioned around the k-th heaviest element), so a
/// caller that also wants [`gini_sorted`] sorts first and calls this last.
///
/// # Panics
///
/// Panics under the same conditions as [`top_fraction_share`].
pub fn top_fraction_share_mut(counts: &mut [u64], fraction: f64) -> f64 {
    assert!(!counts.is_empty(), "no links to rank");
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1]"
    );
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let k = ((counts.len() as f64 * fraction).round() as usize).clamp(1, counts.len());
    if k < counts.len() {
        counts.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    }
    let top: u64 = counts[..k].iter().sum();
    top as f64 / total as f64
}

/// The number of links selected by `top_fraction_share` for a given link
/// count, exposed so reports can show "top-k of n links".
///
/// # Panics
///
/// Panics under the same conditions as [`top_fraction_share`].
pub fn top_fraction_count(link_count: usize, fraction: f64) -> usize {
    assert!(link_count > 0, "no links to rank");
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1]"
    );
    ((link_count as f64 * fraction).round() as usize).clamp(1, link_count)
}

/// Gini coefficient of the per-link (or per-node) traffic distribution:
/// 0 = perfectly even (pure gossip balance), → 1 = concentrated on few
/// links (strong structure).
///
/// Returns 0 when total traffic is zero.
///
/// # Panics
///
/// Panics if `counts` is empty.
pub fn gini(counts: &[u64]) -> f64 {
    let mut sorted = counts.to_vec();
    sorted.sort_unstable();
    gini_sorted(&sorted)
}

/// [`gini`] over counts already sorted ascending, without the copy.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn gini_sorted(sorted: &[u64]) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "counts must be sorted ascending"
    );
    let n = sorted.len() as f64;
    let total: u64 = sorted.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut cum = 0.0;
    let mut weighted = 0.0;
    for (i, &c) in sorted.iter().enumerate() {
        cum += c as f64;
        weighted += (i as f64 + 1.0) * c as f64;
    }
    (2.0 * weighted) / (n * cum) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::{
        gini, gini_sorted, top_fraction_count, top_fraction_share, top_fraction_share_mut,
    };
    use proptest::prelude::*;

    #[test]
    fn uniform_traffic_share_equals_fraction() {
        let counts = vec![10u64; 100];
        let share = top_fraction_share(&counts, 0.05);
        assert!((share - 0.05).abs() < 1e-12);
    }

    #[test]
    fn concentrated_traffic_has_high_share() {
        let mut counts = vec![0u64; 99];
        counts.push(1000);
        assert_eq!(top_fraction_share(&counts, 0.05), 1.0);
    }

    #[test]
    fn at_least_one_link_is_selected() {
        let counts = [7u64, 3];
        // 5% of 2 links rounds to 0, clamps to 1.
        assert_eq!(top_fraction_share(&counts, 0.05), 0.7);
        assert_eq!(top_fraction_count(2, 0.05), 1);
        assert_eq!(top_fraction_count(100, 0.05), 5);
    }

    #[test]
    fn zero_traffic_share_is_zero() {
        assert_eq!(top_fraction_share(&[0, 0, 0], 0.5), 0.0);
    }

    #[test]
    fn full_fraction_is_everything() {
        assert_eq!(top_fraction_share(&[5, 5, 5], 1.0), 1.0);
    }

    #[test]
    fn mut_variant_matches_allocating_variant() {
        let counts = [50u64, 6, 6, 6, 6, 6, 5, 5, 5, 5];
        for fraction in [0.05, 0.1, 0.3, 0.5, 1.0] {
            let reference = super::top_fraction_share(&counts, fraction);
            let mut owned = counts.to_vec();
            let got = super::top_fraction_share_mut(&mut owned, fraction);
            assert_eq!(got, reference, "fraction {fraction}");
            // The buffer is permuted, never altered.
            owned.sort_unstable();
            let mut expect = counts.to_vec();
            expect.sort_unstable();
            assert_eq!(owned, expect);
        }
    }

    #[test]
    fn mut_variant_zero_traffic_is_zero() {
        assert_eq!(super::top_fraction_share_mut(&mut [0, 0, 0], 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        let _ = top_fraction_share(&[1], 0.0);
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[5, 5, 5, 5]), 0.0);
        let concentrated = gini(&[0, 0, 0, 100]);
        assert!(concentrated > 0.74, "gini {concentrated}");
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn gini_orders_by_concentration() {
        let even = gini(&[10, 10, 10, 10, 10]);
        let mild = gini(&[20, 10, 10, 5, 5]);
        let strong = gini(&[40, 5, 2, 2, 1]);
        assert!(even < mild && mild < strong);
    }

    proptest! {
        /// One ascending buffer, used as the per-run report uses it
        /// (`gini_sorted`, then `top_fraction_share_mut`), gives the same
        /// bits as the unsorted entry points, all-zero and single-link
        /// inputs included.
        #[test]
        fn sorted_buffer_measures_match_bit_for_bit(
            raw in prop::collection::vec(0u64..1_000_000_000, 1..200),
            spread in 0u32..3,
            fraction_class in 0u32..3,
            free_fraction in 0.001f64..1.0,
        ) {
            // Small counts with many ties, wide counts, or no traffic.
            let counts: Vec<u64> = match spread {
                0 => raw.iter().map(|c| c % 50).collect(),
                1 => raw,
                _ => vec![0; raw.len()],
            };
            let fraction = match fraction_class {
                0 => 0.05,
                1 => 1.0,
                _ => free_fraction,
            };
            let mut sorted = counts.clone();
            sorted.sort_unstable();
            prop_assert_eq!(gini_sorted(&sorted).to_bits(), gini(&counts).to_bits());
            prop_assert_eq!(
                top_fraction_share_mut(&mut sorted, fraction).to_bits(),
                top_fraction_share(&counts, fraction).to_bits()
            );
            let mut one = counts[..1].to_vec();
            prop_assert_eq!(gini_sorted(&one).to_bits(), gini(&one).to_bits());
            prop_assert_eq!(
                top_fraction_share_mut(&mut one, fraction).to_bits(),
                top_fraction_share(&counts[..1], fraction).to_bits()
            );
        }
    }
}
