//! Self-contained deterministic pseudo-random number generation.
//!
//! All stochastic components of the reproduction (topology generation, the
//! discrete-event simulator, protocol randomness) draw from [`Rng`], an
//! implementation of the xoshiro256\*\* generator seeded through SplitMix64.
//! Keeping the generator in-tree guarantees that a given seed produces the
//! same experiment forever, independent of external crate version bumps —
//! a property the paper's methodology (§5.4, confidence intervals over
//! repeated runs) depends on.
//!
//! # Examples
//!
//! ```
//! use egm_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let die = rng.range_usize(1, 7); // uniform in [1, 7)
//! assert!((1..7).contains(&die));
//!
//! // Forked streams are independent but fully determined by the parent seed.
//! let mut child = rng.fork();
//! let _ = child.next_u64();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod xoshiro;

pub use xoshiro::Rng;

/// Fast, deterministic hashing for simulator-internal maps.
///
/// The event loop hashes message ids and link pairs on every send and
/// receive; `std`'s default SipHash (with its per-process random seed) is
/// both slower and non-reproducible across processes. This FxHash-style
/// multiply-rotate hasher is deterministic and an order of magnitude
/// cheaper on small fixed-size keys. It is **not** DoS-resistant — use it
/// only for keys the simulation itself generates, never for untrusted
/// input.
pub mod hash {
    use std::hash::{BuildHasherDefault, Hasher};

    /// `HashMap` keyed by the deterministic [`FxHasher`].
    pub type FastHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    /// FxHash-style multiply-rotate hasher (as used by rustc).
    #[derive(Debug, Default, Clone)]
    pub struct FxHasher {
        hash: u64,
    }

    impl FxHasher {
        #[inline]
        fn add(&mut self, word: u64) {
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
    }

    impl Hasher for FxHasher {
        #[inline]
        fn write(&mut self, bytes: &[u8]) {
            for chunk in bytes.chunks(8) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                self.add(u64::from_le_bytes(buf));
            }
        }

        #[inline]
        fn write_u8(&mut self, n: u8) {
            self.add(u64::from(n));
        }

        #[inline]
        fn write_u32(&mut self, n: u32) {
            self.add(u64::from(n));
        }

        #[inline]
        fn write_u64(&mut self, n: u64) {
            self.add(n);
        }

        #[inline]
        fn write_usize(&mut self, n: usize) {
            self.add(n as u64);
        }

        #[inline]
        fn finish(&self) -> u64 {
            self.hash
        }
    }
}

/// Extension helpers for sampling from collections.
///
/// These are free functions rather than methods on `Rng` where they would
/// otherwise force generic parameters onto every call site.
pub mod sample {
    use super::Rng;

    /// Returns `k` distinct indices drawn uniformly from `0..n`.
    ///
    /// Uses Floyd's algorithm, which performs `k` insertions regardless of
    /// `n`. The result is in insertion order (not sorted, not uniform over
    /// permutations — uniform over *sets*).
    ///
    /// Up to 64 picks the membership test scans the picks so far; larger
    /// draws use an `n`-bit bitmap, so the cost is O(k + n/64) instead of
    /// O(k²). Both make the same draws and the same picks.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn distinct_indices(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from 0..{n}");
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        if k <= SCAN_MAX_K {
            floyd_scan(rng, n, k, &mut chosen);
        } else {
            floyd_bitmap(rng, n, k, &mut chosen);
        }
        chosen
    }

    /// Largest `k` served by the linear `contains` scan; above it
    /// [`distinct_indices`] tracks chosen indices in a bitmap.
    ///
    /// The scan's O(k²) membership test only hurts bulk draws — client
    /// placement draws `k = n = 100 000` — where one `n`-bit allocation
    /// is noise. The per-event call sites (gossip targets, shuffle
    /// subsets: `k ≤ 32`) use [`distinct_indices_array`] instead.
    pub(crate) const SCAN_MAX_K: usize = 64;

    /// [`distinct_indices`] into a caller-owned stack array: the first
    /// `k` slots of `buf` receive the picks, which are also returned as a
    /// slice.
    ///
    /// Makes exactly the draws and the picks of `distinct_indices` for
    /// the same RNG state (Floyd with the scan membership test), but
    /// touches no heap: this is what a node runs on every gossip forward
    /// and every shuffle, where `k` is bounded by a compile-time view or
    /// message size.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`, `k > CAP`, or `n` exceeds `u32::MAX`.
    #[inline]
    pub fn distinct_indices_array<'a, const CAP: usize>(
        rng: &mut Rng,
        n: usize,
        k: usize,
        buf: &'a mut [u32; CAP],
    ) -> &'a [u32] {
        assert!(k <= n, "cannot sample {k} distinct indices from 0..{n}");
        assert!(k <= CAP, "{k} picks do not fit a {CAP}-slot array");
        assert!(n <= u32::MAX as usize, "indices must fit u32");
        for (filled, j) in ((n - k)..n).enumerate() {
            let t = rng.range_usize(0, j + 1) as u32;
            buf[filled] = if buf[..filled].contains(&t) {
                j as u32
            } else {
                t
            };
        }
        &buf[..k]
    }

    /// Floyd's algorithm, membership by scanning the picks so far.
    #[inline]
    pub(crate) fn floyd_scan(rng: &mut Rng, n: usize, k: usize, out: &mut Vec<usize>) {
        for j in (n - k)..n {
            let t = rng.range_usize(0, j + 1);
            out.push(if out.contains(&t) { j } else { t });
        }
    }

    /// Floyd's algorithm, membership by a bitmap over `0..n`. Out of line
    /// so the per-event callers inline only the scan.
    #[inline(never)]
    pub(crate) fn floyd_bitmap(rng: &mut Rng, n: usize, k: usize, out: &mut Vec<usize>) {
        let mut seen = vec![0u64; n.div_ceil(64)];
        for j in (n - k)..n {
            let t = rng.range_usize(0, j + 1);
            let pick = if seen[t / 64] & (1 << (t % 64)) != 0 {
                j
            } else {
                t
            };
            seen[pick / 64] |= 1 << (pick % 64);
            out.push(pick);
        }
    }

    /// Draws one element uniformly from a non-empty slice.
    ///
    /// Returns `None` when the slice is empty.
    pub fn choose<'a, T>(rng: &mut Rng, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[rng.range_usize(0, items.len())])
        }
    }

    /// Fisher–Yates shuffle of a mutable slice.
    pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
        let n = items.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = rng.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sample::{choose, distinct_indices, shuffle};
    use super::Rng;
    use std::collections::HashSet;

    #[test]
    fn distinct_indices_are_distinct_and_in_range() {
        let mut rng = Rng::seed_from_u64(7);
        for n in [1usize, 2, 5, 17, 100] {
            for k in [0usize, 1, n / 2, n] {
                let picks = distinct_indices(&mut rng, n, k);
                assert_eq!(picks.len(), k);
                let set: HashSet<_> = picks.iter().copied().collect();
                assert_eq!(set.len(), k, "duplicates in {picks:?}");
                assert!(picks.iter().all(|&i| i < n));
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct indices")]
    fn distinct_indices_rejects_oversample() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = distinct_indices(&mut rng, 3, 4);
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = Rng::seed_from_u64(3);
        let empty: [u8; 0] = [];
        assert!(choose(&mut rng, &empty).is_none());
        assert_eq!(choose(&mut rng, &[9]), Some(&9));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_indices_cover_all_eventually() {
        // Sampling n-of-n must return every index.
        let mut rng = Rng::seed_from_u64(5);
        let picks = distinct_indices(&mut rng, 12, 12);
        let set: HashSet<_> = picks.into_iter().collect();
        assert_eq!(set.len(), 12);
    }
}

#[cfg(test)]
mod sample_equivalence {
    use super::sample::{
        distinct_indices, distinct_indices_array, floyd_bitmap, floyd_scan, SCAN_MAX_K,
    };
    use super::Rng;
    use proptest::prelude::*;

    /// Every membership test on one RNG state: same picks, same state after.
    fn assert_paths_agree(seed: u64, n: usize, k: usize) -> Result<(), TestCaseError> {
        let (mut scan_rng, mut bitmap_rng) = (Rng::seed_from_u64(seed), Rng::seed_from_u64(seed));
        let (mut scan, mut bitmap) = (Vec::new(), Vec::new());
        floyd_scan(&mut scan_rng, n, k, &mut scan);
        floyd_bitmap(&mut bitmap_rng, n, k, &mut bitmap);
        prop_assert!(scan == bitmap, "picks differ at n={n} k={k}");
        prop_assert!(scan_rng == bitmap_rng, "RNG state differs at n={n} k={k}");
        // The public entry point is one of the two, whichever `k` selects.
        let mut rng = Rng::seed_from_u64(seed);
        prop_assert!(distinct_indices(&mut rng, n, k) == scan);
        prop_assert!(rng == scan_rng);
        // The stack-array Floyd of the per-event paths, started on a dirty
        // buffer: stale slots beyond the picks so far must not be "seen".
        if k <= SCAN_MAX_K {
            let mut rng = Rng::seed_from_u64(seed);
            let mut buf = [u32::MAX; SCAN_MAX_K];
            if let Some(&first) = scan.first() {
                buf.fill(first as u32);
            }
            let picks = distinct_indices_array(&mut rng, n, k, &mut buf);
            let picks: Vec<usize> = picks.iter().map(|&i| i as usize).collect();
            prop_assert!(picks == scan, "array picks differ at n={n} k={k}");
            prop_assert!(rng == scan_rng, "array RNG state differs at n={n} k={k}");
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn bitmap_path_equals_scan_path(
            seed in 0u64..1_000_000,
            n in 0usize..600,
            k_draw in 0usize..600,
            shape in 0usize..6,
        ) {
            // Steer half of the cases onto the edges: nothing drawn,
            // everything drawn, and the threshold and its neighbours.
            let k = match shape {
                0 => 0,
                1 => n,
                2 => (SCAN_MAX_K - 1 + k_draw % 3).min(n),
                _ => k_draw % (n + 1),
            };
            assert_paths_agree(seed, n, k)?;
        }
    }

    #[test]
    fn threshold_edges_agree() {
        for n in [SCAN_MAX_K - 1, SCAN_MAX_K, SCAN_MAX_K + 1, 4 * SCAN_MAX_K] {
            for k in [0, SCAN_MAX_K - 1, SCAN_MAX_K, SCAN_MAX_K + 1, n] {
                if k <= n {
                    assert_paths_agree(9, n, k).unwrap_or_else(|e| panic!("{e}"));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not fit a 4-slot array")]
    fn array_draw_rejects_more_picks_than_slots() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = distinct_indices_array(&mut rng, 10, 5, &mut [0u32; 4]);
    }

    /// Client placement at the 100k preset draws `k = n`; with the
    /// quadratic scan this draw takes seconds instead of milliseconds.
    #[test]
    fn bulk_draw_is_linear_time() {
        let mut rng = Rng::seed_from_u64(13);
        let picks = distinct_indices(&mut rng, 200_100, 200_000);
        assert_eq!(picks.len(), 200_000);
        let mut seen = vec![false; 200_100];
        for &i in &picks {
            assert!(!std::mem::replace(&mut seen[i], true), "duplicate {i}");
        }
    }
}

#[cfg(test)]
mod hash_tests {
    use super::hash::{FastHashMap, FxHasher};
    use std::hash::{Hash, Hasher};

    #[test]
    fn hashing_is_deterministic_and_spreads() {
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            v.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(42), h(42), "same input, same hash");
        let distinct: std::collections::HashSet<u64> = (0..10_000).map(h).collect();
        assert_eq!(distinct.len(), 10_000, "no collisions on small ints");
    }

    #[test]
    fn fast_collections_behave_like_std() {
        let mut m: FastHashMap<(u32, u32), u64> = FastHashMap::default();
        m.insert((1, 2), 10);
        m.insert((1, 2), 20);
        assert_eq!(m.get(&(1, 2)), Some(&20));
        assert_eq!(m.len(), 1);
    }
}
