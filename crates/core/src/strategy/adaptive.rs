use super::probability;

/// Payload receptions between adjustments.
const WINDOW: u64 = 16;

/// Proportional gain applied to the duplicate-ratio error.
const GAIN: f64 = 0.5;

/// Adaptive eagerness (extension): Flat whose `pi` follows the observed
/// duplicate ratio. After every `WINDOW` payloads the windowed ratio
/// `d / (d + p)` is compared with the target and `pi` moves
/// proportionally — down on too many duplicates, up on too few. §8 calls
/// the approach *"a promising base for building large scale adaptive
/// protocols"*: each node tunes itself from local feedback alone, and any
/// `Eager?` is safe (§6.4).
///
/// ```
/// use egm_core::{monitor::NullMonitor, strategy::StrategyCtx, StrategySpec};
/// use egm_simnet::NodeId;
///
/// let spec = StrategySpec::Adaptive { initial_pi: 1.0, target_duplicate_ratio: 0.0 };
/// let mut s = spec.build(None);
/// let rng = &mut egm_rng::Rng::seed_from_u64(1);
/// let mut ctx = StrategyCtx { me: NodeId(0), rng, monitor: &NullMonitor };
/// assert!(s.eager(&mut ctx, NodeId(1), 1), "starts fully eager");
/// (0..16).for_each(|_| s.on_duplicate()); // pi falls from 1 to 0.5
/// assert!((0..100).any(|_| !s.eager(&mut ctx, NodeId(1), 1)));
/// ```
#[derive(Debug, Clone)]
pub(super) struct Adaptive {
    pub(super) pi: f64,
    target: f64,
    fresh: u64,
    duplicates: u64,
}

impl Adaptive {
    pub(super) fn new(pi: f64, target: f64) -> Self {
        Adaptive {
            pi: probability("pi", pi),
            target: probability("target ratio", target),
            fresh: 0,
            duplicates: 0,
        }
    }

    /// Counts one payload reception and adjusts `pi` when a window fills.
    pub(super) fn observe(&mut self, duplicate: bool) {
        self.duplicates += u64::from(duplicate);
        self.fresh += u64::from(!duplicate);
        let total = self.fresh + self.duplicates;
        if total >= WINDOW {
            let ratio = self.duplicates as f64 / total as f64;
            self.pi = (self.pi - GAIN * (ratio - self.target)).clamp(0.0, 1.0);
            self.fresh = 0;
            self.duplicates = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Adaptive;

    #[test]
    fn high_duplication_lowers_pi() {
        let mut s = Adaptive::new(1.0, 0.2);
        // Feed a window dominated by duplicates.
        for _ in 0..4 {
            s.observe(false);
        }
        for _ in 0..16 {
            s.observe(true);
        }
        assert!(s.pi < 1.0, "pi should fall, got {}", s.pi);
    }

    #[test]
    fn low_duplication_raises_pi() {
        let mut s = Adaptive::new(0.2, 0.5);
        for _ in 0..20 {
            s.observe(false);
        }
        assert!(s.pi > 0.2, "pi should rise, got {}", s.pi);
    }

    #[test]
    fn pi_stays_in_unit_interval() {
        let mut s = Adaptive::new(0.0, 0.0);
        for _ in 0..100 {
            s.observe(true);
        }
        assert!(s.pi >= 0.0);
        let mut s = Adaptive::new(1.0, 1.0);
        for _ in 0..100 {
            s.observe(false);
        }
        assert!(s.pi <= 1.0);
    }

    #[test]
    fn adjustment_waits_for_a_full_window() {
        let mut s = Adaptive::new(0.5, 0.0);
        for _ in 0..5 {
            s.observe(true);
        }
        assert_eq!(s.pi, 0.5, "no adjustment before the window fills");
    }

    #[test]
    #[should_panic(expected = "target ratio")]
    fn invalid_target_panics() {
        let _ = Adaptive::new(0.5, 2.0);
    }
}
