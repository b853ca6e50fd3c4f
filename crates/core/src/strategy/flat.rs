/// Flat (§4.1): `Eager?` is `true` with probability `pi`. `pi = 1` is
/// pure eager push gossip, `pi = 0` pure lazy push, and in between it
/// trades bandwidth for latency uniformly, with no knowledge of the
/// environment — the paper's baseline (Fig. 5(a)). The first request
/// follows the first `IHAVE` at once, then one every retry interval `T`.
///
/// ```
/// let flat = egm_core::StrategySpec::Flat { pi: 0.5 }.build(None);
/// assert_eq!(flat.first_request_delay(), egm_simnet::SimDuration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub(super) struct Flat {
    pub(super) pi: f64,
}

#[cfg(test)]
mod tests {
    use crate::monitor::NullMonitor;
    use crate::strategy::{StrategyCtx, StrategySpec};
    use egm_rng::Rng;
    use egm_simnet::NodeId;

    fn eager_fraction(pi: f64, trials: u32) -> f64 {
        let s = StrategySpec::Flat { pi }.build(None);
        let mut rng = Rng::seed_from_u64(7);
        let mut ctx = StrategyCtx {
            me: NodeId(0),
            rng: &mut rng,
            monitor: &NullMonitor,
        };
        let hits = (0..trials)
            .filter(|_| s.eager(&mut ctx, NodeId(1), 0))
            .count();
        hits as f64 / trials as f64
    }

    #[test]
    fn extremes_are_pure_eager_and_pure_lazy() {
        assert_eq!(eager_fraction(1.0, 1000), 1.0);
        assert_eq!(eager_fraction(0.0, 1000), 0.0);
    }

    #[test]
    fn intermediate_pi_is_calibrated() {
        let frac = eager_fraction(0.3, 100_000);
        assert!((frac - 0.3).abs() < 0.01, "eager fraction {frac}");
    }

    #[test]
    fn first_request_is_immediate() {
        use egm_simnet::SimDuration;
        let flat = StrategySpec::Flat { pi: 0.5 }.build(None);
        assert_eq!(flat.first_request_delay(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_pi_panics() {
        let _ = StrategySpec::Flat { pi: 1.5 }.build(None);
    }
}
