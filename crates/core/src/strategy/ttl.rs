/// Time-To-Live (§4.1): `Eager?` is `true` iff `round < u`. In the first
/// rounds a target is unlikely to hold the payload yet, so lazy push
/// would only add latency; duplicates concentrate in later rounds, where
/// deferring pays. `L-Send` rounds are 1-based (Fig. 2 relays at
/// `r + 1`): `u <= 1` is pure lazy push, `u > t` pure eager push.
///
/// ```
/// use egm_core::{monitor::NullMonitor, strategy::StrategyCtx, StrategySpec};
/// use egm_simnet::NodeId;
///
/// let ttl = StrategySpec::Ttl { u: 2 }.build(None);
/// let rng = &mut egm_rng::Rng::seed_from_u64(1);
/// let mut ctx = StrategyCtx { me: NodeId(0), rng, monitor: &NullMonitor };
/// assert!(ttl.eager(&mut ctx, NodeId(1), 1));
/// assert!(!ttl.eager(&mut ctx, NodeId(1), 2));
/// ```
#[derive(Debug, Clone)]
pub(super) struct Ttl {
    pub(super) u: u32,
}

#[cfg(test)]
mod tests {
    use crate::monitor::NullMonitor;
    use crate::strategy::tests::decide;
    use crate::strategy::StrategySpec;

    fn ttl(u: u32, round: u32) -> bool {
        decide(
            &StrategySpec::Ttl { u }.build(None),
            &NullMonitor,
            0,
            1,
            round,
        )
    }

    #[test]
    fn eager_strictly_below_threshold() {
        assert!(ttl(2, 0));
        assert!(ttl(2, 1));
        assert!(!ttl(2, 2));
        assert!(!ttl(2, 5));
    }

    #[test]
    fn zero_threshold_is_pure_lazy() {
        for r in 0..5 {
            assert!(!ttl(0, r));
        }
    }

    #[test]
    fn huge_threshold_is_pure_eager() {
        for r in 0..10 {
            assert!(ttl(100, r));
        }
    }
}
