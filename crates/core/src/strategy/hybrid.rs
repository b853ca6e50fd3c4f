use super::radius::Radius;
use crate::rank::BestSet;
use std::sync::Arc;

/// Combined (§6.4), the hybrid of TTL, Radius and Ranked: `Eager?` is
/// `true` iff a best node is involved, or `Metric(p) < 2ρ` while `r < u`,
/// or `Metric(p) < ρ` after — the radius shrinks as rounds grow. Requests
/// are scheduled as in Radius.
///
/// ```
/// use egm_core::{rank::BestSet, StrategySpec};
/// use egm_simnet::SimDuration;
///
/// let spec = StrategySpec::Combined { best_fraction: 0.2, rho: 20.0, u: 2, t0_ms: 25.0 };
/// let s = spec.build(Some(BestSet::none(8).shared()));
/// assert_eq!(s.first_request_delay(), SimDuration::from_ms(25.0));
/// ```
#[derive(Debug, Clone)]
pub(super) struct Combined {
    pub(super) best: Arc<BestSet>,
    pub(super) radius: Radius,
    pub(super) u: u32,
}

#[cfg(test)]
mod tests {
    use crate::rank::BestSet;
    use crate::strategy::tests::{decide, Linear};
    use crate::strategy::{Strategy, StrategyCtx, StrategySpec};
    use egm_rng::Rng;
    use egm_simnet::{NodeId, SimDuration};

    /// rho = 25, u = 2, T0 = 30 ms over `best`.
    fn combined(best: BestSet) -> Strategy {
        StrategySpec::Combined {
            best_fraction: 0.1,
            rho: 25.0,
            u: 2,
            t0_ms: 30.0,
        }
        .build(Some(best.shared()))
    }

    fn hub9(me: usize, to: usize, round: u32) -> bool {
        let s = combined(BestSet::from_ids(10, &[NodeId(9)]));
        decide(&s, &Linear, me, to, round)
    }

    #[test]
    fn best_node_involvement_is_always_eager() {
        assert!(hub9(9, 8, 5), "best sender");
        assert!(hub9(1, 9, 5), "best receiver (metric 90 > radius)");
    }

    #[test]
    fn radius_is_doubled_in_early_rounds() {
        // metric(4) = 40: inside 2ρ=50 but outside ρ=25.
        assert!(hub9(0, 4, 0));
        assert!(hub9(0, 4, 1));
        assert!(!hub9(0, 4, 2), "radius shrinks at round u");
        assert!(!hub9(0, 4, 3));
    }

    #[test]
    fn close_peers_stay_eager_in_late_rounds() {
        // metric(2) = 20 < ρ.
        assert!(hub9(0, 2, 5));
        // metric(6) = 60 > 2ρ: never eager for regular nodes.
        assert!(!hub9(0, 6, 0));
    }

    #[test]
    fn scheduling_matches_radius_behaviour() {
        let s = combined(BestSet::none(4));
        assert_eq!(s.first_request_delay(), SimDuration::from_ms(30.0));
        let mut rng = Rng::seed_from_u64(2);
        let ctx = StrategyCtx {
            me: NodeId(0),
            rng: &mut rng,
            monitor: &Linear,
        };
        assert_eq!(s.pick_source(&ctx, &[NodeId(3), NodeId(1)]), 1);
    }
}
