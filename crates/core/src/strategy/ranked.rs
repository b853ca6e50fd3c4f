use crate::rank::BestSet;
use std::sync::Arc;

/// Ranked (§4.1): `Eager?` is `true` iff either endpoint is a *best
/// node*. A few well-provisioned hubs carry most transmissions — the
/// emergent super-node structure of Fig. 4(c) — while spoke-to-spoke
/// exchanges are lazy, so spokes receive ≈1 payload per message.
///
/// ```
/// use egm_core::{monitor::NullMonitor, rank::BestSet, strategy::StrategyCtx, StrategySpec};
/// use egm_simnet::NodeId;
///
/// let best = BestSet::from_ids(4, &[NodeId(0)]).shared();
/// let s = StrategySpec::Ranked { best_fraction: 0.25 }.build(Some(best));
/// let rng = &mut egm_rng::Rng::seed_from_u64(1);
/// let mut ctx = StrategyCtx { me: NodeId(2), rng, monitor: &NullMonitor };
/// assert!(s.eager(&mut ctx, NodeId(0), 3), "to a hub");
/// assert!(!s.eager(&mut ctx, NodeId(1), 3), "spoke to spoke");
/// ```
#[derive(Debug, Clone)]
pub(super) struct Ranked {
    pub(super) best: Arc<BestSet>,
}

#[cfg(test)]
mod tests {
    use crate::monitor::NullMonitor;
    use crate::rank::BestSet;
    use crate::strategy::tests::decide;
    use crate::strategy::StrategySpec;
    use egm_simnet::NodeId;

    fn ranked(best: BestSet, me: usize, to: usize) -> bool {
        let s = StrategySpec::Ranked {
            best_fraction: 0.25,
        }
        .build(Some(best.shared()));
        decide(&s, &NullMonitor, me, to, 0)
    }

    fn hub0(me: usize, to: usize) -> bool {
        ranked(BestSet::from_ids(4, &[NodeId(0)]), me, to)
    }

    #[test]
    fn eager_when_sender_is_best() {
        assert!(hub0(0, 1));
    }

    #[test]
    fn eager_when_receiver_is_best() {
        assert!(hub0(2, 0));
    }

    #[test]
    fn lazy_between_regular_nodes() {
        assert!(!hub0(1, 2));
        assert!(!hub0(3, 1));
    }

    #[test]
    fn no_best_nodes_is_pure_lazy() {
        for to in 0..4 {
            assert!(!ranked(BestSet::none(4), 1, to));
        }
    }
}
