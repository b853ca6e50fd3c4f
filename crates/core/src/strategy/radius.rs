use egm_simnet::SimDuration;

/// Radius (§4.1): `Eager?` is `true` iff `Metric(p) < ρ`. Eager pushes to
/// close nodes minimize per-hop latency; the emergent structure is a
/// *mesh* of short links (Fig. 4(b)). The first request waits `T0`, the
/// latency to nodes within the radius, so eager copies can arrive first,
/// and asks the *nearest* source. The paper's negative result (§6.2):
/// shorter hops need more rounds, so end-to-end latency does not improve.
///
/// ```
/// use egm_core::StrategySpec;
/// use egm_simnet::SimDuration;
///
/// let s = StrategySpec::Radius { rho: 25.0, t0_ms: 30.0 }.build(None);
/// assert_eq!(s.first_request_delay(), SimDuration::from_ms(30.0));
/// ```
#[derive(Debug, Clone)]
pub(super) struct Radius {
    pub(super) rho: f64,
    pub(super) t0: SimDuration,
}

impl Radius {
    pub(super) fn new(rho: f64, t0_ms: f64) -> Self {
        assert!(
            rho.is_finite() && rho >= 0.0,
            "radius must be non-negative, got {rho}"
        );
        let t0 = SimDuration::from_ms(t0_ms);
        Radius { rho, t0 }
    }
}

#[cfg(test)]
mod tests {
    use super::Radius;
    use crate::monitor::NullMonitor;
    use crate::strategy::tests::{decide, Linear};
    use crate::strategy::{StrategyCtx, StrategySpec};
    use egm_rng::Rng;
    use egm_simnet::{NodeId, SimDuration};

    #[test]
    fn eager_strictly_inside_radius() {
        let s = StrategySpec::Radius {
            rho: 25.0,
            t0_ms: 0.0,
        }
        .build(None);
        assert!(decide(&s, &Linear, 0, 0, 0)); // metric 0
        assert!(decide(&s, &Linear, 0, 2, 0)); // metric 20
        assert!(!decide(&s, &Linear, 0, 3, 0)); // metric 30
    }

    #[test]
    fn unknown_peers_are_lazy() {
        // NullMonitor returns infinity: fail closed.
        let s = StrategySpec::Radius {
            rho: 1e9,
            t0_ms: 0.0,
        }
        .build(None);
        assert!(!decide(&s, &NullMonitor, 0, 1, 0));
    }

    #[test]
    fn requests_prefer_nearest_source() {
        let s = StrategySpec::Radius {
            rho: 25.0,
            t0_ms: 30.0,
        }
        .build(None);
        let mut rng = Rng::seed_from_u64(3);
        let ctx = StrategyCtx {
            me: NodeId(0),
            rng: &mut rng,
            monitor: &Linear,
        };
        let sources = [NodeId(9), NodeId(4), NodeId(6)];
        assert_eq!(s.pick_source(&ctx, &sources), 1);
        assert_eq!(s.first_request_delay(), SimDuration::from_ms(30.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_radius_panics() {
        let _ = Radius::new(-1.0, 0.0);
    }
}
