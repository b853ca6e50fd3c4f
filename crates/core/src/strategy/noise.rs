/// The traffic-preserving noise step (§4.3): the rule's crisp `Eager?`
/// answer `v ∈ {0, 1}` maps to `v' = c + (v − c)(1 − o)`, and a
/// Bernoulli(`v'`) draw — taken even at `o = 0` — is the answer. `c` is
/// the rule's overall eager rate (`egm-workload::calibrate`), so expected
/// eager traffic is unchanged; at `o = 1` every rule is `Flat(c)` (Fig. 6).
///
/// ```
/// use egm_core::{monitor::NullMonitor, strategy::StrategyCtx, StrategySpec};
/// use egm_simnet::NodeId;
///
/// // TTL u=1 is lazy at round 5; full noise turns it into Flat(0.5).
/// let s = StrategySpec::Ttl { u: 1 }.build(None).with_noise(0.5, 1.0);
/// let rng = &mut egm_rng::Rng::seed_from_u64(3);
/// let mut ctx = StrategyCtx { me: NodeId(0), rng, monitor: &NullMonitor };
/// let eager = (0..1000).filter(|_| s.eager(&mut ctx, NodeId(1), 5)).count();
/// assert!((400..600).contains(&eager));
/// ```
#[derive(Debug, Clone, Copy)]
pub(super) struct Noise {
    pub(super) c: f64,
    pub(super) o: f64,
}

#[cfg(test)]
mod tests {
    use crate::monitor::NullMonitor;
    use crate::strategy::{StrategyCtx, StrategySpec};
    use egm_rng::Rng;
    use egm_simnet::{NodeId, SimDuration};

    fn eager_rate(spec: StrategySpec, c: f64, o: f64, round: u32, trials: u32) -> f64 {
        let s = spec.build(None).with_noise(c, o);
        let mut rng = Rng::seed_from_u64(5);
        let monitor = NullMonitor;
        let mut ctx = StrategyCtx {
            me: NodeId(0),
            rng: &mut rng,
            monitor: &monitor,
        };
        let hits = (0..trials)
            .filter(|_| s.eager(&mut ctx, NodeId(1), round))
            .count();
        hits as f64 / trials as f64
    }

    const TTL1: StrategySpec = StrategySpec::Ttl { u: 1 };

    #[test]
    fn zero_noise_is_transparent() {
        // TTL at round 0 with u=1 is always eager; noise 0 keeps it so.
        assert_eq!(eager_rate(TTL1, 0.3, 0.0, 0, 1000), 1.0);
        assert_eq!(eager_rate(TTL1, 0.3, 0.0, 5, 1000), 0.0);
    }

    #[test]
    fn full_noise_degenerates_to_flat_c() {
        // o=1: outcome is Bernoulli(c) regardless of the rule's decision.
        let rate_eager_round = eager_rate(TTL1, 0.3, 1.0, 0, 100_000);
        let rate_lazy_round = eager_rate(TTL1, 0.3, 1.0, 5, 100_000);
        assert!((rate_eager_round - 0.3).abs() < 0.01, "{rate_eager_round}");
        assert!((rate_lazy_round - 0.3).abs() < 0.01, "{rate_lazy_round}");
    }

    #[test]
    fn expected_traffic_is_preserved_at_intermediate_noise() {
        // Use a rule whose rate is exactly c and check the blurred rate
        // stays c: with v ~ Bernoulli(c), E[v'] = c + (c - c)(1 - o) = c.
        for o in [0.25, 0.5, 0.75] {
            let rate = eager_rate(StrategySpec::Flat { pi: 0.3 }, 0.3, o, 0, 200_000);
            assert!((rate - 0.3).abs() < 0.01, "o={o}: rate {rate}");
        }
    }

    #[test]
    fn intermediate_noise_blurs_decisions() {
        // At o=0.5, an always-eager rule with c=0.3 should be eager with
        // probability 0.3 + 0.7*0.5 = 0.65.
        let rate = eager_rate(TTL1, 0.3, 0.5, 0, 100_000);
        assert!((rate - 0.65).abs() < 0.01, "rate {rate}");
        // and a never-eager rule: 0.3*0.5 = 0.15.
        let rate = eager_rate(TTL1, 0.3, 0.5, 5, 100_000);
        assert!((rate - 0.15).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn scheduling_is_delegated() {
        // Noise blurs `Eager?` only: request scheduling stays the rule's.
        let s = StrategySpec::Radius {
            rho: 10.0,
            t0_ms: 20.0,
        }
        .build(None)
        .with_noise(0.1, 0.5);
        assert_eq!(s.first_request_delay(), SimDuration::from_ms(20.0));
    }

    #[test]
    #[should_panic(expected = "noise ratio")]
    fn invalid_noise_panics() {
        let _ = StrategySpec::Flat { pi: 0.5 }
            .build(None)
            .with_noise(0.5, 1.5);
    }
}
