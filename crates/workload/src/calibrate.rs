//! Calibration of the noise constant `c` (§4.3).
//!
//! The noise transformation `v' = c + (v − c)(1 − o)` requires `c` to be
//! *"set such that the overall probability of `Eager?` returning true is
//! unchanged"*. That probability depends on the strategy **and** the
//! dissemination dynamics (e.g. the round distribution for TTL), so it is
//! measured: a shortened, noise-free run of the same scenario is executed
//! and the fleet-wide fraction of eager `L-Send`s is returned.

use crate::scenario::{NoiseConfig, Scenario};
use egm_topology::RoutedModel;
use std::sync::Arc;

/// Number of messages used by the calibration run.
const CALIBRATION_MESSAGES: usize = 40;

/// The shortened, noise- and fault-free probe run used to measure `c`.
///
/// Exposed so sweeps can batch calibration probes through
/// [`crate::runner::run_sweep`] alongside other runs instead of executing
/// them inline.
pub fn probe_scenario(scenario: &Scenario) -> Scenario {
    let mut probe = scenario.clone();
    probe.noise = None;
    probe.faults = None;
    probe.messages = probe.messages.min(CALIBRATION_MESSAGES);
    probe
}

/// Computes the fleet-wide eager rate from a probe run's outcome.
///
/// # Panics
///
/// Panics if the run performed no `L-Sends` at all (no traffic means
/// nothing to calibrate).
pub fn rate_from_outcome(outcome: &crate::runner::RunOutcome) -> f64 {
    let s = outcome.scheduler;
    let total = s.eager_sends + s.lazy_advertisements;
    assert!(total > 0, "calibration run produced no L-Sends");
    s.eager_sends as f64 / total as f64
}

/// Measures the strategy's overall eager rate `c` for this scenario.
///
/// The calibration run is identical to the scenario except that noise and
/// faults are disabled and the message count is reduced.
///
/// # Panics
///
/// Panics if the calibration run performs no `L-Send`s at all (no traffic
/// means nothing to calibrate).
pub fn eager_rate(scenario: &Scenario, model: Option<Arc<RoutedModel>>) -> f64 {
    let probe = probe_scenario(scenario);
    let outcome = crate::runner::run_prepared(&probe, &crate::runner::prepare(&probe, model));
    rate_from_outcome(&outcome)
}

/// Builds a [`NoiseConfig`] for ratio `o` by calibrating `c` on the given
/// scenario.
pub fn noise_config(scenario: &Scenario, model: Option<Arc<RoutedModel>>, o: f64) -> NoiseConfig {
    NoiseConfig {
        o,
        c: eager_rate(scenario, model),
    }
}

#[cfg(test)]
mod tests {
    use super::{eager_rate, noise_config};
    use crate::scenario::Scenario;
    use egm_core::StrategySpec;

    #[test]
    fn pure_eager_rate_is_one() {
        let c = eager_rate(
            &Scenario::smoke_test().with_strategy(StrategySpec::Flat { pi: 1.0 }),
            None,
        );
        assert_eq!(c, 1.0);
    }

    #[test]
    fn pure_lazy_rate_is_zero() {
        let c = eager_rate(
            &Scenario::smoke_test().with_strategy(StrategySpec::Flat { pi: 0.0 }),
            None,
        );
        assert_eq!(c, 0.0);
    }

    #[test]
    fn flat_rate_matches_pi() {
        let c = eager_rate(
            &Scenario::smoke_test().with_strategy(StrategySpec::Flat { pi: 0.4 }),
            None,
        );
        assert!((c - 0.4).abs() < 0.05, "calibrated c = {c}");
    }

    #[test]
    fn ttl_rate_is_strictly_between_extremes() {
        let c = eager_rate(
            &Scenario::smoke_test().with_strategy(StrategySpec::Ttl { u: 2 }),
            None,
        );
        assert!(c > 0.0 && c < 1.0, "c = {c}");
    }

    #[test]
    fn noise_config_carries_ratio() {
        let nc = noise_config(
            &Scenario::smoke_test().with_strategy(StrategySpec::Flat { pi: 0.5 }),
            None,
            0.3,
        );
        assert_eq!(nc.o, 0.3);
        assert!((nc.c - 0.5).abs() < 0.05);
    }
}
