//! Integration tests for §4.3/§6.5: traffic-preserving noise injection.

use egm_core::{MonitorSpec, StrategySpec};
use egm_workload::{calibrate, NoiseConfig, Scenario};

fn ranked_scenario() -> Scenario {
    Scenario::smoke_test()
        .with_strategy(StrategySpec::Ranked {
            best_fraction: 0.25,
        })
        .with_monitor(MonitorSpec::OracleLatency)
}

/// Full noise erases the strategy: the per-node payload contribution of
/// regular nodes converges to the overall average (Fig. 6(a)).
#[test]
fn full_noise_equalizes_group_contributions() {
    let base = ranked_scenario();
    let c = calibrate::eager_rate(&base, None);
    let clean = base.clone().run().report;
    let noisy = base
        .with_noise(Some(NoiseConfig { o: 1.0, c }))
        .run()
        .report;

    let clean_low = clean.payloads_per_delivery_low.expect("group series");
    let clean_best = clean.payloads_per_delivery_best.expect("group series");
    let noisy_low = noisy.payloads_per_delivery_low.expect("group series");
    let noisy_best = noisy.payloads_per_delivery_best.expect("group series");

    assert!(clean_best > 2.0 * clean_low, "structure before noise");
    assert!(
        noisy_best < 1.3 * noisy_low,
        "structure must be erased: best {noisy_best} vs low {noisy_low}"
    );
}

/// Noise preserves the total amount of eager traffic (the calibration
/// property of §4.3).
#[test]
fn noise_preserves_total_traffic() {
    let base = ranked_scenario();
    let c = calibrate::eager_rate(&base, None);
    let clean = base.clone().run().report;
    for o in [0.5, 1.0] {
        let noisy = base
            .clone()
            .with_noise(Some(NoiseConfig { o, c }))
            .run()
            .report;
        let ratio = noisy.payloads_per_delivery / clean.payloads_per_delivery;
        assert!(
            (0.75..=1.35).contains(&ratio),
            "traffic drifted by {ratio} at noise {o}"
        );
    }
}

/// Noise never endangers correctness: delivery stays reliable at every
/// ratio (the paper: "worst case ... performance is bounded by the
/// original pure lazy or eager push protocols").
#[test]
fn noise_never_breaks_delivery() {
    let base = ranked_scenario();
    let c = calibrate::eager_rate(&base, None);
    for o in [0.25, 0.75, 1.0] {
        let report = base
            .clone()
            .with_noise(Some(NoiseConfig { o, c }))
            .run()
            .report;
        assert!(report.mean_delivery_fraction > 0.99, "noise {o}: {report}");
    }
}

/// Structure (top-5 % link share) decays monotonically-ish with noise and
/// approaches the unstructured baseline (Fig. 6(c)).
#[test]
fn structure_decays_toward_uniform() {
    let base = ranked_scenario();
    let c = calibrate::eager_rate(&base, None);
    let clean = base.clone().run().report;
    let noisy = base
        .with_noise(Some(NoiseConfig { o: 1.0, c }))
        .run()
        .report;
    assert!(
        noisy.top5_link_share < clean.top5_link_share,
        "top-5% share must shrink: {} -> {}",
        clean.top5_link_share,
        noisy.top5_link_share
    );
    assert!(
        noisy.node_gini < clean.node_gini,
        "node load skew must shrink"
    );
}
