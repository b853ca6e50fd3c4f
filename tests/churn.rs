//! Integration tests for transient churn (extension): nodes repeatedly go
//! silent and return while messages flow.

use egm_core::StrategySpec;
use egm_workload::faults::ChurnPlan;
use egm_workload::Scenario;

/// Modest churn (one node down at a time for short spans) costs only a
/// small slice of deliveries: the down node misses what was disseminated
/// while it was out, everything else is untouched.
#[test]
fn modest_churn_barely_dents_reliability() {
    let report = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_messages(60)
        .with_churn(Some(ChurnPlan::new(400.0, 300.0)))
        .run()
        .report;
    assert!(
        report.mean_delivery_fraction > 0.90,
        "churn cost too much: {report}"
    );
    assert!(
        report.mean_delivery_fraction < 1.0,
        "churned nodes must actually miss something: {report}"
    );
}

/// Lazy push plus retries rides out churn better than its own window of
/// vulnerability suggests: advertised payloads are re-requested after the
/// node revives, as long as a source entry survived.
#[test]
fn lazy_push_with_retries_survives_churn() {
    let mut scenario = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 0.0 })
        .with_messages(40)
        .with_churn(Some(ChurnPlan::new(500.0, 200.0)));
    scenario.drain_ms = 8000.0;
    let report = scenario.run().report;
    assert!(report.mean_delivery_fraction > 0.88, "{report}");
}

/// Churn interacts safely with permanent faults: both can be active in
/// the same run.
#[test]
fn churn_composes_with_permanent_faults() {
    use egm_workload::{FaultPlan, FaultSelection};
    let report = Scenario::smoke_test()
        .with_strategy(StrategySpec::Ranked {
            best_fraction: 0.25,
        })
        .with_faults(Some(FaultPlan::new(0.2, FaultSelection::Random)))
        .with_churn(Some(ChurnPlan::new(500.0, 250.0)))
        .run()
        .report;
    assert!(report.mean_delivery_fraction > 0.85, "{report}");
}

/// Churned runs are deterministic like everything else.
#[test]
fn churn_is_deterministic() {
    let scenario = Scenario::smoke_test()
        .with_strategy(StrategySpec::Ttl { u: 2 })
        .with_churn(Some(ChurnPlan::new(300.0, 200.0)));
    assert_eq!(scenario.run().report, scenario.run().report);
}
