//! Integration tests for §6.3: fault injection and reliability.

use egm_core::StrategySpec;
use egm_workload::{FaultPlan, FaultSelection, Scenario};

fn scenario() -> Scenario {
    // Paper-like gossip parameters scaled down: fanout 6 over 24 nodes.
    Scenario::smoke_test()
}

/// With no failures, eager push delivers everything (the paper's "perfect
/// atomic delivery" baseline).
#[test]
fn no_failures_is_perfect() {
    let report = scenario()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .run()
        .report;
    assert_eq!(report.mean_delivery_fraction, 1.0, "{report}");
}

/// Random failures of 20–40 % of nodes leave live-node delivery intact.
#[test]
fn random_failures_do_not_hurt_live_nodes() {
    for fraction in [0.2, 0.4] {
        let report = scenario()
            .with_strategy(StrategySpec::Flat { pi: 1.0 })
            .with_faults(Some(FaultPlan::new(fraction, FaultSelection::Random)))
            .run()
            .report;
        assert!(
            report.mean_delivery_fraction > 0.97,
            "at {fraction}: {report}"
        );
    }
}

/// Killing the best-ranked nodes — the emergent hubs carrying most
/// payload — must not collapse reliability (the paper's Fig. 5(b)
/// headline).
#[test]
fn killing_the_hubs_is_survivable() {
    for fraction in [0.2, 0.4] {
        let report = scenario()
            .with_strategy(StrategySpec::Ranked { best_fraction: 0.2 })
            .with_faults(Some(FaultPlan::new(fraction, FaultSelection::BestRanked)))
            .run()
            .report;
        assert!(
            report.mean_delivery_fraction > 0.95,
            "hub kill at {fraction}: {report}"
        );
    }
}

/// At extreme failure rates the protocol degrades (the paper observes
/// breakdown beyond 80 %): deliveries drop visibly below the no-failure
/// case.
#[test]
fn extreme_failures_finally_break_dissemination() {
    let mut s = scenario().with_strategy(StrategySpec::Flat { pi: 1.0 });
    s.topology = egm_workload::TopologySource::Uniform {
        nodes: 50,
        lo_ms: 39.0,
        hi_ms: 60.0,
    };
    let report = s
        .with_faults(Some(FaultPlan::new(0.85, FaultSelection::Random)))
        .run()
        .report;
    assert!(
        report.mean_delivery_fraction < 0.95,
        "85% dead should visibly hurt: {report}"
    );
}

/// Victims are excluded from the delivery accounting but remain silenced
/// on the wire: payload volume per delivery stays in the eager regime.
#[test]
fn accounting_with_faults_stays_consistent() {
    let report = scenario()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_faults(Some(FaultPlan::new(0.25, FaultSelection::Random)))
        .run()
        .report;
    // Senders keep pushing to dead peers (they cannot know), so traffic
    // per *live* delivery can even exceed the fanout.
    assert!(report.payloads_per_delivery > 3.0, "{report}");
    assert!(report.mean_delivery_fraction > 0.95, "{report}");
}
