//! Integration tests for the Adaptive strategy extension: nodes tune
//! their eagerness from local duplicate feedback alone.

use egm_core::StrategySpec;
use egm_workload::Scenario;

fn adaptive(initial_pi: f64, target: f64) -> Scenario {
    Scenario::smoke_test().with_strategy(StrategySpec::Adaptive {
        initial_pi,
        target_duplicate_ratio: target,
    })
}

/// With a tight redundancy budget, the swarm settles well below pure
/// eager traffic while keeping delivery intact.
#[test]
fn tight_budget_cuts_traffic_without_losing_messages() {
    let eager = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_messages(60)
        .run()
        .report;
    let tuned = adaptive(1.0, 0.2).with_messages(60).run().report;
    assert!(
        tuned.payloads_per_delivery < 0.7 * eager.payloads_per_delivery,
        "adaptive {} vs eager {}",
        tuned.payloads_per_delivery,
        eager.payloads_per_delivery
    );
    assert!(tuned.mean_delivery_fraction > 0.99, "{tuned}");
}

/// A permissive budget keeps traffic near the eager regime: adaptation
/// reacts to the observed ratio, not to a fixed setpoint of pi.
#[test]
fn loose_budget_stays_eager() {
    let loose = adaptive(1.0, 0.95).with_messages(60).run().report;
    assert!(
        loose.payloads_per_delivery > 3.5,
        "loose budget should stay close to eager: {loose}"
    );
    assert!(loose.mean_delivery_fraction > 0.99, "{loose}");
}

/// Starting lazy, nodes ramp eagerness up toward the budget rather than
/// staying at the slow floor.
#[test]
fn adaptation_works_upward_too() {
    let from_lazy = adaptive(0.0, 0.5).with_messages(80).run().report;
    let pure_lazy = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 0.0 })
        .with_messages(80)
        .run()
        .report;
    assert!(
        from_lazy.payloads_per_delivery > pure_lazy.payloads_per_delivery + 0.3,
        "adaptive-from-lazy {} should exceed pure lazy {}",
        from_lazy.payloads_per_delivery,
        pure_lazy.payloads_per_delivery
    );
    assert!(from_lazy.mean_delivery_fraction > 0.99, "{from_lazy}");
}

/// Adaptation is deterministic under a fixed seed, like everything else.
#[test]
fn adaptive_runs_are_reproducible() {
    let a = adaptive(1.0, 0.3).run().report;
    let b = adaptive(1.0, 0.3).run().report;
    assert_eq!(a, b);
}
