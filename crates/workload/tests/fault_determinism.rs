//! Fault-scenario determinism: every library [`FaultScenarioKind`] —
//! with overlapping churn and online re-ranking active — must produce a
//! byte-identical [`RunOutcome`] on rerun and at every shard width.
//!
//! This is the property the whole fault axis rests on: a fault trace is
//! plain data replayed at fixed `(time, seq)` points, the re-rank ticks
//! are pure functions of the scenario, and the degradation/slowdown
//! state is replicated to every shard under one shared sequence number —
//! so parallelism can never leak into resilience measurements.

use egm_core::{RankSource, StrategySpec};
use egm_topology::TransitStubConfig;
use egm_workload::faults::{ChurnPlan, FaultScenarioKind, RerankPlan};
use egm_workload::runner::{prepare, run_prepared};
use egm_workload::{Scenario, TopologySource};
use std::sync::Arc;

/// The base resilience scenario: a transit–stub model (so domain
/// outages are real), gossip-sorted ranking with two online re-rank
/// ticks, and overlapping churn on top of the library fault trace.
fn base_scenario() -> Scenario {
    Scenario {
        topology: TopologySource::TransitStub(TransitStubConfig::small().with_clients(24)),
        messages: 12,
        ..Scenario::smoke_test()
    }
    .with_strategy(StrategySpec::Ranked {
        best_fraction: 0.25,
    })
    .with_rank_source(RankSource::GossipSorted { rounds: 3 })
    .with_rerank(Some(RerankPlan::new(80.0, 2)))
    .with_churn(Some(ChurnPlan::new(300.0, 450.0)))
    .with_seed(13)
}

/// Runs one library scenario on one shard twice, then at every width,
/// and requires one outcome throughout. W = 4 on a two-core box also
/// covers the window barrier's park-at-once path.
fn assert_byte_identical_across_widths(kind: FaultScenarioKind) {
    let base = base_scenario();
    let model = Arc::new(base.build_model());
    let traffic_ms = base.messages as f64 * base.mean_interval_ms + base.drain_ms;
    let schedule = kind.schedule(&model, base.warmup_ms, traffic_ms, base.seed);
    let scenario = base.with_fault_schedule(Some(schedule));
    let label = kind.label();
    let setup = prepare(&scenario, Some(model));
    let run = |w: usize| run_prepared(&scenario.clone().with_shards(Some(w)), &setup);

    let seq = run(0);
    assert_eq!(seq.first_difference(&run(0)), None, "{label}: seq rerun");
    assert!(
        seq.report.mean_delivery_fraction > 0.5,
        "{label}: {}",
        seq.report
    );
    if kind != FaultScenarioKind::Baseline {
        assert!(
            seq.reranked_best_ids.is_some(),
            "{label}: re-rank ticks must have run"
        );
    }
    for w in [1usize, 2, 4] {
        assert_eq!(seq.first_difference(&run(w)), None, "{label}: W={w}");
    }
}

#[test]
fn baseline_is_byte_identical_across_widths() {
    assert_byte_identical_across_widths(FaultScenarioKind::Baseline);
}

#[test]
fn domain_outage_is_byte_identical_across_widths() {
    assert_byte_identical_across_widths(FaultScenarioKind::DomainOutage);
}

#[test]
fn transit_degradation_is_byte_identical_across_widths() {
    assert_byte_identical_across_widths(FaultScenarioKind::TransitDegradation);
}

#[test]
fn flash_crowd_is_byte_identical_across_widths() {
    assert_byte_identical_across_widths(FaultScenarioKind::FlashCrowd);
}

#[test]
fn node_slowdown_is_byte_identical_across_widths() {
    assert_byte_identical_across_widths(FaultScenarioKind::NodeSlowdown);
}
