//! Outcome pins of every fault path the runner injects.
//!
//! Each case runs one faulted scenario and asserts the exact event
//! count, payload count, mean-latency bits and permanent victims. A
//! fault that lands at a different time, on a different node or in a
//! different schedule order moves at least one of the four. The
//! determinism suites only compare runs with each other; these
//! constants pin the outcomes themselves.

use egm_core::{RankSource, StrategySpec};
use egm_topology::TransitStubConfig;
use egm_workload::faults::{ChurnPlan, FaultScenarioKind, RerankPlan};
use egm_workload::{FaultPlan, FaultSelection, Scenario, TopologySource};

/// `fault_determinism`'s base scenario: a transit–stub model, gossip
/// ranking with two re-rank ticks and overlapping churn.
fn resilience_base() -> Scenario {
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

/// The base scenario with `kind`'s library schedule installed.
fn library(kind: FaultScenarioKind) -> Scenario {
    let base = resilience_base();
    let model = base.build_model();
    let traffic_ms = base.messages as f64 * base.mean_interval_ms + base.drain_ms;
    let schedule = kind.schedule(&model, base.warmup_ms, traffic_ms, base.seed);
    base.with_fault_schedule(Some(schedule))
}

type Case = (&'static str, Scenario, u64, u64, u64, &'static [usize]);

/// `(label, scenario, events, total_payloads, mean_latency_ms bits,
/// victims)`.
fn cases() -> Vec<Case> {
    let smoke = Scenario::smoke_test;
    let ranked = || {
        smoke().with_strategy(StrategySpec::Ranked {
            best_fraction: 0.25,
        })
    };
    vec![
        (
            "random victims",
            smoke().with_faults(Some(FaultPlan::new(0.25, FaultSelection::Random))),
            2432,
            3228,
            0x40574541d7a71d12,
            &[6, 11, 20, 21, 22, 7],
        ),
        (
            "best-ranked victims",
            ranked().with_faults(Some(FaultPlan::new(0.25, FaultSelection::BestRanked))),
            3998,
            1408,
            0x4072242abab1f852,
            &[7, 10, 13, 19, 22, 23],
        ),
        (
            "churn",
            smoke().with_churn(Some(ChurnPlan::new(400.0, 300.0))),
            4173,
            4242,
            0x4055cd4fb3dd2fe2,
            &[],
        ),
        (
            "victims + churn",
            smoke()
                .with_faults(Some(FaultPlan::new(0.2, FaultSelection::Random)))
                .with_churn(Some(ChurnPlan::new(500.0, 250.0))),
            2459,
            3270,
            0x4057452d93b2d614,
            &[5, 3, 4, 19, 18],
        ),
        (
            "baseline",
            library(FaultScenarioKind::Baseline),
            1796,
            768,
            0x40584ca17d65e57c,
            &[],
        ),
        (
            "domain outage",
            library(FaultScenarioKind::DomainOutage),
            1507,
            676,
            0x40570d6c9047f6d8,
            &[],
        ),
        (
            "transit degrade",
            library(FaultScenarioKind::TransitDegradation),
            1728,
            748,
            0x406d5982e57e3718,
            &[],
        ),
        (
            "flash crowd",
            library(FaultScenarioKind::FlashCrowd),
            1808,
            768,
            0x40584ca17d65e57c,
            &[],
        ),
        (
            "node slowdown",
            library(FaultScenarioKind::NodeSlowdown),
            1799,
            771,
            0x4059611f8698e51b,
            &[],
        ),
    ]
}

#[test]
fn every_fault_path_is_pinned() {
    for (label, scenario, events, payloads, latency_bits, victims) in cases() {
        let out = scenario.run();
        assert_eq!(out.events, events, "{label}: events");
        assert_eq!(out.report.total_payloads, payloads, "{label}: payloads");
        assert_eq!(
            out.report.mean_latency_ms().to_bits(),
            latency_bits,
            "{label}: mean latency bits"
        );
        let got: Vec<usize> = out.victims.iter().map(|v| v.index()).collect();
        assert_eq!(got, victims, "{label}: victims");
    }
}
