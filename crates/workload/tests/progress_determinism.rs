//! The ProgressSink is observe-only: a run with a sink installed must be
//! byte-identical to the same run without one, on one shard and on
//! several. This is
//! the determinism bar for the live-serving path — the server streams
//! progress from exactly these hooks, so any feedback from observation
//! into execution would silently fork the served results from the
//! benched ones.

use egm_core::StrategySpec;
use egm_simnet::{Fault, ProgressEvent, ProgressSink, SimDuration, SimTime};
use egm_workload::runner;
use egm_workload::{ChurnPlan, FaultPlan, FaultSchedule, FaultSelection, RerankPlan, Scenario};
use std::sync::{Arc, Mutex};

/// Collects every event; the test asserts the stream is non-trivial so
/// the byte-identity claim actually covers an observed run.
#[derive(Debug, Default)]
struct Collecting(Mutex<Vec<ProgressEvent>>);

impl ProgressSink for Collecting {
    fn emit(&self, event: ProgressEvent) {
        self.0.lock().unwrap().push(event);
    }
}

#[test]
fn sequential_run_is_byte_identical_with_sink() {
    let scenario = Scenario::smoke_test().with_strategy(StrategySpec::Ranked {
        best_fraction: 0.25,
    });
    let plain = scenario.run();
    let sink = Arc::new(Collecting::default());
    let observed =
        runner::run_prepared_observed(&scenario, &runner::prepare(&scenario, None), sink.clone());
    assert_eq!(plain.first_difference(&observed), None);
    // Same width, so the engine-dependent queue counters must agree too.
    assert_eq!(plain.queue, observed.queue, "queue counters diverged");

    let events = sink.0.lock().unwrap();
    // One shard reports fixed-chunk progress plus the final summary;
    // windows only exist on several shards.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Chunk { .. })),
        "no chunk events: {events:?}"
    );
    assert!(
        matches!(events.last(), Some(ProgressEvent::Summary { .. })),
        "missing summary: {events:?}"
    );
}

#[test]
fn sharded_run_is_byte_identical_with_sink_and_reports_windows() {
    let scenario = Scenario::smoke_test()
        .with_strategy(StrategySpec::Ranked {
            best_fraction: 0.25,
        })
        .with_shards(Some(2));
    let plain = scenario.run();
    let sink = Arc::new(Collecting::default());
    let observed =
        runner::run_prepared_observed(&scenario, &runner::prepare(&scenario, None), sink.clone());
    assert_eq!(plain.first_difference(&observed), None);
    assert_eq!(plain.queue, observed.queue, "queue counters diverged");
    // Window counts are part of the run's stats and must not move under
    // observation either.
    assert_eq!(plain.shard_stats, observed.shard_stats);

    let events = sink.0.lock().unwrap();
    let windows = events
        .iter()
        .filter(|e| matches!(e, ProgressEvent::Window { .. }))
        .count() as u64;
    assert!(windows > 0, "sharded run reported no windows");
    assert_eq!(
        windows, observed.shard_stats.windows,
        "every planned window must be reported exactly once"
    );
    assert!(matches!(events.last(), Some(ProgressEvent::Summary { .. })));
}

#[test]
fn prepared_observed_matches_prepared() {
    let scenario = Scenario::smoke_test().with_strategy(StrategySpec::Ranked {
        best_fraction: 0.25,
    });
    let setup = runner::prepare(&scenario, None);
    let plain = runner::run_prepared(&scenario, &setup);
    let sink = Arc::new(Collecting::default());
    let observed = runner::run_prepared_observed(&scenario, &setup, sink);
    assert_eq!(plain.first_difference(&observed), None);
    assert_eq!(plain.queue, observed.queue, "queue counters diverged");
}

#[test]
fn faulted_reranked_run_is_byte_identical_and_reports_ticks() {
    let scenario = Scenario::smoke_test()
        .with_strategy(StrategySpec::Ranked {
            best_fraction: 0.25,
        })
        .with_fault_schedule(Some(FaultSchedule::transit_degradation(
            50.0, 400.0, 2.0, 0.0,
        )))
        .with_rerank(Some(RerankPlan::new(100.0, 2)));
    let plain = scenario.run();
    let sink = Arc::new(Collecting::default());
    let observed =
        runner::run_prepared_observed(&scenario, &runner::prepare(&scenario, None), sink.clone());
    assert_eq!(plain.first_difference(&observed), None);
    assert_eq!(plain.queue, observed.queue, "queue counters diverged");

    let events = sink.0.lock().unwrap();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Fault { .. })),
        "scheduled faults must be reported: {events:?}"
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::Rerank { .. }))
            .count(),
        2,
        "one event per re-rank tick: {events:?}"
    );
}

#[test]
fn every_fault_action_is_reported_once_in_schedule_order() {
    let schedule = FaultSchedule::transit_degradation(50.0, 400.0, 2.0, 0.0);
    let churn = ChurnPlan::new(400.0, 300.0);
    let scenario = Scenario::smoke_test()
        .with_faults(Some(FaultPlan::new(0.25, FaultSelection::Random)))
        .with_fault_schedule(Some(schedule.clone()))
        .with_churn(Some(churn));
    let plain = scenario.run();
    let sink = Arc::new(Collecting::default());
    let observed =
        runner::run_prepared_observed(&scenario, &runner::prepare(&scenario, None), sink.clone());
    assert_eq!(plain.first_difference(&observed), None);

    let events = sink.0.lock().unwrap();
    let frames: Vec<(f64, Fault)> = events
        .iter()
        .filter_map(|e| match *e {
            ProgressEvent::Fault { at_ms, fault } => Some((at_ms, fault)),
            _ => None,
        })
        .collect();
    let victims = observed.victims.len();
    assert!(victims > 0, "the fault plan must kill someone");
    // Warm-up kills first, one `Silence` per victim at warm-up end.
    let kills: Vec<(f64, Fault)> = observed
        .victims
        .iter()
        .map(|&v| (scenario.warmup_ms, Fault::Silence(v)))
        .collect();
    assert_eq!(frames[..victims], kills[..]);
    // Then the explicit trace, verbatim.
    let traced: Vec<(f64, Fault)> = schedule
        .events
        .iter()
        .map(|e| (e.at_ms, e.action))
        .collect();
    let churned = &frames[victims..][traced.len()..];
    assert_eq!(frames[victims..][..traced.len()], traced[..]);
    // Then one (silence, revive) pair per churn outage.
    let outages = churned
        .iter()
        .filter(|(_, f)| matches!(f, Fault::Silence(_)))
        .count();
    assert!(outages > 0, "churn must strike within the run");
    assert_eq!(frames.len(), victims + traced.len() + 2 * outages);
    for pair in churned.chunks(2) {
        let (down_ms, Fault::Silence(node)) = pair[0] else {
            panic!("outage must open with a silence: {pair:?}");
        };
        assert!(!observed.victims.contains(&node), "{pair:?}");
        assert_eq!(pair[1].1, Fault::Revive(node), "{pair:?}");
        let up = SimTime::from_ms(down_ms) + SimDuration::from_ms(churn.down_ms);
        assert_eq!(SimTime::from_ms(pair[1].0), up, "{pair:?}");
    }
}
