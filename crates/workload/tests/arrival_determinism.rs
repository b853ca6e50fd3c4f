//! Arrival-axis regression: open- and closed-loop workloads must be as
//! deterministic as the historical uniform plan — byte-identical across
//! reruns and across every engine/shard-width choice — and must feed the
//! tail-latency histogram and steady-state block consistently.

use egm_core::StrategySpec;
use egm_workload::runner::{prepare, run_prepared, RunOutcome};
use egm_workload::{Arrival, ArrivalProcess, Scenario};

/// Runs `scenario` on one shard twice, then at every width over the
/// same setup, requires one outcome throughout and returns it.
fn assert_byte_identical_across_widths(scenario: &Scenario) -> RunOutcome {
    let setup = prepare(scenario, None);
    let run = |w: usize| run_prepared(&scenario.clone().with_shards(Some(w)), &setup);
    let seq = run(0);
    assert_eq!(seq.first_difference(&run(0)), None, "rerun");
    for w in [1usize, 2, 4] {
        assert_eq!(seq.first_difference(&run(w)), None, "W={w}");
    }
    seq
}

fn open_poisson() -> Scenario {
    Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_messages(120)
        .with_arrival(Some(Arrival::Open(ArrivalProcess::Poisson {
            rate_per_sec: 20.0,
        })))
}

fn closed_loop() -> Scenario {
    Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_messages(40)
        .with_arrival(Some(Arrival::Closed { think_ms: 20.0 }))
}

#[test]
fn open_loop_is_byte_identical_across_reruns_and_widths() {
    let seq = assert_byte_identical_across_widths(&open_poisson());

    // The stationary process has zero warm-up: the window covers every
    // delivery, and percentiles come out well-ordered.
    assert!(seq.report.mean_delivery_fraction > 0.99, "{}", seq.report);
    assert_eq!(seq.latency.total(), seq.log.total_deliveries());
    assert_eq!(seq.steady.published, 120);
    assert!(seq.latency.p50_ms() <= seq.latency.p99_ms());
    assert!(seq.latency.p99_ms() <= seq.latency.p999_ms());
    assert!(seq.steady.publishes_per_sec > 0.0);
    assert!(seq.steady.deliveries_per_sec > seq.steady.publishes_per_sec);
}

#[test]
fn closed_loop_completes_and_is_byte_identical_across_widths() {
    let seq = assert_byte_identical_across_widths(&closed_loop());

    // Every publish was gated on the previous delivery, so the full
    // message count still went out and arrived everywhere.
    assert!(seq.report.mean_delivery_fraction > 0.99, "{}", seq.report);
    assert_eq!(seq.steady.published, 40);
    assert_eq!(seq.latency.total(), seq.log.total_deliveries());
}

#[test]
fn diurnal_warmup_excludes_the_ramp_from_the_window() {
    let scenario = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_messages(100)
        .with_arrival(Some(Arrival::Open(ArrivalProcess::Diurnal {
            low_rate: 5.0,
            high_rate: 50.0,
            ramp_ms: 2_000.0,
        })));
    let outcome = scenario.run();
    // The window opens after the 2 s ramp: ramp-time publishes exist but
    // are excluded from the steady block and the histogram.
    assert!(
        outcome.steady.published > 0 && outcome.steady.published < 100,
        "window must split the schedule: {} in window",
        outcome.steady.published
    );
    assert!(outcome.latency.total() < outcome.log.total_deliveries());
    assert_eq!(outcome.steady.window_start_ms, scenario.warmup_ms + 2_000.0);
}

#[test]
#[should_panic(expected = "fault-free")]
fn closed_loop_rejects_fault_plans() {
    use egm_workload::{FaultPlan, FaultSelection};
    let scenario = closed_loop().with_faults(Some(FaultPlan::new(0.25, FaultSelection::Random)));
    let _ = scenario.run();
}
