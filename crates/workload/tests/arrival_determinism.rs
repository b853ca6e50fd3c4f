//! Arrival-axis regression: open-loop Poisson workloads must be as
//! deterministic as the historical uniform plan — byte-identical across
//! reruns and across every engine/shard-width choice — and both plans
//! must feed the tail-latency histogram and steady-state block
//! consistently.

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

/// Pins that the steady window is the whole traffic phase: it opens
/// when traffic starts at the end of warm-up, so every message is
/// published in it and every delivery lands in the histogram.
fn assert_window_is_the_traffic_phase(scenario: &Scenario, outcome: &RunOutcome) {
    assert_eq!(outcome.steady.window_start_ms, scenario.warmup_ms);
    assert_eq!(outcome.steady.published, scenario.messages);
    assert_eq!(outcome.latency.total(), outcome.log.total_deliveries());
}

#[test]
fn uniform_plan_window_is_the_whole_traffic_phase() {
    let scenario = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_messages(40);
    assert_eq!(scenario.arrival, None);
    let seq = assert_byte_identical_across_widths(&scenario);
    assert_window_is_the_traffic_phase(&scenario, &seq);
}

#[test]
fn poisson_window_is_the_whole_traffic_phase() {
    let scenario = open_poisson();
    assert_window_is_the_traffic_phase(&scenario, &scenario.run());
}
