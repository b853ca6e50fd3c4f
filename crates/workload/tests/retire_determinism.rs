//! Retirement A/B regression: horizon-based message retirement must be a
//! memory knob, never a behavioural one.
//!
//! Retirement frees delivered arena slots once the horizon elapses; the
//! contract ([`egm_core::ProtocolConfig::retire_after`]) is that no live
//! protocol event references a slot that old, so every observable output
//! must be byte-identical with retirement on or off. The proptest drives
//! the `N1k` preset across random seeds, comparing a retirement-off
//! reference against retirement-on runs on the sequential engine and on
//! every shard width the CI A/B covers (W ∈ {1, 2, 4}).
//!
//! The interval is stretched so the sim outlives the 10 s horizon —
//! otherwise nothing retires before the drain ends and the test would
//! pin nothing (the `retired_messages > 0` assertion guards against
//! that).

use egm_workload::experiments::scale::ScalePreset;
use egm_workload::runner::{prepare, run_prepared};
use proptest::prelude::*;

/// The `N1k` preset with traffic spread wide enough (6 messages, 2 s
/// mean gap) that early deliveries cross the 10 s retirement horizon
/// while later messages are still in flight.
fn stretched_scenario(seed: u64) -> egm_workload::Scenario {
    let mut s = ScalePreset::N1k.scenario(6, seed);
    s.mean_interval_ms = 2_000.0;
    s
}

/// End-of-run sweep regression: messages published near the end of the
/// run carry retire horizons past the last simulated event, so without
/// the runner's seal-time sweep their slots would stay accounted as
/// live. With the sweep, every stored slot retires — one per delivery,
/// exactly — even when the drain is far shorter than the horizon.
#[test]
fn end_of_run_sweep_retires_every_stored_slot() {
    let mut scenario = stretched_scenario(3);
    // Drain (2 s) ≪ horizon (10 s): the last messages' horizons lie past
    // the end of the run, the exact shape the sweep exists for.
    scenario.drain_ms = 2_000.0;
    let outcome = scenario.run();
    assert!(
        outcome.report.mean_delivery_fraction > 0.99,
        "{}",
        outcome.report
    );
    assert_eq!(
        outcome.retired_messages,
        outcome.log.total_deliveries(),
        "every stored slot must retire once the run is sealed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn retirement_is_byte_identical_across_engines(seed in 0u64..1_000) {
        let on = stretched_scenario(seed);
        let mut off = on.clone();
        off.protocol.retire_after = None;
        // The retirement horizon is not a setup input: one setup serves
        // both arms at every width.
        let setup = prepare(&on, None);

        // Reference: retirement off, sequential engine.
        let reference = run_prepared(&off.clone().with_shards(Some(0)), &setup);
        prop_assert_eq!(reference.retired_messages, 0);

        // Retirement on, sequential: identical outputs up to the first
        // retirement counter (every field declared before it), slots
        // actually freed, and a working set no larger than the unbounded
        // run's.
        let seq = run_prepared(&on.clone().with_shards(Some(0)), &setup);
        prop_assert_eq!(reference.first_difference(&seq), Some("retired_messages"));
        prop_assert!(seq.retired_messages > 0, "no slot crossed the horizon");
        prop_assert!(seq.arena_high_water <= reference.arena_high_water);

        // Retirement on across the sharded widths the CI A/B covers: the
        // whole outcome, retirement counters included, matches `seq`.
        for w in [1usize, 2, 4] {
            let sharded = run_prepared(&on.clone().with_shards(Some(w)), &setup);
            let diff = seq.first_difference(&sharded);
            prop_assert!(diff.is_none(), "W={w}: {diff:?} diverged");
        }
    }
}
