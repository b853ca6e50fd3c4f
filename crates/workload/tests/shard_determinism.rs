//! End-to-end shard A/B regression: the shard count must be a real
//! performance knob, never a behavioural one.
//!
//! The `N1k` scale preset runs once on one shard and once per wider
//! width over one prepared setup; every output
//! `RunOutcome::first_difference` compares — the full `DeliveryLog`, the
//! per-link traffic tables (including which links spill — shards cap
//! locally and merge), per-node payload counts, scheduler and timer
//! counters, latency histograms, the simulator event count — must be
//! byte-identical. Together with `egm_simnet`'s
//! `shard_equivalence` proptest suite this pins the property the whole
//! scale axis relies on: sharding one run across cores cannot change its
//! results.

use egm_simnet::shard::auto_shards_for;
use egm_simnet::{ProgressEvent, ProgressSink, ShardStats};
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::runner::{prepare, run_prepared, run_prepared_observed};
use std::sync::{Arc, Mutex};

#[test]
fn one_k_preset_is_byte_identical_across_shard_widths() {
    let scenario = ScalePreset::N1k.scenario(4, 11);
    // Share the setup so the comparison is purely about the event loop.
    let setup = prepare(&scenario, None);

    // The reference: one shard, forced explicitly so the test is immune
    // to the multi-core auto default.
    let seq = run_prepared(&scenario.clone().with_shards(Some(0)), &setup);
    assert_eq!(seq.shard_stats.shards, 1);
    assert_eq!(seq.shard_stats.windows, 0, "one shard runs no windows");

    for w in [2usize, 4] {
        let sharded = run_prepared(&scenario.clone().with_shards(Some(w)), &setup);
        assert_eq!(seq.first_difference(&sharded), None, "W={w}");
        assert_eq!(sharded.shard_stats.shards, w);
        assert!(
            sharded.shard_stats.windows > 1,
            "W={w} must run conservative windows"
        );
        assert!(
            sharded.shard_stats.lane_events > 0,
            "W={w} must exchange cross-shard traffic"
        );
        assert!(sharded.shard_stats.lookahead_us > 0);
    }
}

/// The planned cut is there to share the work: two shards of the 1k
/// preset dispatch 171 450 / 161 072 events (51.6 / 48.4 %; the
/// stop-at-W planner left 612 / 388 nodes). Event counts repeat exactly,
/// so the gate cannot flake.
#[test]
fn planned_cut_balances_two_shards_of_the_one_k_preset() {
    use egm_simnet::PartitionStrategy;
    let scenario = ScalePreset::N1k
        .scenario(30, 42)
        .with_shards(Some(2))
        .with_partition(Some(PartitionStrategy::DomainAligned));
    let outcome = scenario.run();
    let stats = &outcome.shard_stats;
    assert_eq!(stats.strategy, PartitionStrategy::DomainAligned);
    let per_shard = &stats.per_shard_events;
    assert_eq!(per_shard.iter().sum::<u64>(), outcome.events);
    let heaviest = *per_shard.iter().max().expect("two shards");
    assert!(
        heaviest as f64 * 2.0 <= 1.10 * outcome.events as f64,
        "W=2 split the events {per_shard:?}: heaviest shard over 1.10 x mean"
    );
}

#[derive(Debug, Default)]
struct Frames(Mutex<Vec<ProgressEvent>>);

impl ProgressSink for Frames {
    fn emit(&self, event: ProgressEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// `shards = 0` and `shards = 1` are the same request — one shard, the
/// route-less sequential loop: equal outcomes *including* the shard
/// counters, and an observed run of each streams the identical frame
/// sequence (chunks, never windows).
#[test]
fn zero_and_one_shards_are_the_same_run() {
    let scenario = ScalePreset::N1k.scenario(4, 11);
    let setup = prepare(&scenario, None);
    let observe = |shards: usize| {
        let sink = Arc::new(Frames::default());
        let scenario = scenario.clone().with_shards(Some(shards));
        let outcome = run_prepared_observed(&scenario, &setup, sink.clone());
        let frames = std::mem::take(&mut *sink.0.lock().unwrap());
        (outcome, frames)
    };
    let (zero, zero_frames) = observe(0);
    let (one, one_frames) = observe(1);
    assert_eq!(zero.first_difference(&one), None, "shards 0 vs 1");
    assert_eq!(zero.queue, one.queue);
    assert_eq!(zero.shard_stats, one.shard_stats);
    // No windows, no lookahead, no lanes, the contiguous default.
    assert_eq!(
        one.shard_stats,
        ShardStats {
            shards: 1,
            ..ShardStats::default()
        }
    );

    assert_eq!(zero_frames, one_frames, "frame streams diverged");
    let chunks = one_frames
        .iter()
        .filter(|f| matches!(f, ProgressEvent::Chunk { .. }))
        .count();
    assert!(chunks > 1, "one shard streams chunk frames: {one_frames:?}");
    assert!(
        !one_frames
            .iter()
            .any(|f| matches!(f, ProgressEvent::Window { .. })),
        "one shard plans no windows"
    );
}

/// The 10k twin of the 1k A/B, for the nightly heavy pass:
/// `cargo test --release -p egm_workload --test shard_determinism -- --ignored`.
#[test]
#[ignore = "10k nodes: minutes of wall time; run explicitly"]
fn ten_k_preset_is_byte_identical_across_shard_widths() {
    let scenario = ScalePreset::N10k.scenario(4, 11);
    let setup = prepare(&scenario, None);
    let seq = run_prepared(&scenario.clone().with_shards(Some(0)), &setup);
    for w in [2usize, 8] {
        let sharded = run_prepared(&scenario.clone().with_shards(Some(w)), &setup);
        assert_eq!(seq.first_difference(&sharded), None, "W={w}");
        assert!(sharded.shard_stats.lane_events > 0);
    }
}

/// The shard-mode merge cap, end to end: with a finite spill threshold
/// the merge-time accumulator must stay within the threshold at every
/// instant of the fold while the merged outputs stay byte-identical to
/// the one-shard twin.
#[test]
fn shard_merge_caps_the_accumulator_and_matches_sequential() {
    use egm_core::StrategySpec;
    use egm_workload::Scenario;

    let threshold = 64usize;
    let scenario = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .with_messages(60)
        .with_link_spill_threshold(Some(threshold));
    let setup = prepare(&scenario, None);

    let seq = run_prepared(&scenario.clone().with_shards(Some(0)), &setup);
    // One shard caps incrementally while recording, so its merge path
    // never accumulates anything.
    assert_eq!(seq.traffic_acc_peak, 0);
    assert_eq!(seq.report.used_links, threshold);

    for w in [2usize, 4] {
        let sharded = run_prepared(&scenario.clone().with_shards(Some(w)), &setup);
        assert_eq!(seq.first_difference(&sharded), None, "capped W={w}");
        assert!(
            sharded.traffic_acc_peak > 0,
            "W={w} must exercise the capped merge path"
        );
        assert!(
            sharded.traffic_acc_peak <= threshold,
            "W={w} merge accumulator peaked at {} links, threshold {threshold}",
            sharded.traffic_acc_peak
        );
        assert_eq!(sharded.report.used_links, threshold);
    }
}

#[test]
fn shard_selection_defaults() {
    // The size-based default engages two shards only at scale; below
    // the floor a run keeps the one-shard zero-overhead path, and no
    // machine makes it wider than the widest width measured as a win.
    use egm_simnet::shard::{MAX_AUTO_SHARDS, SHARD_MIN_NODES};
    assert_eq!(auto_shards_for(100), 1);
    assert_eq!(auto_shards_for(SHARD_MIN_NODES - 1), 1);
    for nodes in [SHARD_MIN_NODES, 10_000, 100_000] {
        let at_scale = auto_shards_for(nodes);
        assert!(
            (1..=MAX_AUTO_SHARDS).contains(&at_scale),
            "auto default follows available parallelism, capped: {at_scale}"
        );
    }
    assert_eq!(MAX_AUTO_SHARDS, 2);
}
