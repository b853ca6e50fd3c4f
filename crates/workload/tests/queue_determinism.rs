//! End-to-end queue A/B regression: the heap escape hatch must be a real
//! A/B switch, not a divergent code path.
//!
//! The `N1k` scale preset runs once per [`QueueKind`] over one prepared
//! setup; every output `RunOutcome::first_difference` compares — the
//! full `DeliveryLog`, the per-link traffic tables, per-node payload
//! counts, scheduler counters, the simulator event count — must be
//! byte-identical. Together with
//! `egm_simnet`'s `queue_equivalence` proptest suite this pins the
//! property every sweep test relies on: queue choice is a performance
//! knob, never a behavioural one.

use egm_simnet::QueueKind;
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::runner::{prepare, run_prepared};

#[test]
fn one_k_preset_is_byte_identical_across_queues() {
    let scenario = ScalePreset::N1k.scenario(4, 11);
    // Share the setup so the comparison is purely about the event loop.
    let setup = prepare(&scenario, None);
    let on = |queue| run_prepared(&scenario.clone().with_event_queue(Some(queue)), &setup);
    let heap = on(QueueKind::Heap);
    let calendar = on(QueueKind::Calendar);

    assert_eq!(heap.first_difference(&calendar), None);
    // The queues did the same amount of work, each its own way.
    assert_eq!(heap.queue.pushes, calendar.queue.pushes);
    assert_eq!(heap.queue.pops, calendar.queue.pops);
    assert_eq!(heap.queue.max_len, calendar.queue.max_len);
    assert!(
        calendar.queue.bucket_count > 0,
        "calendar run must actually use the calendar queue"
    );
    assert_eq!(
        heap.queue.bucket_count, 0,
        "heap run must actually use the heap"
    );
}

#[test]
fn scale_presets_default_to_the_calendar_queue() {
    // The size-based default: scale presets (≥1k nodes) run the calendar
    // queue without any configuration.
    assert_eq!(QueueKind::auto_for(1_000), QueueKind::Calendar);
    assert_eq!(QueueKind::auto_for(10_000), QueueKind::Calendar);
    // The paper-scale runs (100 nodes) keep the cache-resident heap.
    assert_eq!(QueueKind::auto_for(100), QueueKind::Heap);
}
