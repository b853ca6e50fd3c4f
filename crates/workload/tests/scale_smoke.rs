//! Scale-axis smoke tests: 1k-node runs must complete through the sweep
//! runner in bounded memory, with the protocol still functioning.

use egm_workload::experiments::scale::{run_presets, ScalePreset};

#[test]
fn one_k_ranked_run_completes_under_run_sweep() {
    let outcomes = run_presets(&[(ScalePreset::N1k, 11)], 4);
    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];

    // The network model is the two-level routed layout: no n×n matrix.
    let shape = outcome.model.memory_shape();
    assert_eq!(shape.dense_cells, 0, "no dense client matrix at 1k");
    assert_eq!(shape.client_entries, 1_000);

    // The protocol worked: messages were disseminated broadly.
    assert_eq!(outcome.report.nodes, 1_000);
    assert!(
        outcome.report.mean_delivery_fraction > 0.9,
        "delivery fraction {}",
        outcome.report.mean_delivery_fraction
    );

    // Lazy-heavy traffic exercised timer cancellation: resolved payloads
    // retire their retry timers instead of letting dead events dispatch.
    assert!(
        outcome.timers_cancelled > 0,
        "scale runs must cancel request timers"
    );
    assert_eq!(
        outcome.scheduler.resolved_timer_pops, 0,
        "no resolved message may pop a request timer"
    );

    // Accounting stayed consistent even with the spill bound configured.
    assert!(outcome.report.total_messages > 0);
    assert_eq!(
        outcome.payloads_per_node.iter().sum::<u64>(),
        outcome.report.total_payloads,
        "per-node payload counters remain exact under spill accounting"
    );

    // The per-node payload table is pre-sized to the node count, so the
    // hot send path never reallocates it — the growth counter is the
    // regression pin.
    assert_eq!(
        outcome.payload_vec_growths, 0,
        "per-node payload table must never regrow on the hot path"
    );
}

/// The acceptance-scale run: a 10k-node Ranked scenario through
/// `run_sweep`. Ignored by default (minutes of wall time); run with
/// `cargo test -p egm_workload --test scale_smoke -- --ignored`.
#[test]
#[ignore = "10k nodes: minutes of wall time; run explicitly"]
fn ten_k_ranked_run_completes_under_run_sweep() {
    let outcomes = run_presets(&[(ScalePreset::N10k, 3)], 4);
    let outcome = &outcomes[0];
    assert_eq!(outcome.report.nodes, 10_000);
    assert_eq!(outcome.model.memory_shape().dense_cells, 0);
    assert!(
        outcome.report.mean_delivery_fraction > 0.9,
        "delivery fraction {}",
        outcome.report.mean_delivery_fraction
    );
    assert_eq!(outcome.scheduler.resolved_timer_pops, 0);
}
