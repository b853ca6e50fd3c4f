//! Fault-resilience gates: the scheduled-fault scenario library ×
//! churn-rate grid, with online re-ranking active, on one scale preset.
//!
//! Runs [`egm_workload::experiments::fault_resilience::run_at_preset`] —
//! every [`FaultScenarioKind`] against
//! every churn level, recording delivery ratio, hub-overlap stability
//! and the p99 publish→delivery latency per cell, and asserting every
//! cell delivers at least [`MIN_DELIVERY_RATIO`] — then re-runs one
//! representative harsh cell (domain outage × heavy churn) at every
//! shard width in `EGM_SHARD_WIDTHS`, asserting byte-identical results
//! against the sequential engine. Results are upserted as the
//! `fault_resilience_<preset>` bin of `BENCH_events_per_sec.json`
//! (schema in `egm_bench`'s crate docs).
//!
//! ```sh
//! EGM_SCALE_PRESET=1k cargo run --release -p egm_bench --bin fault_resilience
//! ```
//!
//! Environment:
//! * `EGM_SCALE_PRESET` — `1k` (default), `4k` or `10k`.
//! * `EGM_BENCH_OUT` — output path (default `BENCH_events_per_sec.json`).
//! * `EGM_SHARD_WIDTHS` — comma-separated widths for the byte-identity
//!   check on the representative cell (default `2,4`; empty to skip).

use egm_bench::{env_list, peak_rss_field, record, rounded};
use egm_server::json::Json;
use egm_workload::experiments::fault_resilience::{
    churn_levels, harshest_cell, render, run_at_preset,
};
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::{runner, FaultScenarioKind};

/// Multicasts per cell.
const MESSAGES: usize = 10;
const SEED: u64 = 42;
/// Floor on every cell's delivery ratio.
const MIN_DELIVERY_RATIO: f64 = 0.90;

fn main() {
    let preset = ScalePreset::from_env();
    let widths: Vec<usize> = env_list("EGM_SHARD_WIDTHS").unwrap_or_else(|| vec![2, 4]);

    let nodes = preset.nodes();
    println!(
        "{} preset: {nodes} nodes, {MESSAGES} messages, {} scenarios × {} churn levels",
        preset.label(),
        FaultScenarioKind::all().len(),
        churn_levels().len()
    );

    let rows = run_at_preset(preset, MESSAGES, SEED);
    println!("{}", render(&rows));

    for r in &rows {
        assert!(
            r.delivery >= MIN_DELIVERY_RATIO,
            "{} / {}: delivery {:.4} below the {MIN_DELIVERY_RATIO:.4} floor",
            r.scenario,
            r.churn,
            r.delivery
        );
    }
    println!(
        "delivery floor {MIN_DELIVERY_RATIO:.2}: all {} cells pass",
        rows.len()
    );

    // Byte-identity of the harshest cell across shard widths: the same
    // fault trace, churn layout and re-rank ticks must reproduce the
    // sequential results exactly under the parallel engine.
    if !widths.is_empty() {
        let (cell, model) = harshest_cell(preset, MESSAGES, SEED);
        let setup = runner::prepare(&cell, Some(model));
        let seq = runner::run_prepared(&cell.clone().with_shards(Some(0)), &setup);
        for &w in &widths {
            let sharded = runner::run_prepared(&cell.clone().with_shards(Some(w)), &setup);
            assert_eq!(seq.first_difference(&sharded), None, "W={w} diverged");
        }
        println!(
            "byte-identity: domain outage × heavy churn matches seq at W ∈ {widths:?} \
             ({} events)",
            seq.events
        );
    }

    let cells: Vec<String> = rows
        .iter()
        .map(|r| format!("{}_{}", r.scenario, r.churn).replace(' ', "_"))
        .collect();
    let mut bin = vec![
        ("bench", Json::str("fault_resilience")),
        ("preset", Json::str(preset.label())),
        (
            "scenario",
            Json::str("fault scenario library × churn, online re-rank"),
        ),
        ("nodes", Json::num(nodes as f64)),
        ("messages", Json::num(MESSAGES as f64)),
        ("cells", Json::num(rows.len() as f64)),
        ("peak_rss_mb", peak_rss_field(None, preset.label())),
    ];
    for (key, r) in cells.iter().zip(&rows) {
        bin.push((
            key,
            Json::obj(vec![
                ("scenario", Json::str(&r.scenario)),
                ("churn", Json::str(&r.churn)),
                ("delivery", rounded(r.delivery, 4)),
                ("hub_stability", rounded(r.hub_stability, 4)),
                ("p99_ms", rounded(r.p99_ms, 3)),
            ]),
        ));
    }
    let out_path = record::path();
    let name = format!("fault_resilience_{}", preset.label());
    record::upsert_bin(&out_path, &name, Json::obj(bin));
    println!("wrote bin {name} to {out_path}");
}
