//! Fault-resilience sweep: the scheduled-fault scenario library ×
//! churn-rate grid, with online re-ranking active, on one scale preset.
//!
//! Runs [`egm_workload::experiments::fault_resilience::run_at_preset`] —
//! every [`FaultScenarioKind`] against
//! every churn level, recording delivery ratio, hub-overlap stability
//! and the p99 publish→delivery latency per cell — then re-runs one
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
//! * `EGM_SCALE_MESSAGES` — multicasts per run (default 10).
//! * `EGM_BENCH_OUT` — output path (default `BENCH_events_per_sec.json`).
//! * `EGM_MIN_DELIVERY_RATIO` — when set, *assert* every cell's delivery
//!   ratio meets this floor (the CI fault smoke job's regression guard).
//! * `EGM_SHARD_WIDTHS` — comma-separated widths for the byte-identity
//!   check on the representative cell (default `2,4`; empty to skip).

use egm_bench::{env_list, env_parse, env_usize, record};
use egm_workload::experiments::fault_resilience::{
    churn_levels, render, rerank_plan, run_at_preset,
};
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::{runner, FaultScenarioKind};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let preset = ScalePreset::from_env();
    let messages = env_usize("EGM_SCALE_MESSAGES", 10).max(1);
    let out_path =
        std::env::var("EGM_BENCH_OUT").unwrap_or_else(|_| "BENCH_events_per_sec.json".to_string());
    let min_delivery = env_parse::<f64>("EGM_MIN_DELIVERY_RATIO");
    let widths: Vec<usize> = env_list("EGM_SHARD_WIDTHS").unwrap_or_else(|| vec![2, 4]);

    let nodes = preset.nodes();
    let seed = 42u64;
    println!(
        "{} preset: {nodes} nodes, {messages} messages, {} scenarios × {} churn levels",
        preset.label(),
        FaultScenarioKind::all().len(),
        churn_levels().len()
    );

    let t = Instant::now();
    let rows = run_at_preset(preset, messages, seed);
    let sweep_ms = t.elapsed().as_secs_f64() * 1000.0;
    println!("{}", render(&rows));
    println!("grid: {} cells in {sweep_ms:.0} ms", rows.len());

    if let Some(min) = min_delivery {
        for r in &rows {
            assert!(
                r.delivery >= min,
                "{} / {}: delivery {:.4} below the {min:.4} floor",
                r.scenario,
                r.churn,
                r.delivery
            );
        }
        println!("delivery floor {min:.2}: all {} cells pass", rows.len());
    }

    // Byte-identity of the harshest cell across shard widths: the same
    // fault trace, churn layout and re-rank ticks must reproduce the
    // sequential results exactly under the parallel engine.
    if !widths.is_empty() {
        let base = preset
            .scenario(messages, seed)
            .with_rerank(Some(rerank_plan()));
        let model = Arc::new(base.build_model());
        let traffic_ms = messages as f64 * base.mean_interval_ms + base.drain_ms;
        let schedule =
            FaultScenarioKind::DomainOutage.schedule(&model, base.warmup_ms, traffic_ms, seed);
        let (_, heavy) = churn_levels()[2];
        let cell = base.with_fault_schedule(Some(schedule)).with_churn(heavy);
        let seq = runner::run_detailed(&cell.clone().with_shards(Some(0)), Some(model.clone()));
        for &w in &widths {
            let sharded =
                runner::run_detailed(&cell.clone().with_shards(Some(w)), Some(model.clone()));
            assert_eq!(seq.report, sharded.report, "W={w} report diverged");
            assert_eq!(seq.log, sharded.log, "W={w} delivery log diverged");
            assert_eq!(seq.events, sharded.events, "W={w} event counts diverged");
            assert_eq!(
                seq.reranked_best_ids, sharded.reranked_best_ids,
                "W={w} re-ranked hubs diverged"
            );
        }
        println!(
            "byte-identity: domain outage × heavy churn matches seq at W ∈ {widths:?} \
             ({} events)",
            seq.events
        );
    }

    let rss_field = record::peak_rss_mb()
        .map(|mb| format!("{mb:.1}"))
        .unwrap_or_else(|| "null".to_string());
    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            let key = format!(
                "{}_{}",
                r.scenario.replace(' ', "_"),
                r.churn.replace(' ', "_")
            );
            format!(
                "  \"{key}\": {{\n    \"scenario\": \"{}\",\n    \"churn\": \"{}\",\n    \"delivery\": {:.4},\n    \"hub_stability\": {:.4},\n    \"p99_ms\": {:.3}\n  }}",
                r.scenario, r.churn, r.delivery, r.hub_stability, r.p99_ms
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"bench\": \"fault_resilience\",\n  \"preset\": \"{}\",\n  \"scenario\": \"fault scenario library × churn, online re-rank\",\n  \"nodes\": {nodes},\n  \"messages\": {messages},\n  \"cells\": {},\n  \"sweep_ms\": {sweep_ms:.1},\n  \"peak_rss_mb\": {rss_field},\n{}\n}}",
        preset.label(),
        rows.len(),
        cells.join(",\n")
    );
    let bin = format!("fault_resilience_{}", preset.label());
    record::upsert_bin(&out_path, &bin, &body);
    println!("wrote bin {bin} to {out_path}");
}
