//! Multi-shard event-loop throughput bench: events/s vs shard count and
//! partition on the scale presets.
//!
//! Runs one scale preset on one shard (the sequential reference) and
//! then, at each wider width, under the contiguous partition and under
//! the planned (domain-aligned) cut, asserting byte-identical results
//! for every (width, partition) pair — the determinism bar. The planner
//! yields one cut under both of its strategy names (`domain-aligned`,
//! `rate-balanced`), so the cut is timed once.
//! Per-run wall clock, events/s, window counts, lane traffic (events,
//! batched flushes, skipped exchanges), configured and realized
//! lookahead and the per-shard event balance are recorded in the
//! `shard_events_per_sec_<preset>` bin of `BENCH_events_per_sec.json`
//! (schema in `egm_bench`'s crate docs).
//!
//! Two gates need no knob, because they compare counts that repeat
//! exactly: the planned cut at W = 2 must split the events within
//! 1.10 × of the mean per shard, and every pair must reproduce the
//! one-shard run.
//!
//! ```sh
//! EGM_SCALE_PRESET=10k cargo run --release -p egm_bench --bin shard_events_per_sec
//! ```
//!
//! Environment:
//! * `EGM_SCALE_PRESET` — `1k` (default), `4k` or `10k`.
//! * `EGM_BENCH_RUNS` — timed runs per width after one warm-up (default 2).
//! * `EGM_SCALE_MESSAGES` — multicasts per run (default 30).
//! * `EGM_BENCH_OUT` — output path (default `BENCH_events_per_sec.json`).
//! * `EGM_SHARD_WIDTHS` — comma-separated widths (default `2,4`).
//! * `EGM_SHARD_MAX_WINDOWS` — when set, assert that every run under the
//!   planned cut executes at most this many windows — the
//!   topology-aware partitioning win, gated.
//! * `EGM_SCALE_RSS_BUDGET_MB` — when set, assert peak RSS stays under
//!   this budget across all widths.

use egm_bench::{env_list, env_parse, env_usize, record};
use egm_simnet::PartitionStrategy;
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::runner::{prepare, run_prepared, RunOutcome};
use std::fmt::Write as _;
use std::time::Instant;

fn time_runs(
    runs: usize,
    scenario: &egm_workload::Scenario,
    setup: &egm_workload::runner::RunSetup,
) -> (RunOutcome, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let start = Instant::now();
        let outcome = run_prepared(scenario, setup);
        best = best.min(start.elapsed().as_secs_f64() * 1000.0);
        last = Some(outcome);
    }
    (last.expect("at least one run"), best)
}

fn main() {
    let preset = ScalePreset::from_env();
    let runs = env_usize("EGM_BENCH_RUNS", 2).max(1);
    let messages = env_usize("EGM_SCALE_MESSAGES", 30).max(1);
    let out_path =
        std::env::var("EGM_BENCH_OUT").unwrap_or_else(|_| "BENCH_events_per_sec.json".to_string());
    let widths: Vec<usize> = env_list("EGM_SHARD_WIDTHS").unwrap_or_else(|| vec![2, 4]);
    let max_windows = env_parse::<u64>("EGM_SHARD_MAX_WINDOWS");
    let rss_budget_mb = env_parse::<f64>("EGM_SCALE_RSS_BUDGET_MB");

    let nodes = preset.nodes();
    let seed = 42u64;
    let base = preset.scenario(messages, seed);

    // One shared topology + prepared setup (ranking, views): the
    // comparison is purely about the event loop.
    let setup = prepare(&base, Some(std::sync::Arc::new(base.build_model())));

    // One-shard reference (forced: immune to the auto width).
    let seq_scenario = base.clone().with_shards(Some(0));
    let warm = run_prepared(&seq_scenario, &setup);
    let events = warm.events;
    println!(
        "warm-up: {nodes} nodes ({} preset), {messages} messages, {events} events, \
         delivery {:.2}%",
        preset.label(),
        warm.report.mean_delivery_fraction * 100.0
    );
    let (seq_out, seq_best) = time_runs(runs, &seq_scenario, &setup);
    assert_eq!(seq_out.events, events, "deterministic event count");
    let seq_eps = events as f64 / seq_best * 1000.0;
    println!("sequential: {seq_best:.1} ms wall ({seq_eps:.0} events/sec)");

    let mut width_fields = String::new();
    for &w in &widths {
        // Every width A/Bs the structure-free and the planned partition
        // over the same prepared setup.
        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::DomainAligned,
        ] {
            let scenario = base
                .clone()
                .with_shards(Some(w))
                .with_partition(Some(strategy));
            let (out, best) = time_runs(runs, &scenario, &setup);
            // The determinism bar: every (width, strategy) reproduces
            // the sequential run's outputs exactly.
            let tag = format!("W={w}/{strategy}");
            assert_eq!(out.events, events, "{tag} changed the event count");
            assert_eq!(out.report, seq_out.report, "{tag} changed the report");
            assert_eq!(out.log, seq_out.log, "{tag} changed the delivery log");
            assert_eq!(
                out.payload_links, seq_out.payload_links,
                "{tag} changed the link tables"
            );
            let eps = events as f64 / best * 1000.0;
            let speedup = seq_best / best;
            let stats = out.shard_stats;
            let balance = stats
                .per_shard_events
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("/");
            println!(
                "{tag} (effective {eff}): {best:.1} ms wall ({eps:.0} events/sec, \
                 {speedup:.2}x seq), {windows} windows ({skipped} exchange-free), \
                 {lane} lane events in {flushes} flushes, lookahead {la} us \
                 (realized {rla} us), per-shard events {balance}",
                eff = stats.strategy,
                windows = stats.windows,
                skipped = stats.exchanges_skipped,
                lane = stats.lane_events,
                flushes = stats.lane_flushes,
                la = stats.lookahead_us,
                rla = stats.realized_lookahead_us,
            );
            if strategy != PartitionStrategy::Contiguous {
                assert_eq!(stats.strategy, strategy, "{tag}: the planner fell back");
                if let Some(max) = max_windows {
                    assert!(
                        stats.windows <= max,
                        "{tag} ran {} windows, exceeding the EGM_SHARD_MAX_WINDOWS budget of {max}",
                        stats.windows
                    );
                }
                // Event counts repeat exactly, so this cannot flake: two
                // shards under the planned cut share the work evenly.
                if w == 2 {
                    let heaviest = *stats.per_shard_events.iter().max().expect("two shards");
                    assert!(
                        heaviest as f64 * 2.0 <= 1.10 * events as f64,
                        "{tag} split the events {balance}: heaviest shard over 1.10 x mean"
                    );
                }
            }
            let key = format!("w{w}_{}", strategy.name().replace('-', "_"));
            let shard_events = stats
                .per_shard_events
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            write!(
                width_fields,
                ",\n  \"{key}\": {{ \"strategy\": \"{eff}\", \"best_wall_ms\": {best:.3}, \
                 \"events_per_sec\": {eps:.0}, \"speedup_vs_seq\": {speedup:.3}, \
                 \"windows\": {}, \"lane_events\": {}, \"lane_flushes\": {}, \
                 \"exchanges_skipped\": {}, \"lookahead_us\": {}, \
                 \"realized_lookahead_us\": {}, \"per_shard_events\": [{shard_events}] }}",
                stats.windows,
                stats.lane_events,
                stats.lane_flushes,
                stats.exchanges_skipped,
                stats.lookahead_us,
                stats.realized_lookahead_us,
                eff = stats.strategy,
            )
            .expect("write to String");
        }
    }

    let peak_rss = record::peak_rss_mb();
    if let Some(budget) = rss_budget_mb {
        let peak = peak_rss.expect("RSS budget asserted but /proc unavailable");
        assert!(
            peak <= budget,
            "peak RSS {peak:.1} MB exceeds the {budget:.1} MB budget for the {} preset",
            preset.label()
        );
        println!("peak RSS within budget ({peak:.1} <= {budget:.1} MB)");
    }
    let rss_field = peak_rss
        .map(|mb| format!("{mb:.1}"))
        .unwrap_or_else(|| "null".to_string());

    let body = format!(
        "{{\n  \"bench\": \"shard_events_per_sec\",\n  \"preset\": \"{}\",\n  \
         \"scenario\": \"ranked best=20% scaled transit-stub\",\n  \"nodes\": {nodes},\n  \
         \"messages\": {messages},\n  \"runs\": {runs},\n  \"events\": {events},\n  \
         \"seq\": {{ \"best_wall_ms\": {seq_best:.3}, \"events_per_sec\": {seq_eps:.0} }}\
         {width_fields},\n  \"peak_rss_mb\": {rss_field}\n}}",
        preset.label()
    );
    let bin = format!("shard_events_per_sec_{}", preset.label());
    record::upsert_bin(&out_path, &bin, &body);
    println!("wrote bin {bin} to {out_path}");
}
