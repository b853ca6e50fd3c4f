//! Multi-shard gates: the planned cut at each width against one shard on
//! the scale presets.
//!
//! Runs one scale preset on one shard (the sequential reference) and
//! then, at each wider width, under the planned (domain-aligned) cut,
//! asserting byte-identical results at every width — the determinism
//! bar. Window counts, lane traffic (events, batched flushes, skipped
//! exchanges), configured and realized lookahead, the per-shard event
//! balance and each width's speedup over one shard are recorded in the
//! `shard_events_per_sec_<preset>` bin of `BENCH_events_per_sec.json`
//! (schema in `egm_bench`'s crate docs).
//!
//! Two gates need no knob, because they compare counts that repeat
//! exactly: the planned cut at W = 2 must split the events within
//! 1.10 × of the mean per shard, and every width must reproduce the
//! one-shard run.
//!
//! ```sh
//! EGM_SCALE_PRESET=10k cargo run --release -p egm_bench --bin shard_events_per_sec
//! ```
//!
//! Environment:
//! * `EGM_SCALE_PRESET` — `1k` (default), `4k` or `10k`.
//! * `EGM_BENCH_OUT` — output path (default `BENCH_events_per_sec.json`).
//! * `EGM_SHARD_WIDTHS` — comma-separated widths (default `2,4`).
//! * `EGM_SHARD_MAX_WINDOWS` — when set, assert that every run under the
//!   planned cut executes at most this many windows — the
//!   topology-aware partitioning win, gated.
//! * `EGM_SCALE_RSS_BUDGET_MB` — when set, assert peak RSS stays under
//!   this budget across all widths.

use egm_bench::{env_list, env_parse, peak_rss_field, record, rounded};
use egm_server::json::Json;
use egm_simnet::PartitionStrategy;
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::runner::{prepare, run_prepared, RunOutcome, RunSetup};
use egm_workload::Scenario;
use std::time::Instant;

/// Multicasts per run.
const MESSAGES: usize = 30;
const SEED: u64 = 42;

/// One run and its wall time in ms: the input of `speedup_vs_seq`, the
/// one number ROADMAP 2(c)'s multi-core kill criterion is read from.
fn timed_run(scenario: &Scenario, setup: &RunSetup) -> (RunOutcome, f64) {
    let start = Instant::now();
    let outcome = run_prepared(scenario, setup);
    (outcome, start.elapsed().as_secs_f64() * 1000.0)
}

fn main() {
    let preset = ScalePreset::from_env();
    let widths: Vec<usize> = env_list("EGM_SHARD_WIDTHS").unwrap_or_else(|| vec![2, 4]);
    let max_windows = env_parse::<u64>("EGM_SHARD_MAX_WINDOWS");
    let rss_budget_mb = env_parse::<f64>("EGM_SCALE_RSS_BUDGET_MB");

    let nodes = preset.nodes();
    let base = preset.scenario(MESSAGES, SEED);

    // One shared topology + prepared setup (ranking, views): the
    // comparison is purely about the event loop.
    let setup = prepare(&base, Some(std::sync::Arc::new(base.build_model())));

    // One-shard reference (forced: immune to the auto width).
    let (seq, seq_ms) = timed_run(&base.clone().with_shards(Some(0)), &setup);
    let events = seq.events;
    println!(
        "one shard: {nodes} nodes ({} preset), {MESSAGES} messages, {events} events, \
         delivery {:.2}%, {seq_ms:.1} ms wall",
        preset.label(),
        seq.report.mean_delivery_fraction * 100.0
    );

    let strategy = PartitionStrategy::DomainAligned;
    let keys: Vec<String> = widths.iter().map(|w| format!("w{w}")).collect();
    let mut bin = vec![
        ("bench", Json::str("shard_events_per_sec")),
        ("preset", Json::str(preset.label())),
        ("scenario", Json::str("ranked best=20% scaled transit-stub")),
        ("nodes", Json::num(nodes as f64)),
        ("messages", Json::num(MESSAGES as f64)),
        ("events", Json::num(events as f64)),
    ];
    for (&w, key) in widths.iter().zip(&keys) {
        let scenario = base
            .clone()
            .with_shards(Some(w))
            .with_partition(Some(strategy));
        let (out, ms) = timed_run(&scenario, &setup);
        // The determinism bar: every width reproduces the one-shard
        // run's outputs exactly.
        let tag = format!("W={w}/{strategy}");
        assert_eq!(seq.first_difference(&out), None, "{tag} diverged");
        let speedup = seq_ms / ms;
        let stats = out.shard_stats;
        let balance = stats
            .per_shard_events
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("/");
        println!(
            "{tag} (effective {eff}): {ms:.1} ms wall ({speedup:.2}x one shard), \
             {windows} windows ({skipped} exchange-free), {lane} lane events in \
             {flushes} flushes, lookahead {la} us (realized {rla} us), \
             per-shard events {balance}",
            eff = stats.strategy,
            windows = stats.windows,
            skipped = stats.exchanges_skipped,
            lane = stats.lane_events,
            flushes = stats.lane_flushes,
            la = stats.lookahead_us,
            rla = stats.realized_lookahead_us,
        );
        assert_eq!(stats.strategy, strategy, "{tag}: the planner fell back");
        if let Some(max) = max_windows {
            assert!(
                stats.windows <= max,
                "{tag} ran {} windows, exceeding the EGM_SHARD_MAX_WINDOWS budget of {max}",
                stats.windows
            );
        }
        // Event counts repeat exactly, so this cannot flake: two shards
        // under the planned cut share the work evenly.
        if w == 2 {
            let heaviest = *stats.per_shard_events.iter().max().expect("two shards");
            assert!(
                heaviest as f64 * 2.0 <= 1.10 * events as f64,
                "{tag} split the events {balance}: heaviest shard over 1.10 x mean"
            );
        }
        let per_shard = stats
            .per_shard_events
            .iter()
            .map(|&n| Json::num(n as f64))
            .collect();
        bin.push((
            key,
            Json::obj(vec![
                ("strategy", Json::str(stats.strategy.name())),
                ("speedup_vs_seq", rounded(speedup, 3)),
                ("windows", Json::num(stats.windows as f64)),
                ("lane_events", Json::num(stats.lane_events as f64)),
                ("lane_flushes", Json::num(stats.lane_flushes as f64)),
                (
                    "exchanges_skipped",
                    Json::num(stats.exchanges_skipped as f64),
                ),
                ("lookahead_us", Json::num(stats.lookahead_us as f64)),
                (
                    "realized_lookahead_us",
                    Json::num(stats.realized_lookahead_us as f64),
                ),
                ("per_shard_events", Json::Arr(per_shard)),
            ]),
        ));
    }
    bin.push(("peak_rss_mb", peak_rss_field(rss_budget_mb, preset.label())));

    let out_path = record::path();
    let name = format!("shard_events_per_sec_{}", preset.label());
    record::upsert_bin(&out_path, &name, Json::obj(bin));
    println!("wrote bin {name} to {out_path}");
}
