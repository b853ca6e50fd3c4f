//! Sustained heavy-traffic gates: an open-loop arrival process +
//! tail-latency percentiles on a scale preset.
//!
//! Runs a scale preset under the open-loop arrival axis
//! (`egm_workload::arrival`) — Poisson arrivals at a fixed offered rate
//! that never backs off — once per shard width W ∈ {0 (one shard,
//! sequential), 2, 4}, asserting every width reproduces the sequential
//! run byte for byte (`RunOutcome::first_difference`: report, logs,
//! counters, latency histogram, steady-state block) and that the merge
//! accumulator never exceeds the spill threshold, then upserts the
//! `sustained_events_per_sec_<preset>`
//! bin into `BENCH_events_per_sec.json` with the p50/p99/p999
//! publish→delivery percentiles and the steady-state delivery rate.
//!
//! ```sh
//! EGM_SCALE_PRESET=1k cargo run --release -p egm_bench --bin sustained_events_per_sec
//! ```
//!
//! Environment:
//! * `EGM_SCALE_PRESET` — `1k` (default), `4k`, `10k` or `100k`.
//! * `EGM_BENCH_OUT` — output path (default `BENCH_events_per_sec.json`).
//! * `EGM_SCALE_RSS_BUDGET_MB` — when set, asserts peak RSS stays under
//!   this budget.

use egm_bench::{env_parse, peak_rss_field, record, rounded};
use egm_server::json::Json;
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::{Arrival, ArrivalProcess};

/// Multicasts per run.
const MESSAGES: usize = 120;
/// Offered rate, messages per simulated second.
const RATE_PER_SEC: f64 = 20.0;
const SEED: u64 = 42;

fn main() {
    let preset = ScalePreset::from_env();
    let rss_budget_mb = env_parse::<f64>("EGM_SCALE_RSS_BUDGET_MB");

    let nodes = preset.nodes();
    let process = ArrivalProcess::Poisson {
        rate_per_sec: RATE_PER_SEC,
    };
    let scenario = preset
        .scenario(MESSAGES, SEED)
        .with_arrival(Some(Arrival::Open(process)));

    // One prepared setup (topology + ranking + views) shared by every
    // width, so the A/B measures only the event loop.
    let setup = egm_workload::runner::prepare(&scenario, None);
    println!(
        "{nodes} nodes ({} preset), {MESSAGES} messages, poisson arrival at {RATE_PER_SEC} msg/s",
        preset.label()
    );

    // Sequential reference, then every shard width the CI A/B covers —
    // each must reproduce the reference byte for byte.
    let reference =
        egm_workload::runner::run_prepared(&scenario.clone().with_shards(Some(0)), &setup);
    let events = reference.events;
    println!(
        "W=seq: {events} events, delivery {:.2}%",
        reference.report.mean_delivery_fraction * 100.0
    );
    let mut acc_peak = reference.traffic_acc_peak;
    for w in [2usize, 4] {
        let run =
            egm_workload::runner::run_prepared(&scenario.clone().with_shards(Some(w)), &setup);
        assert_eq!(reference.first_difference(&run), None, "W={w} diverged");
        acc_peak = acc_peak.max(run.traffic_acc_peak);
        if let Some(threshold) = scenario.link_spill_threshold {
            assert!(
                run.traffic_acc_peak <= threshold,
                "W={w} merge accumulator peaked at {} links over the {threshold} threshold",
                run.traffic_acc_peak
            );
        }
        println!(
            "W={w}: byte-identical, merge accumulator peak {}",
            run.traffic_acc_peak
        );
    }

    let latency = &reference.latency;
    let steady = &reference.steady;
    println!(
        "sustained: {:.0} published/s offered, {:.0} deliveries/s steady, latency p50 {:.1} ms \
         p99 {:.1} ms p999 {:.1} ms (window {:.0}–{:.0} ms, {} publishes)",
        steady.publishes_per_sec,
        steady.deliveries_per_sec,
        latency.p50_ms(),
        latency.p99_ms(),
        latency.p999_ms(),
        steady.window_start_ms,
        steady.window_end_ms,
        steady.published
    );

    let bin = Json::obj(vec![
        ("bench", Json::str("sustained_events_per_sec")),
        ("preset", Json::str(preset.label())),
        ("process", Json::str("poisson")),
        ("rate_per_sec", Json::num(RATE_PER_SEC)),
        ("nodes", Json::num(nodes as f64)),
        ("messages", Json::num(MESSAGES as f64)),
        ("events", Json::num(events as f64)),
        (
            "steady_publishes_per_sec",
            rounded(steady.publishes_per_sec, 3),
        ),
        (
            "steady_deliveries_per_sec",
            rounded(steady.deliveries_per_sec, 3),
        ),
        ("latency_p50_ms", rounded(latency.p50_ms(), 3)),
        ("latency_p99_ms", rounded(latency.p99_ms(), 3)),
        ("latency_p999_ms", rounded(latency.p999_ms(), 3)),
        ("traffic_acc_peak", Json::num(acc_peak as f64)),
        ("peak_rss_mb", peak_rss_field(rss_budget_mb, preset.label())),
    ]);
    let out_path = record::path();
    let name = format!("sustained_events_per_sec_{}", preset.label());
    record::upsert_bin(&out_path, &name, bin);
    println!("wrote bin {name} to {out_path}");
}
