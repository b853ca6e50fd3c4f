//! Sustained heavy-traffic throughput bench: open-loop arrival process +
//! tail-latency percentiles on a scale preset.
//!
//! Runs a scale preset under the open-loop arrival axis
//! (`egm_workload::arrival`) — a fixed offered rate that never backs off
//! — once per shard width W ∈ {0 (one shard, sequential), 2, 4},
//! asserting every width reproduces the sequential run byte for byte
//! (report, event count, latency histogram, steady-state block), then
//! upserts the `sustained_events_per_sec_<preset>` bin into
//! `BENCH_events_per_sec.json` with the p50/p99/p999 publish→delivery
//! percentiles and the steady-state delivery rate alongside the usual
//! wall-clock events/sec.
//!
//! ```sh
//! EGM_SCALE_PRESET=1k cargo run --release -p egm_bench --bin sustained_events_per_sec
//! ```
//!
//! Environment:
//! * `EGM_SCALE_PRESET` — `1k` (default), `4k`, `10k`, `100k` or `1m`.
//! * `EGM_SCALE_MESSAGES` — multicasts per run (default 120).
//! * `EGM_SUSTAINED_RATE` — offered rate in messages per simulated
//!   second (default 20).
//! * `EGM_SUSTAINED_PROCESS` — `poisson` (default), `bursty` (4× the
//!   rate in 1-of-4 duty-cycle bursts) or `diurnal` (rate/10 → rate over
//!   a 10 s ramp; the ramp is excluded from the percentile window).
//! * `EGM_BENCH_OUT` — output path (default `BENCH_events_per_sec.json`).
//! * `EGM_MIN_SUSTAINED_EPS` — when set, *asserts* the best wall-clock
//!   events/sec stays above this floor (the CI sustained smoke job's
//!   regression guard).
//! * `EGM_SCALE_RSS_BUDGET_MB` — when set, asserts peak RSS stays under
//!   this budget.

use egm_bench::{env_parse, env_usize, record};
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::runner::RunOutcome;
use egm_workload::{Arrival, ArrivalProcess};
use std::time::Instant;

fn process_from_env(rate: f64) -> (&'static str, ArrivalProcess) {
    match std::env::var("EGM_SUSTAINED_PROCESS").as_deref() {
        Err(_) | Ok("poisson") => ("poisson", ArrivalProcess::Poisson { rate_per_sec: rate }),
        Ok("bursty") => (
            "bursty",
            ArrivalProcess::Bursty {
                rate_per_sec: rate * 4.0,
                on_ms: 250.0,
                off_ms: 750.0,
            },
        ),
        Ok("diurnal") => (
            "diurnal",
            ArrivalProcess::Diurnal {
                low_rate: rate / 10.0,
                high_rate: rate,
                ramp_ms: 10_000.0,
            },
        ),
        Ok(v) => panic!("unrecognized EGM_SUSTAINED_PROCESS {v:?}: poisson, bursty or diurnal"),
    }
}

fn assert_matches(reference: &RunOutcome, run: &RunOutcome, label: &str) {
    assert_eq!(reference.report, run.report, "reports diverged ({label})");
    assert_eq!(
        reference.events, run.events,
        "event counts diverged ({label})"
    );
    assert_eq!(
        reference.latency, run.latency,
        "latency histograms diverged ({label})"
    );
    assert_eq!(
        reference.steady, run.steady,
        "steady blocks diverged ({label})"
    );
}

fn main() {
    let preset = ScalePreset::from_env();
    let messages = env_usize("EGM_SCALE_MESSAGES", 120).max(1);
    let rate = env_parse::<f64>("EGM_SUSTAINED_RATE").unwrap_or(20.0);
    let (process_label, process) = process_from_env(rate);
    let out_path =
        std::env::var("EGM_BENCH_OUT").unwrap_or_else(|_| "BENCH_events_per_sec.json".to_string());
    let min_eps = env_parse::<f64>("EGM_MIN_SUSTAINED_EPS");
    let rss_budget_mb = env_parse::<f64>("EGM_SCALE_RSS_BUDGET_MB");

    let nodes = preset.nodes();
    let seed = 42u64;
    let scenario = preset
        .scenario(messages, seed)
        .with_arrival(Some(Arrival::Open(process)));

    // One prepared setup (topology + ranking + views) shared by every
    // width, so the A/B measures only the event loop.
    let setup_start = Instant::now();
    let setup = egm_workload::runner::prepare(&scenario, None);
    let setup_ms = setup_start.elapsed().as_secs_f64() * 1000.0;
    println!(
        "{nodes} nodes ({} preset), {messages} messages, {process_label} arrival at {rate} msg/s, \
         setup {setup_ms:.1} ms",
        preset.label()
    );

    // Sequential reference, then every shard width the CI A/B covers —
    // each must reproduce the reference byte for byte.
    let mut best_wall_ms = f64::INFINITY;
    let ref_start = Instant::now();
    let reference =
        egm_workload::runner::run_prepared(&scenario.clone().with_shards(Some(0)), &setup);
    let ref_ms = ref_start.elapsed().as_secs_f64() * 1000.0;
    best_wall_ms = best_wall_ms.min(ref_ms);
    let events = reference.events;
    println!(
        "W=seq: {ref_ms:.1} ms wall, {events} events, delivery {:.2}%",
        reference.report.mean_delivery_fraction * 100.0
    );
    let mut acc_peak = reference.traffic_acc_peak;
    for w in [2usize, 4] {
        let start = Instant::now();
        let run =
            egm_workload::runner::run_prepared(&scenario.clone().with_shards(Some(w)), &setup);
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        assert_matches(&reference, &run, &format!("W={w}"));
        acc_peak = acc_peak.max(run.traffic_acc_peak);
        if let Some(threshold) = scenario.link_spill_threshold {
            assert!(
                run.traffic_acc_peak <= threshold,
                "W={w} merge accumulator peaked at {} links over the {threshold} threshold",
                run.traffic_acc_peak
            );
        }
        println!(
            "W={w}: {ms:.1} ms wall, byte-identical, merge accumulator peak {}",
            run.traffic_acc_peak
        );
        best_wall_ms = best_wall_ms.min(ms);
    }

    let events_per_sec = events as f64 / best_wall_ms * 1000.0;
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
    let peak_rss = record::peak_rss_mb();
    println!(
        "best: {best_wall_ms:.1} ms wall ({events_per_sec:.0} events/sec), peak RSS {}",
        peak_rss
            .map(|mb| format!("{mb:.1} MB"))
            .unwrap_or_else(|| "unavailable".to_string())
    );

    if let Some(floor) = min_eps {
        assert!(
            events_per_sec >= floor,
            "sustained throughput {events_per_sec:.0} events/sec fell below the \
             EGM_MIN_SUSTAINED_EPS floor of {floor:.0}"
        );
        println!("throughput floor met ({events_per_sec:.0} >= {floor:.0} events/sec)");
    }
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
        "{{\n  \"bench\": \"sustained_events_per_sec\",\n  \"preset\": \"{}\",\n  \"process\": \"{process_label}\",\n  \"rate_per_sec\": {rate},\n  \"nodes\": {nodes},\n  \"messages\": {messages},\n  \"events\": {events},\n  \"setup_ms\": {setup_ms:.3},\n  \"best_wall_ms\": {best_wall_ms:.3},\n  \"events_per_sec\": {events_per_sec:.0},\n  \"steady_publishes_per_sec\": {:.3},\n  \"steady_deliveries_per_sec\": {:.3},\n  \"latency_p50_ms\": {:.3},\n  \"latency_p99_ms\": {:.3},\n  \"latency_p999_ms\": {:.3},\n  \"traffic_acc_peak\": {},\n  \"peak_rss_mb\": {rss_field}\n}}",
        preset.label(),
        steady.publishes_per_sec,
        steady.deliveries_per_sec,
        latency.p50_ms(),
        latency.p99_ms(),
        latency.p999_ms(),
        acc_peak
    );
    let bin = format!("sustained_events_per_sec_{}", preset.label());
    record::upsert_bin(&out_path, &bin, &body);
    println!("wrote bin {bin} to {out_path}");
}
