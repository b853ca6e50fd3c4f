//! Event-loop throughput microbenchmark.
//!
//! Runs the representative 100-node Ranked scenario (paper §5.2/§5.3
//! parameters, Ranked best=20 % under the latency oracle) several times,
//! measures wall-clock per run and simulator events per second, and
//! writes `BENCH_events_per_sec.json` so successive PRs can track the
//! event-loop perf trajectory. See `egm_bench`'s crate docs for the JSON
//! schema.
//!
//! ```sh
//! cargo run --release -p egm_bench --bin events_per_sec
//! ```
//!
//! Environment:
//! * `EGM_BENCH_RUNS` — timed runs after one warm-up (default 3).
//! * `EGM_BENCH_MESSAGES` — multicasts per run (default 150).
//! * `EGM_BENCH_OUT` — output path (default `BENCH_events_per_sec.json`).
//! * `EGM_MIN_EVENTS_PER_SEC` — when set, *assert* the measured best
//!   events/s stays at or above this floor (exit 1 otherwise), so a
//!   gross event-loop regression fails CI instead of silently updating
//!   the JSON record.

use egm_bench::{env_parse, env_usize};
use egm_core::{MonitorSpec, StrategySpec};
use egm_workload::Scenario;
use std::time::Instant;

fn main() {
    let runs = env_usize("EGM_BENCH_RUNS", 3).max(1);
    let messages = env_usize("EGM_BENCH_MESSAGES", 150).max(1);
    let out_path =
        std::env::var("EGM_BENCH_OUT").unwrap_or_else(|_| "BENCH_events_per_sec.json".to_string());

    let scenario = Scenario::paper_default()
        .with_strategy(StrategySpec::Ranked { best_fraction: 0.2 })
        .with_monitor(MonitorSpec::OracleLatency)
        .with_messages(messages);
    let nodes = scenario.node_count();

    // The topology is built once and shared so the timings below measure
    // the event loop, not Dijkstra over the transit-stub graph.
    let model = std::sync::Arc::new(scenario.build_model());

    // Warm-up run: allocator and cache warm-up; also yields the event
    // count, which is identical across runs by determinism.
    let warm = egm_workload::runner::run_detailed(&scenario, Some(model.clone()));
    let events = warm.events;
    println!("queue: {:?}", warm.queue);
    println!(
        "warm-up: {nodes} nodes, {messages} messages, {} events, delivery {:.2}%",
        events,
        warm.report.mean_delivery_fraction * 100.0
    );

    let mut wall_ms: Vec<f64> = Vec::with_capacity(runs);
    for i in 0..runs {
        let start = Instant::now();
        let outcome = egm_workload::runner::run_detailed(&scenario, Some(model.clone()));
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(outcome.events, events, "deterministic event count");
        println!(
            "run {}/{runs}: {ms:.1} ms wall, {:.0} events/sec",
            i + 1,
            events as f64 / ms * 1000.0
        );
        wall_ms.push(ms);
    }

    let best = wall_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = wall_ms.iter().sum::<f64>() / wall_ms.len() as f64;
    let events_per_sec = events as f64 / best * 1000.0;
    println!("best: {best:.1} ms wall ({events_per_sec:.0} events/sec)");

    if let Some(floor) = env_parse::<f64>("EGM_MIN_EVENTS_PER_SEC") {
        assert!(
            events_per_sec >= floor,
            "event-loop throughput regressed: {events_per_sec:.0} events/sec is below the \
             EGM_MIN_EVENTS_PER_SEC floor of {floor:.0}"
        );
        println!("throughput floor satisfied ({events_per_sec:.0} >= {floor:.0} events/sec)");
    }

    let body = format!(
        "{{\n  \"bench\": \"events_per_sec\",\n  \"scenario\": \"ranked best=20% oracle-latency transit-stub\",\n  \"nodes\": {nodes},\n  \"messages\": {messages},\n  \"runs\": {runs},\n  \"events\": {events},\n  \"best_wall_ms\": {best:.3},\n  \"mean_wall_ms\": {mean:.3},\n  \"events_per_sec\": {events_per_sec:.0}\n}}"
    );
    egm_bench::record::upsert_bin(&out_path, "events_per_sec", &body);
    println!("wrote bin events_per_sec to {out_path}");
}
