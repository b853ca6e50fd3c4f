//! Scale-axis event-loop throughput bench: 1k … 1M-node presets.
//!
//! Runs a `egm_workload::experiments::scale` preset on one shard (the
//! RSS budgets and the README table are calibrated for it; width sweeps
//! live in `shard_events_per_sec`), measures wall clock, simulator
//! events per second and process peak RSS, and upserts the `scale_events_per_sec_<preset>` bin
//! into `BENCH_events_per_sec.json` (schema in `egm_bench`'s crate docs).
//!
//! ```sh
//! EGM_SCALE_PRESET=1k cargo run --release -p egm_bench --bin scale_events_per_sec
//! ```
//!
//! Environment:
//! * `EGM_SCALE_PRESET` — `1k` (default), `4k`, `10k`, `100k` or `1m`.
//! * `EGM_BENCH_RUNS` — timed runs after one warm-up (default 2).
//! * `EGM_SCALE_MESSAGES` — multicasts per run (default 30).
//! * `EGM_BENCH_OUT` — output path (default `BENCH_events_per_sec.json`).
//! * `EGM_SCALE_RSS_BUDGET_MB` — when set, the bench *asserts* peak RSS
//!   stays under this budget (exit 1 otherwise); the CI smoke jobs rely
//!   on this to catch accidental O(n²) allocations.
//!   [`ScalePreset::rss_budget_mb`] is the suggested value per preset.
//! * `EGM_SCALE_PLATEAU_MAX` — switches to *plateau mode*: instead of
//!   the timed loop, run the preset at 1× and then 2× the message count
//!   in the same process and assert the 2× peak RSS stays within this
//!   factor of the 1× peak (e.g. `1.15`). Peak RSS is process-monotone,
//!   so the ratio isolates exactly the memory the extra messages added —
//!   with horizon-based retirement on, total traffic volume must not
//!   move the plateau.
//!
//! Determinism is pinned run-over-run: every timed run must reproduce
//! the warm-up's full report, not just its event count.

use egm_bench::{env_parse, env_usize, record};
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::Scenario;
use std::time::Instant;

/// Plateau mode: the steady-state working set must not scale with total
/// messages sent. Runs 1× then 2× messages in one process; peak RSS is
/// monotone per process, so `peak(2×)/peak(1×)` measures only what the
/// second, doubled run added on top.
///
/// Two knobs differ from the timed mode, both to make the measurement a
/// steady-state one:
/// * the traffic spool is forced on regardless of preset size (the
///   in-memory compaction window and its flatten transient are the
///   dominant non-plateau term below 100k — exactly the subsystem the
///   ≥100k presets stream to disk);
/// * `messages` should put the traffic phase well past the retirement
///   horizon (≥ ~120 at the default 250 ms interval), or the 1× run
///   never reaches steady state and the ratio pins nothing.
fn run_plateau(preset: ScalePreset, messages: usize, seed: u64, max_ratio: f64) {
    let run = |messages: usize| {
        let scenario = one_shard(preset, messages, seed).with_traffic_spool(true);
        egm_workload::runner::run_detailed(&scenario, None)
    };
    let base = run(messages);
    let peak1 = record::peak_rss_mb().expect("plateau mode needs /proc RSS");
    println!(
        "plateau 1x: {messages} messages, {} events, {} retired, arena high water {}, \
         peak RSS {peak1:.1} MB",
        base.events, base.retired_messages, base.arena_high_water
    );
    let base_retired = base.retired_messages;
    // The plateau claim is about one run's working set; holding the 1×
    // outcome (delivery log + link table) across the 2× run would charge
    // the ratio for two materialized result sets at once.
    drop(base);

    let doubled = run(messages * 2);
    let peak2 = record::peak_rss_mb().expect("plateau mode needs /proc RSS");
    println!(
        "plateau 2x: {} messages, {} events, {} retired, arena high water {}, \
         peak RSS {peak2:.1} MB",
        messages * 2,
        doubled.events,
        doubled.retired_messages,
        doubled.arena_high_water
    );

    assert!(
        doubled.retired_messages > base_retired,
        "plateau mode expects retirement to engage (preset horizon crossed)"
    );
    let ratio = peak2 / peak1;
    assert!(
        ratio <= max_ratio,
        "steady-state memory did not plateau: 2x-message peak RSS {peak2:.1} MB is {ratio:.3}x \
         the 1x peak {peak1:.1} MB (budget {max_ratio:.3}x) on the {} preset",
        preset.label()
    );
    println!("peak RSS plateaued: 2x messages cost {ratio:.3}x RSS (budget {max_ratio:.3}x)");
}

/// The preset's scenario, pinned to one shard.
fn one_shard(preset: ScalePreset, messages: usize, seed: u64) -> Scenario {
    preset.scenario(messages, seed).with_shards(Some(1))
}

fn main() {
    let preset = ScalePreset::from_env();
    let runs = env_usize("EGM_BENCH_RUNS", 2).max(1);
    let messages = env_usize("EGM_SCALE_MESSAGES", 30).max(1);
    let out_path =
        std::env::var("EGM_BENCH_OUT").unwrap_or_else(|_| "BENCH_events_per_sec.json".to_string());
    let rss_budget_mb = env_parse::<f64>("EGM_SCALE_RSS_BUDGET_MB");

    let nodes = preset.nodes();
    let seed = 42u64;

    if let Some(max_ratio) = env_parse::<f64>("EGM_SCALE_PLATEAU_MAX") {
        run_plateau(preset, messages, seed, max_ratio);
        return;
    }

    // Warm-up run (allocator/caches), which also yields the deterministic
    // event count and the cancellation/retirement counters.
    let scenario = one_shard(preset, messages, seed);
    let warm = egm_workload::runner::run_detailed(&scenario, None);
    let events = warm.events;
    let timers_cancelled = warm.timers_cancelled;
    let stale_timer_drops = warm.stale_timer_drops;
    let retired_messages = warm.retired_messages;
    let arena_high_water = warm.arena_high_water;
    let traffic_spill_bytes = warm.traffic_spill_bytes;
    assert_eq!(
        warm.model.memory_shape().dense_cells,
        0,
        "scale presets must use the two-level routed model"
    );
    assert_eq!(
        warm.payload_vec_growths, 0,
        "the per-node payload table must stay pre-sized on the hot path"
    );
    println!(
        "warm-up: {nodes} nodes ({} preset), {messages} messages, {events} events, \
         delivery {:.2}%, {timers_cancelled} timers cancelled",
        preset.label(),
        warm.report.mean_delivery_fraction * 100.0
    );
    println!(
        "steady state: {retired_messages} messages retired, arena high water {arena_high_water}, \
         {traffic_spill_bytes} traffic bytes spooled"
    );
    println!("queue: {:?}", warm.queue);

    // Timed runs share the warm-up's topology plus one prepared setup
    // (ranking + overlay views), so the measurement is the steady-state
    // event loop — the fixed per-run cost is paid once and reported as
    // `setup_ms`. The `rank_events_per_sec` bin breaks that fixed cost
    // down per rank source.
    // The third term of a cold set-up, the topology build, timed on its
    // own (the model itself is the warm-up's: same seed, same model).
    let topology_start = Instant::now();
    drop(scenario.build_model());
    let topology_ms = topology_start.elapsed().as_secs_f64() * 1000.0;
    let setup_start = Instant::now();
    let setup = egm_workload::runner::prepare(&scenario, Some(warm.model.clone()));
    let setup_ms = setup_start.elapsed().as_secs_f64() * 1000.0;
    println!(
        "topology: {topology_ms:.1} ms; setup (ranking [{}] + views): {setup_ms:.1} ms, \
         amortized over {runs} runs",
        scenario.rank_source.label()
    );
    let mut wall_ms: Vec<f64> = Vec::with_capacity(runs);
    for i in 0..runs {
        let start = Instant::now();
        let outcome = egm_workload::runner::run_prepared(&scenario, &setup);
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(outcome.events, events, "deterministic event count");
        assert_eq!(
            outcome.report,
            warm.report,
            "deterministic report (run {} diverged from warm-up)",
            i + 1
        );
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
    let peak_rss = record::peak_rss_mb();
    println!(
        "best: {best:.1} ms wall ({events_per_sec:.0} events/sec), peak RSS {}",
        peak_rss
            .map(|mb| format!("{mb:.1} MB"))
            .unwrap_or_else(|| "unavailable".to_string())
    );

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
        "{{\n  \"bench\": \"scale_events_per_sec\",\n  \"preset\": \"{}\",\n  \"scenario\": \"ranked best=20% scaled transit-stub\",\n  \"rank_source\": \"{}\",\n  \"nodes\": {nodes},\n  \"messages\": {messages},\n  \"runs\": {runs},\n  \"events\": {events},\n  \"topology_ms\": {topology_ms:.3},\n  \"setup_ms\": {setup_ms:.3},\n  \"best_wall_ms\": {best:.3},\n  \"mean_wall_ms\": {mean:.3},\n  \"events_per_sec\": {events_per_sec:.0},\n  \"timers_cancelled\": {timers_cancelled},\n  \"stale_timer_drops\": {stale_timer_drops},\n  \"retired_messages\": {retired_messages},\n  \"arena_high_water\": {arena_high_water},\n  \"traffic_spill_bytes\": {traffic_spill_bytes},\n  \"peak_rss_mb\": {rss_field}\n}}",
        preset.label(),
        scenario.rank_source.label()
    );
    let bin = format!("scale_events_per_sec_{}", preset.label());
    record::upsert_bin(&out_path, &bin, &body);
    println!("wrote bin {bin} to {out_path}");
}
