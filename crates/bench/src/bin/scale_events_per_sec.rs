//! Scale-axis gates: 1k … 100k-node presets on one shard.
//!
//! Runs a `egm_workload::experiments::scale` preset on one shard (the
//! RSS budgets are calibrated for it; width sweeps live in
//! `shard_events_per_sec`) twice — cold, then from a prepared setup —
//! asserts both runs produce the same outcome, that the model holds no
//! dense latency cells, that the payload table never regrew, and that
//! peak RSS stays within budget, then upserts the
//! `scale_events_per_sec_<preset>` bin into `BENCH_events_per_sec.json`
//! (schema in `egm_bench`'s crate docs).
//!
//! ```sh
//! EGM_SCALE_PRESET=1k cargo run --release -p egm_bench --bin scale_events_per_sec
//! ```
//!
//! Environment:
//! * `EGM_SCALE_PRESET` — `1k` (default), `4k`, `10k` or `100k`.
//! * `EGM_BENCH_OUT` — output path (default `BENCH_events_per_sec.json`).
//! * `EGM_SCALE_RSS_BUDGET_MB` — the peak-RSS budget (default
//!   [`ScalePreset::rss_budget_mb`]); set it lower to tighten the gate.
//! * `EGM_SCALE_PLATEAU_MAX` — switches to *plateau mode*: run the
//!   preset at 120 messages and then at 240 in the same
//!   process and assert the 2× peak RSS stays within this factor of the
//!   1× peak (CI: `1.30`, 1.15 measured at 4k). Peak RSS is
//!   process-monotone, so the ratio isolates exactly the memory the
//!   extra messages added — with horizon-based retirement on, mostly
//!   the one record of each delivery a run keeps by design. Writes no
//!   bin.

use egm_bench::{env_parse, peak_rss_field, peak_rss_mb, record};
use egm_server::json::Json;
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::Scenario;

/// Multicasts per run.
const MESSAGES: usize = 30;
/// Multicasts of plateau mode's 1× run: enough to put the traffic phase
/// well past the retirement horizon at the presets' 250 ms interval, or
/// the 1× run never reaches steady state and the ratio pins nothing.
const PLATEAU_MESSAGES: usize = 120;
const SEED: u64 = 42;

/// Plateau mode: the steady-state working set must not scale with total
/// messages sent. Runs 1× then 2× messages in one process; peak RSS is
/// monotone per process, so `peak(2×)/peak(1×)` measures only what the
/// second, doubled run added on top.
fn run_plateau(preset: ScalePreset, max_ratio: f64) {
    let run = |messages: usize| one_shard(preset, messages).run();
    let messages = PLATEAU_MESSAGES;
    let base = run(messages);
    let peak1 = peak_rss_mb().expect("plateau mode needs /proc RSS");
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
    let peak2 = peak_rss_mb().expect("plateau mode needs /proc RSS");
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
fn one_shard(preset: ScalePreset, messages: usize) -> Scenario {
    preset.scenario(messages, SEED).with_shards(Some(1))
}

fn main() {
    let preset = ScalePreset::from_env();
    if let Some(max_ratio) = env_parse::<f64>("EGM_SCALE_PLATEAU_MAX") {
        run_plateau(preset, max_ratio);
        return;
    }
    let rss_budget_mb =
        env_parse::<f64>("EGM_SCALE_RSS_BUDGET_MB").unwrap_or(preset.rss_budget_mb() as f64);

    let nodes = preset.nodes();
    let scenario = one_shard(preset, MESSAGES);
    let cold = scenario.run();
    let events = cold.events;
    assert_eq!(
        cold.model.memory_shape().dense_cells,
        0,
        "scale presets must use the two-level routed model"
    );
    assert_eq!(
        cold.payload_vec_growths, 0,
        "the per-node payload table must stay pre-sized on the hot path"
    );
    println!(
        "{nodes} nodes ({} preset), {MESSAGES} messages, {events} events, \
         delivery {:.2}%, {} timers cancelled",
        preset.label(),
        cold.report.mean_delivery_fraction * 100.0,
        cold.timers_cancelled
    );
    println!(
        "steady state: {} messages retired, arena high water {}",
        cold.retired_messages, cold.arena_high_water
    );
    println!("queue: {:?}", cold.queue);

    // Run-over-run determinism: the same scenario from a prepared setup
    // (ranking + overlay views, on the cold run's model) must reproduce
    // the cold run's full outcome, not just its event count.
    let setup = egm_workload::runner::prepare(&scenario, Some(cold.model.clone()));
    let again = egm_workload::runner::run_prepared(&scenario, &setup);
    assert_eq!(
        cold.first_difference(&again),
        None,
        "the prepared run diverged"
    );

    let bin = Json::obj(vec![
        ("bench", Json::str("scale_events_per_sec")),
        ("preset", Json::str(preset.label())),
        ("scenario", Json::str("ranked best=20% scaled transit-stub")),
        ("rank_source", Json::str(scenario.rank_source.label())),
        ("nodes", Json::num(nodes as f64)),
        ("messages", Json::num(MESSAGES as f64)),
        ("events", Json::num(events as f64)),
        ("timers_cancelled", Json::num(cold.timers_cancelled as f64)),
        (
            "stale_timer_drops",
            Json::num(cold.stale_timer_drops as f64),
        ),
        ("retired_messages", Json::num(cold.retired_messages as f64)),
        ("arena_high_water", Json::num(cold.arena_high_water as f64)),
        ("traffic_folds", Json::num(cold.traffic_folds.folds as f64)),
        (
            "traffic_folded_records",
            Json::num(cold.traffic_folds.records as f64),
        ),
        (
            "peak_rss_mb",
            peak_rss_field(Some(rss_budget_mb), preset.label()),
        ),
    ]);
    let out_path = record::path();
    let name = format!("scale_events_per_sec_{}", preset.label());
    record::upsert_bin(&out_path, &name, bin);
    println!("wrote bin {name} to {out_path}");
}
