//! Rank-source A/B bench: fixed per-run setup cost and steady-state
//! event-loop throughput per `RankSource`, on one scale preset.
//!
//! For each source (oracle centrality, sampled centrality, the
//! gossip-sorted ranking the scale presets ship with) the bench times
//! [`egm_workload::runner::prepare`] — the fixed per-run cost: ranking
//! plus overlay-view bootstrap over a shared topology — and then the
//! steady-state run via [`egm_workload::runner::run_prepared`]. It also
//! records each source's hub-choice overlap with the oracle, so the
//! accuracy/cost tradeoff that justified retiring the O(n²) oracle on
//! the scale axis is re-measured on every refresh. Results are upserted
//! as the `rank_events_per_sec_<preset>` bin of
//! `BENCH_events_per_sec.json` (schema in `egm_bench`'s crate docs).
//!
//! ```sh
//! EGM_SCALE_PRESET=10k cargo run --release -p egm_bench --bin rank_events_per_sec
//! ```
//!
//! Environment:
//! * `EGM_SCALE_PRESET` — `1k` (default), `4k` or `10k`.
//! * `EGM_BENCH_RUNS` — timed runs after one warm-up (default 2).
//! * `EGM_SCALE_MESSAGES` — multicasts per run (default 30).
//! * `EGM_BENCH_OUT` — output path (default `BENCH_events_per_sec.json`).
//! * `EGM_RANK_MIN_OVERLAP` — when set, *assert* the preset's own rank
//!   source overlaps the oracle by at least this fraction (the scale
//!   axis requires ≥ 0.8; the sampled baseline is exempt — it exists to
//!   calibrate the overlap scale).

use egm_bench::{env_parse, env_usize, record};
use egm_core::BestSet;
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::runner;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let preset = ScalePreset::from_env();
    let runs = env_usize("EGM_BENCH_RUNS", 2).max(1);
    let messages = env_usize("EGM_SCALE_MESSAGES", 30).max(1);
    let out_path =
        std::env::var("EGM_BENCH_OUT").unwrap_or_else(|_| "BENCH_events_per_sec.json".to_string());
    let min_overlap = env_parse::<f64>("EGM_RANK_MIN_OVERLAP");

    let nodes = preset.nodes();
    let seed = 42u64;
    let base = preset.scenario(messages, seed);

    let t = Instant::now();
    let model = Arc::new(base.build_model());
    let model_ms = t.elapsed().as_secs_f64() * 1000.0;
    println!(
        "{} preset: {nodes} nodes, {messages} messages, topology {model_ms:.1} ms",
        preset.label()
    );

    let sources = preset.rank_ab_sources();

    let mut oracle_set: Option<BestSet> = None;
    let mut entries: Vec<String> = Vec::new();
    for source in sources {
        let scenario = base.clone().with_rank_source(source);

        // Fixed per-run cost: ranking + overlay-view bootstrap. Paid once
        // per prepared setup, amortized across the timed runs below.
        let t = Instant::now();
        let setup = runner::prepare(&scenario, Some(model.clone()));
        let setup_ms = t.elapsed().as_secs_f64() * 1000.0;

        let best = setup.best().expect("Ranked preset has a best set");
        let overlap = match &oracle_set {
            None => {
                assert!(source.is_oracle(), "oracle must run first");
                oracle_set = Some((**best).clone());
                1.0
            }
            Some(oracle) => best.overlap(oracle),
        };

        // Warm-up run: allocator/caches, deterministic event count.
        let warm = runner::run_prepared(&scenario, &setup);
        let events = warm.events;

        let mut wall_ms: Vec<f64> = Vec::with_capacity(runs);
        for _ in 0..runs {
            let t = Instant::now();
            let outcome = runner::run_prepared(&scenario, &setup);
            wall_ms.push(t.elapsed().as_secs_f64() * 1000.0);
            assert_eq!(outcome.events, events, "deterministic event count");
        }
        let best_wall = wall_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let events_per_sec = events as f64 / best_wall * 1000.0;
        println!(
            "{:<14} setup {setup_ms:>8.1} ms | overlap {:>5.1}% | run {best_wall:>8.1} ms \
             ({events_per_sec:>9.0} events/s, {events} events, delivery {:.2}%)",
            source.label(),
            overlap * 100.0,
            warm.report.mean_delivery_fraction * 100.0
        );

        // The floor gates the source the presets actually ship with —
        // the sampled baseline is *meant* to be weaker, it calibrates
        // the overlap scale.
        if let Some(min) = min_overlap {
            if source == preset.rank_source() {
                assert!(
                    overlap >= min,
                    "{} overlap {overlap:.3} below the {min:.3} floor",
                    source.label()
                );
            }
        }

        let key = source.label().replace([' ', '='], "_");
        entries.push(format!(
            "  \"{key}\": {{\n    \"source\": \"{}\",\n    \"oracle_overlap\": {overlap:.4},\n    \"setup_ms\": {setup_ms:.3},\n    \"events\": {events},\n    \"best_wall_ms\": {best_wall:.3},\n    \"events_per_sec\": {events_per_sec:.0}\n  }}",
            source.label()
        ));
    }

    let body = format!(
        "{{\n  \"bench\": \"rank_events_per_sec\",\n  \"preset\": \"{}\",\n  \"scenario\": \"ranked best=20% scaled transit-stub, rank-source A/B\",\n  \"nodes\": {nodes},\n  \"messages\": {messages},\n  \"runs\": {runs},\n  \"topology_ms\": {model_ms:.3},\n{}\n}}",
        preset.label(),
        entries.join(",\n")
    );
    let bin = format!("rank_events_per_sec_{}", preset.label());
    record::upsert_bin(&out_path, &bin, &body);
    println!("wrote bin {bin} to {out_path}");
}
