//! Benchmark harnesses regenerating the paper's evaluation.
//!
//! Each Criterion bench target under `benches/` corresponds to one figure
//! (or the §5.1/§5.4 statistics): it first *prints the figure's series* —
//! the same rows the paper plots — and then times a representative
//! scenario execution so `cargo bench` doubles as both the reproduction
//! record and a performance regression guard.
//!
//! # Scale
//!
//! Scale is controlled by the `EGM_SCALE` environment variable: unset or
//! `quick` runs a reduced configuration (50 nodes × 120 messages);
//! `paper` reproduces the full 100 nodes × 400 messages of §5.3. Every
//! figure experiment reads it through
//! [`egm_workload::experiments::Scale::from_env`].
//!
//! # Parallel sweeps
//!
//! Figure experiments execute their independent points through
//! `egm_workload::runner::run_sweep`, which fans scenarios across cores
//! and returns results in input order, byte-identical to sequential
//! execution (each run forks its whole RNG tree from its own seed). Cap
//! or disable the parallelism with `RAYON_NUM_THREADS`.
//!
//! # Perf trajectory: `BENCH_events_per_sec.json`
//!
//! `BENCH_events_per_sec.json` at the repository root records the
//! event-loop perf trajectory across PRs. The file is a JSON object of
//! **named bins**, one per throughput bench binary, each bin a flat
//! object:
//!
//! ```json
//! {
//!   "events_per_sec": {
//!     "bench": "events_per_sec",
//!     "scenario": "ranked best=20% oracle-latency transit-stub",
//!     "nodes": 100,
//!     "messages": 150,
//!     "runs": 5,
//!     "events": 208898,
//!     "best_wall_ms": 55.1,
//!     "mean_wall_ms": 60.2,
//!     "events_per_sec": 3794504
//!   },
//!   "scale_events_per_sec_1k": {
//!     "bench": "scale_events_per_sec",
//!     "preset": "1k",
//!     "nodes": 1000,
//!     "messages": 30,
//!     "runs": 2,
//!     "events": 1234567,
//!     "best_wall_ms": 400.0,
//!     "mean_wall_ms": 410.0,
//!     "events_per_sec": 3000000,
//!     "timers_cancelled": 56789,
//!     "stale_timer_drops": 56789,
//!     "peak_rss_mb": 120.5
//!   }
//! }
//! ```
//!
//! * `events_per_sec` — the original 100-node Ranked scenario
//!   (`cargo run --release -p egm_bench --bin events_per_sec`). Its
//!   deterministic `events` value doubles as the cross-PR byte-identity
//!   check for the oracle-ranked path.
//! * `scale_events_per_sec_<preset>` — the 1k/4k/10k scale-axis presets
//!   (`cargo run --release -p egm_bench --bin scale_events_per_sec`,
//!   preset chosen with `EGM_SCALE_PRESET`). It additionally records the
//!   preset's `rank_source`, the fixed per-run `setup_ms` (ranking +
//!   overlay-view bootstrap, paid once via `egm_workload::runner::
//!   prepare` and amortized across the timed runs), `topology_ms` (one
//!   `Scenario::build_model` timed on its own — with `setup_ms` the
//!   whole of a cold set-up, term by term), the index-free
//!   timer-cancellation counters and the process peak RSS, so the memory
//!   budget per scenario size is tracked alongside throughput (see
//!   `egm_workload::experiments::scale` for the budget table).
//!   `EGM_SCALE_RSS_BUDGET_MB` turns the RSS record into a hard assertion
//!   — the CI scale smoke job uses this.
//! * `rank_events_per_sec_<preset>` — the rank-source A/B
//!   (`cargo run --release -p egm_bench --bin rank_events_per_sec`): one
//!   sub-object per [`RankSource`](egm_core::RankSource) (oracle /
//!   sampled / the preset's gossip-sorted source) with that source's
//!   `oracle_overlap`, fixed `setup_ms`, deterministic `events`,
//!   `best_wall_ms` and `events_per_sec` — the accuracy/cost record
//!   behind retiring the O(n²) oracle on the scale axis.
//!   `EGM_RANK_MIN_OVERLAP` asserts the overlap floor (the presets
//!   require ≥ 0.8).
//! * `shard_events_per_sec_<preset>` — the multi-shard event-loop A/B
//!   (`cargo run --release -p egm_bench --bin shard_events_per_sec`):
//!   the preset once on one shard (`seq` sub-object) and then, at every
//!   width from `EGM_SHARD_WIDTHS`, once under the contiguous partition
//!   and once under the planned cut — `w2_contiguous` /
//!   `w2_domain_aligned` / `w4_…` sub-objects. (Records written before
//!   2026-10 also carry `w<W>_rate_balanced` rows — the same cut timed
//!   a second time; the bench now asserts that both planner names yield
//!   one assignment and times it once.) Each records the *effective*
//!   `strategy` (a planned strategy falls back to contiguous on
//!   structureless topologies), `best_wall_ms`, `events_per_sec`,
//!   `speedup_vs_seq`, and the window-loop counters: `windows`,
//!   `lane_events`, the batched `lane_flushes`, the
//!   `exchanges_skipped` by the adaptive barrier, the configured
//!   `lookahead_us`, the `realized_lookahead_us` actually advanced per
//!   window, and the `per_shard_events` balance. The bench *asserts*
//!   byte-identical results for every pair (report, delivery log, link
//!   tables, event count) — the determinism record behind parallelizing
//!   one run — and, always on because it compares exact counts, that
//!   the planned cut at W = 2 keeps the heaviest shard within 1.10× of
//!   the mean `per_shard_events`. `EGM_SHARD_MAX_WINDOWS` caps the
//!   window count of every planned run — the gated record that
//!   topology-aware cuts keep the conservative windows an order of
//!   magnitude coarser than contiguous ones.
//! * `sustained_events_per_sec_<preset>` — the heavy-traffic arrival
//!   axis (`cargo run --release -p egm_bench --bin
//!   sustained_events_per_sec`): one open-loop run per shard width
//!   W ∈ {seq, 2, 4} over a shared prepared setup, byte-identity
//!   asserted per width (report, event count, latency histogram,
//!   steady-state block). Records the arrival `process` and offered
//!   `rate_per_sec`, the steady-state `steady_publishes_per_sec` /
//!   `steady_deliveries_per_sec` (simulated-time rates over the
//!   post-warm-up window), the `latency_p50_ms` / `latency_p99_ms` /
//!   `latency_p999_ms` publish→delivery percentiles from the mergeable
//!   log-bucketed histogram, and the `traffic_acc_peak` merge-time
//!   accumulator bound (pinned ≤ the spill threshold).
//!   `EGM_MIN_SUSTAINED_EPS` turns the wall-clock events/s into a floor
//!   assertion — the CI sustained smoke job's regression guard;
//!   `EGM_SUSTAINED_PROCESS` / `EGM_SUSTAINED_RATE` select the arrival
//!   process (poisson / bursty / diurnal) and offered rate.
//! * `fault_resilience_<preset>` — the scheduled-fault resilience grid
//!   (`cargo run --release -p egm_bench --bin fault_resilience`): every
//!   [`FaultScenarioKind`](egm_workload::FaultScenarioKind) — baseline,
//!   correlated domain outage, transit-link degradation, flash crowd,
//!   node slowdown — against every churn level (none / light / heavy
//!   overlapping outages), with online re-ranking active. One sub-object
//!   per `<scenario>_<churn>` cell holding `delivery` (mean delivery
//!   fraction), `hub_stability` (overlap between the initial and final
//!   re-ranked hub sets), and the steady-state `p99_ms`
//!   publish→delivery latency; plus the grid `cells` count, `sweep_ms`
//!   and `peak_rss_mb`. The bin re-runs the harshest cell (domain
//!   outage × heavy churn) at every `EGM_SHARD_WIDTHS` width and
//!   *asserts* byte-identity with the sequential engine.
//!   `EGM_MIN_DELIVERY_RATIO` turns every cell's delivery ratio into a
//!   floor assertion — the CI fault smoke job's regression guard.
//! * `queue_events_per_sec_<preset>` — the event-queue A/B comparison
//!   (`cargo run --release -p egm_bench --bin queue_events_per_sec`):
//!   one scale preset run per queue implementation over a shared
//!   topology, asserting event-for-event identical results at runtime. A
//!   flat object with `heap_best_wall_ms` / `heap_events_per_sec`,
//!   `calendar_best_wall_ms` / `calendar_events_per_sec`, the
//!   `calendar_speedup` ratio, and the calendar geometry
//!   (`calendar_bucket_count`, `calendar_bucket_width_us`,
//!   `calendar_resizes`, `calendar_year_scans`). On the 2026-07 10k
//!   measurement the calendar queue is ~1.7× the heap's event rate;
//!   combined with the arena-backed node state and log-based traffic
//!   accounting the `scale_events_per_sec_10k` bin moved from ~0.39 M to
//!   ~0.93 M events/s (2.4×) on the same container.
//!
//! `events` is the deterministic simulator event count of the scenario
//! (identical across runs and machines for a given code version — a
//! changed value means the protocol behaviour changed, not just its
//! speed); `events_per_sec` is computed from the best wall time. Stale
//! cancelled-timer drops are excluded from `events` — they never
//! dispatch. `EGM_BENCH_RUNS`, `EGM_BENCH_MESSAGES` and `EGM_BENCH_OUT`
//! override the run count, workload size and output path;
//! `EGM_MIN_EVENTS_PER_SEC` makes `events_per_sec` *assert* a
//! throughput floor so gross event-loop regressions fail CI instead of
//! silently updating the record.
//!
//! Each binary rewrites only its own bin through [`record::upsert_bin`],
//! preserving the others (a pre-2026-07 flat single-bench file is
//! migrated in place).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod record;

use egm_workload::experiments::Scale;

/// Reads a `usize` environment knob (`EGM_BENCH_RUNS`,
/// `EGM_SCALE_MESSAGES`, …), falling back to `default` when the variable
/// is unset or unparseable. Shared by every bench binary.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Prints a figure banner plus its rendered table.
pub fn print_figure(name: &str, scale: &Scale, table: &str) {
    println!(
        "\n=== {name} (nodes={}, messages={}, seed={}) ===",
        scale.nodes, scale.messages, scale.seed
    );
    println!("{table}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn print_figure_is_callable() {
        let scale = egm_workload::experiments::Scale::quick();
        super::print_figure("smoke", &scale, "a b\n---\n1 2\n");
    }
}
