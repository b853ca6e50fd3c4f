//! Throughput and gate binaries tracking the simulator's performance.
//!
//! The paper's figures are reproduced by the workspace examples
//! (`cargo run --release --example full_report` prints all of them, at
//! the scale chosen with `EGM_SCALE`); this crate holds the bench
//! binaries under `src/bin/` and the record they write.
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
//!   a second time under its other name.) Each records the *effective*
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

use std::env::VarError;
use std::str::FromStr;

/// Parses the value of environment knob `key`.
///
/// # Panics
///
/// Panics naming the variable and the value when it does not parse: a
/// typoed gate knob must fail the job, not silently disable the gate.
fn parse_knob<T: FromStr>(key: &str, value: &str) -> T {
    value.trim().parse().unwrap_or_else(|_| {
        panic!(
            "unrecognized {key} {value:?}: expected a value of type {}",
            std::any::type_name::<T>()
        )
    })
}

/// Parses a comma-separated knob value; an empty value is an empty list.
fn parse_knob_list<T: FromStr>(key: &str, value: &str) -> Vec<T> {
    if value.trim().is_empty() {
        return Vec::new();
    }
    value.split(',').map(|v| parse_knob(key, v)).collect()
}

/// Reads an optional environment knob (`EGM_MIN_EVENTS_PER_SEC`,
/// `EGM_SCALE_RSS_BUDGET_MB`, …): `None` when unset. Shared by every
/// bench binary.
///
/// # Panics
///
/// Panics when the variable is set to something that does not parse.
pub fn env_parse<T: FromStr>(key: &str) -> Option<T> {
    match std::env::var(key) {
        Ok(v) => Some(parse_knob(key, &v)),
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(v)) => panic!("unrecognized {key} {v:?}: not UTF-8"),
    }
}

/// Reads a `usize` environment knob (`EGM_BENCH_RUNS`,
/// `EGM_SCALE_MESSAGES`, …), `default` when unset.
///
/// # Panics
///
/// Panics when the variable is set to something that does not parse.
pub fn env_usize(key: &str, default: usize) -> usize {
    env_parse(key).unwrap_or(default)
}

/// Reads a comma-separated environment knob (`EGM_SHARD_WIDTHS`): `None`
/// when unset, an empty list when set to the empty string.
///
/// # Panics
///
/// Panics when any item does not parse.
pub fn env_list<T: FromStr>(key: &str) -> Option<Vec<T>> {
    env_parse::<String>(key).map(|v| parse_knob_list(key, &v))
}

#[cfg(test)]
mod tests {
    use super::{parse_knob, parse_knob_list};

    #[test]
    fn knobs_parse_with_surrounding_whitespace() {
        assert_eq!(parse_knob::<f64>("EGM_MIN_DELIVERY_RATIO", " 0.90 "), 0.9);
        assert_eq!(parse_knob::<usize>("EGM_BENCH_RUNS", "3"), 3);
    }

    #[test]
    #[should_panic(expected = "unrecognized EGM_MIN_DELIVERY_RATIO \"0,90\"")]
    fn a_typoed_gate_value_panics_naming_variable_and_value() {
        let _ = parse_knob::<f64>("EGM_MIN_DELIVERY_RATIO", "0,90");
    }

    #[test]
    #[should_panic(expected = "unrecognized EGM_BENCH_RUNS \"two\"")]
    fn a_typoed_count_panics_instead_of_taking_the_default() {
        let _ = parse_knob::<usize>("EGM_BENCH_RUNS", "two");
    }

    #[test]
    fn lists_split_on_commas_and_empty_means_none() {
        assert_eq!(parse_knob_list::<usize>("EGM_SHARD_WIDTHS", "2, 4"), [2, 4]);
        assert_eq!(parse_knob_list::<usize>("EGM_SHARD_WIDTHS", ""), []);
    }

    #[test]
    #[should_panic(expected = "unrecognized EGM_SHARD_WIDTHS \"x\"")]
    fn one_bad_list_item_panics_instead_of_being_dropped() {
        let _ = parse_knob_list::<usize>("EGM_SHARD_WIDTHS", "2,x");
    }
}
