//! Gate binaries: the assertions the repository benchmark does not make.
//!
//! Throughput is measured by the benchmark package (`benchmark/`: six
//! pinned workloads, fingerprint checks, regression bounds), and the
//! paper's figures are printed by the workspace examples
//! (`cargo run --release --example full_report`). Each binary under
//! `src/bin/` runs one scale preset (`EGM_SCALE_PRESET`), fails on the
//! first gate it breaks, and records its evidence — counts, memory,
//! windows, percentiles, fault cells; never wall time — as one bin of
//! `BENCH_events_per_sec.json`.
//!
//! # The record: `BENCH_events_per_sec.json`
//!
//! A JSON object of **named bins**, sorted by name, each written by
//! [`record::upsert_bin`] in the [`Json::render_pretty`] layout:
//!
//! ```json
//! {
//!   "scale_events_per_sec_1k": {
//!     "bench": "scale_events_per_sec",
//!     "preset": "1k",
//!     "nodes": 1000,
//!     "messages": 30,
//!     "events": 332522,
//!     "peak_rss_mb": 38.4
//!   }
//! }
//! ```
//!
//! Every bin carries `bench`, `preset`, `nodes`, `messages` and the
//! process `peak_rss_mb` (`null` without procfs). `events` is the
//! deterministic simulator event count: identical across runs and
//! machines for a given code version, so a changed value means changed
//! protocol behaviour. Per binary:
//!
//! * `scale_events_per_sec_<preset>` — the preset on one shard, run cold
//!   and then from a prepared setup; the two reports must be identical.
//!   Adds `scenario`, `rank_source`, `events`, `timers_cancelled`,
//!   `stale_timer_drops`, `retired_messages`, `arena_high_water`, and
//!   `traffic_folds` / `traffic_folded_records` (how often the traffic
//!   log folded into its link table, and the send records it folded).
//!   Gates: no dense latency cells, no payload
//!   table regrowth, peak RSS under
//!   [`ScalePreset::rss_budget_mb`](egm_workload::experiments::scale::ScalePreset::rss_budget_mb)
//!   (`EGM_SCALE_RSS_BUDGET_MB` overrides), and in plateau mode
//!   (`EGM_SCALE_PLATEAU_MAX`, no bin written) the 2×-message peak RSS
//!   within that factor of the 1× peak.
//! * `shard_events_per_sec_<preset>` — one shard, then the planned
//!   (domain-aligned) cut at each `EGM_SHARD_WIDTHS` width, every width
//!   byte-identical to one shard (report, delivery log, link tables,
//!   event count). One `w<W>` sub-object per width: the effective
//!   `strategy`, `speedup_vs_seq` (one timed run each side — the only
//!   wall-clock number in the record, kept for multi-core runners),
//!   `windows`, `lane_events`, `lane_flushes`, `exchanges_skipped`,
//!   `lookahead_us`, `realized_lookahead_us` and `per_shard_events`.
//!   Gates: the planner does not fall back, the W = 2 cut keeps the
//!   heaviest shard within 1.10 × the mean (always on: counts repeat
//!   exactly), `EGM_SHARD_MAX_WINDOWS` caps every width's window count,
//!   `EGM_SCALE_RSS_BUDGET_MB` caps peak RSS.
//! * `sustained_events_per_sec_<preset>` — 120 messages of open-loop
//!   Poisson arrivals at 20 msg/s on one shard and at W ∈ {2, 4}, every
//!   width byte-identical (report, event count, latency histogram,
//!   steady-state block). Adds `process`, `rate_per_sec`,
//!   `steady_publishes_per_sec`, `steady_deliveries_per_sec`,
//!   `latency_p50_ms` / `latency_p99_ms` / `latency_p999_ms` and the
//!   `traffic_acc_peak` merge accumulator. Gates: the accumulator never
//!   exceeds the spill threshold, `EGM_SCALE_RSS_BUDGET_MB` caps peak RSS.
//! * `fault_resilience_<preset>` — every
//!   [`FaultScenarioKind`](egm_workload::FaultScenarioKind) × churn level
//!   with online re-ranking, 10 messages per cell: `scenario`, the
//!   `cells` count and one `<scenario>_<churn>` sub-object per cell with
//!   `delivery`, `hub_stability` and `p99_ms`. Gates: every cell
//!   delivers at least 90 % of messages, and the
//!   domain-outage × heavy-churn cell is byte-identical at every
//!   `EGM_SHARD_WIDTHS` width.
//!
//! `EGM_BENCH_OUT` moves the record ([`record::path`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod record;

use egm_server::json::Json;
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

/// Reads an optional environment knob (`EGM_SCALE_RSS_BUDGET_MB`,
/// `EGM_SHARD_MAX_WINDOWS`, …): `None` when unset. Shared by every
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

/// Reads a comma-separated environment knob (`EGM_SHARD_WIDTHS`): `None`
/// when unset, an empty list when set to the empty string.
///
/// # Panics
///
/// Panics when any item does not parse.
pub fn env_list<T: FromStr>(key: &str) -> Option<Vec<T>> {
    env_parse::<String>(key).map(|v| parse_knob_list(key, &v))
}

/// `x` rounded to `decimals` places: the precision a bin records it at.
pub fn rounded(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::num((x * scale).round() / scale)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024.0);
        }
    }
    None
}

/// The process peak RSS as a bin's `peak_rss_mb` field (`null` without
/// procfs), after asserting it stays within `budget_mb` when one is given.
///
/// # Panics
///
/// Panics when the peak exceeds the budget, or when a budget is given
/// and procfs is unavailable.
pub fn peak_rss_field(budget_mb: Option<f64>, preset: &str) -> Json {
    let peak = peak_rss_mb();
    if let Some(budget) = budget_mb {
        let peak = peak.expect("RSS budget asserted but /proc unavailable");
        assert!(
            peak <= budget,
            "peak RSS {peak:.1} MB exceeds the {budget:.1} MB budget for the {preset} preset"
        );
        println!("peak RSS within budget ({peak:.1} <= {budget:.1} MB)");
    }
    peak.map_or(Json::Null, |mb| rounded(mb, 1))
}

#[cfg(test)]
mod tests {
    use super::{parse_knob, parse_knob_list, rounded};
    use egm_server::json::Json;

    #[test]
    fn knobs_parse_with_surrounding_whitespace() {
        assert_eq!(parse_knob::<f64>("EGM_SCALE_RSS_BUDGET_MB", " 0.90 "), 0.9);
        assert_eq!(parse_knob::<u64>("EGM_SHARD_MAX_WINDOWS", "3"), 3);
    }

    #[test]
    #[should_panic(expected = "unrecognized EGM_SCALE_RSS_BUDGET_MB \"0,90\"")]
    fn a_typoed_gate_value_panics_naming_variable_and_value() {
        let _ = parse_knob::<f64>("EGM_SCALE_RSS_BUDGET_MB", "0,90");
    }

    #[test]
    #[should_panic(expected = "unrecognized EGM_SHARD_MAX_WINDOWS \"two\"")]
    fn a_typoed_count_panics_instead_of_taking_the_default() {
        let _ = parse_knob::<u64>("EGM_SHARD_MAX_WINDOWS", "two");
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

    #[test]
    fn rounded_values_render_at_their_recorded_precision() {
        assert_eq!(rounded(0.78499996, 4).render(), "0.785");
        assert_eq!(rounded(466.94312, 3).render(), "466.943");
        assert_eq!(rounded(44.04, 1), Json::num(44.0));
    }
}
