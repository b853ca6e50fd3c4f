//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics, and — written down before measuring — which end-to-end
//! metric each per-layer metric is expected to move, on which workload.
//! `BENCHMARK.json` declares the same names; the smoke test checks the
//! two agree.

use crate::json::quote;

pub const WORKLOADS: [&str; 6] = [
    "scale_10k_seq",
    "scale_10k_w2",
    "sustained_1k_poisson",
    "figure_sweep_100",
    "setup_100k",
    "server_jobs",
];

/// `(name, unit)`; every workload reports every one with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_delivery_frac", "ratio"),
    ("sim_p99_ms", "sim_ms"),
    ("sim_top5_link_share", "ratio"),
];

/// Shorthand for the workload groups the predictions below refer to.
const SIMS: &[&str] = &[
    "scale_10k_seq",
    "scale_10k_w2",
    "sustained_1k_poisson",
    "figure_sweep_100",
    "setup_100k",
];
const SCALE: &[&str] = &["scale_10k_seq", "scale_10k_w2"];
const W2: &[&str] = &["scale_10k_w2"];
const SERVER: &[&str] = &["server_jobs"];

/// One per-layer metric: its unit and the end-to-end metric it should
/// move, on which workloads. Every workload reports every one with
/// `--trace 1`; a layer that is not on a workload's path reads 0.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub on: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        moves,
        on,
    }
}

pub const PER_LAYER: [Layer; 50] = [
    layer("topology.build_s", "s", "setup_s", &["setup_100k"]),
    layer("topology.latency_lookup_ns", "ns", "events_per_s", SCALE),
    layer(
        "topology.latency_lookup_traffic_ns",
        "ns",
        "events_per_s",
        SCALE,
    ),
    layer("topology.partition_plan_s", "s", "run_s", W2),
    layer(
        "core.rank_s",
        "s",
        "setup_s",
        &["setup_100k", "scale_10k_seq", "scale_10k_w2"],
    ),
    layer(
        "core.arena_cycle_ns",
        "ns",
        "events_per_s",
        &["sustained_1k_poisson"],
    ),
    layer("core.handler_ns_per_event", "ns", "events_per_s", SIMS),
    layer("core.eager_sends", "count", "sim_top5_link_share", SIMS),
    layer("core.lazy_advertisements", "count", "sim_p99_ms", SIMS),
    layer("core.requests_sent", "count", "sim_p99_ms", SIMS),
    layer("core.duplicate_payloads", "count", "events_per_s", SIMS),
    layer(
        "core.retired_messages",
        "count",
        "peak_rss_mb",
        &["sustained_1k_poisson"],
    ),
    layer(
        "core.arena_high_water",
        "count",
        "peak_rss_mb",
        &["sustained_1k_poisson"],
    ),
    layer(
        "core.useful_payload_ratio",
        "ratio",
        "sim_top5_link_share",
        SIMS,
    ),
    layer("membership.warmup_ns_per_event", "ns", "run_s", SIMS),
    layer("membership.warmup_share", "ratio", "run_s", &["setup_100k"]),
    layer("simnet.ns_per_event", "ns", "events_per_s", SIMS),
    layer(
        "simnet.relay_ns_per_event",
        "ns",
        "events_per_s",
        &["scale_10k_seq"],
    ),
    layer(
        "simnet.queue_hold_ns",
        "ns",
        "events_per_s",
        &["scale_10k_seq", "figure_sweep_100"],
    ),
    layer("simnet.queue_max_len", "count", "peak_rss_mb", SCALE),
    layer("simnet.queue_pushes", "count", "events_per_s", SIMS),
    layer("simnet.queue_resizes", "count", "events_per_s", SCALE),
    layer(
        "simnet.stale_timer_drop_ratio",
        "ratio",
        "events_per_s",
        &["figure_sweep_100"],
    ),
    layer(
        "simnet.traffic_record_ns",
        "ns",
        "run_s",
        &["scale_10k_seq", "sustained_1k_poisson"],
    ),
    layer(
        "simnet.traffic_seal_s",
        "s",
        "run_s",
        &["scale_10k_seq", "sustained_1k_poisson"],
    ),
    layer("simnet.event_loop_s", "s", "run_s", SIMS),
    layer("simnet.shard_windows", "count", "run_s", W2),
    layer("simnet.shard_lane_events", "count", "run_s", W2),
    layer("simnet.shard_lane_flushes", "count", "run_s", W2),
    layer("simnet.shard_imbalance", "ratio", "run_s", W2),
    layer("simnet.shard_idle_frac", "ratio", "run_s", W2),
    layer("simnet.shard_speedup", "ratio", "run_s", W2),
    layer("simnet.w1_overhead", "ratio", "run_s", W2),
    layer(
        "metrics.log_query_s",
        "s",
        "run_s",
        &["sustained_1k_poisson"],
    ),
    layer("metrics.deliveries", "count", "sim_delivery_frac", SIMS),
    layer("workload.prepare_s", "s", "setup_s", SIMS),
    layer("workload.collect_s", "s", "run_s", SIMS),
    layer("workload.run_cpu_s", "s", "run_s", SIMS),
    layer(
        "workload.sweep_parallel_eff",
        "ratio",
        "scenarios_per_s",
        &["figure_sweep_100"],
    ),
    layer("server.submit_share", "ratio", "run_s", SERVER),
    layer("server.first_frame_share", "ratio", "run_s", SERVER),
    layer("server.stream_share", "ratio", "run_s", SERVER),
    layer("server.sim_share", "ratio", "run_s", SERVER),
    layer("server.sse_frames_per_job", "count", "run_s", SERVER),
    layer("server.latency_p99_over_p50", "ratio", "run_s", SERVER),
    layer(
        "server.stream_job_overhead",
        "ratio",
        "scenarios_per_s",
        SERVER,
    ),
    layer(
        "server.window_frames_per_job",
        "count",
        "scenarios_per_s",
        SERVER,
    ),
    layer("server.rss_per_kjob_mb", "MB", "peak_rss_mb", SERVER),
    layer("trace.overhead_frac", "ratio", "run_s", SIMS),
    layer("trace.spans", "count", "run_s", SIMS),
];

/// The tables above as one JSON document (`--describe`).
pub fn describe() -> String {
    let names = |items: &[&str]| -> String {
        let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
        format!("[{}]", quoted.join(","))
    };
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit)| format!("{{\"name\":{},\"unit\":{}}}", quote(name), quote(unit)))
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|l| {
            format!(
                "{{\"name\":{},\"unit\":{},\"moves\":{},\"on\":{}}}",
                quote(l.name),
                quote(l.unit),
                quote(l.moves),
                names(l.on)
            )
        })
        .collect();
    format!(
        "{{\"workloads\":{},\"end_to_end\":[{}],\"per_layer\":[{}]}}",
        names(&WORKLOADS),
        e2e.join(","),
        layers.join(",")
    )
}

/// Named values collected by a workload, emitted in table order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        all.extend(PER_LAYER.iter().map(|l| l.name));
        all.extend(WORKLOADS);
        for name in &all {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn predictions_name_declared_metrics_and_workloads() {
        for l in &PER_LAYER {
            assert!(END_TO_END.iter().any(|(n, _)| *n == l.moves), "{}", l.name);
            assert!(!l.on.is_empty(), "{}", l.name);
            for w in l.on {
                assert!(WORKLOADS.contains(w), "{}: {w}", l.name);
            }
        }
    }
}
