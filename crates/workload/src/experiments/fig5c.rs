//! Fig. 5(c): the hybrid ("combined") strategy.
//!
//! §6.4 combines TTL, Radius and Ranked: eager if a best node is
//! involved, or within radius `2ρ` during the first `u` rounds, or within
//! `ρ` afterwards. The paper's result: regular nodes cut latency from
//! 379 ms to 245 ms while their payload cost only rises from 1.01 to 1.20
//! payload/message, with the 20 % best nodes contributing ≈10.8 — i.e.
//! nearly-eager latency at nearly-lazy cost for the majority.

use super::Scale;
use egm_core::{MonitorSpec, StrategySpec};
use egm_metrics::{table, RunReport, Table};

/// Radii (ms) swept for the combined strategy.
pub const COMBINED_RHO_MS: [f64; 3] = [10.0, 20.0, 35.0];

/// One point of the figure.
#[derive(Debug, Clone)]
pub struct HybridPoint {
    /// Series: "ttl", "combined (all)" or "combined (low)".
    pub series: &'static str,
    /// Swept-parameter label.
    pub label: String,
    /// Payload transmissions (per delivery for "all", per message and
    /// node for the group series).
    pub payloads_per_msg: f64,
    /// Mean latency (ms); for "combined (low)" the latency of the same
    /// run (latency is not split by group).
    pub latency_ms: f64,
    /// The full report.
    pub report: RunReport,
}

/// Sweeps TTL and the combined strategy over one shared model, one
/// parallel [`crate::runner::run_sweep`] batch for all six runs.
pub fn run(scale: &Scale) -> Vec<HybridPoint> {
    let model = super::shared_model(scale);

    let mut jobs: Vec<(&'static str, String, StrategySpec)> = Vec::new();
    for u in [2u32, 3, 4] {
        jobs.push(("ttl", format!("u={u}"), StrategySpec::Ttl { u }));
    }
    for rho in COMBINED_RHO_MS {
        jobs.push((
            "combined (all)",
            format!("rho={rho:.0}ms"),
            StrategySpec::Combined {
                best_fraction: 0.2,
                rho,
                u: 2,
                t0_ms: rho,
            },
        ));
    }
    let scenarios: Vec<_> = jobs
        .iter()
        .map(|(_, _, strategy)| {
            super::base_scenario(scale)
                .with_strategy(strategy.clone())
                .with_monitor(MonitorSpec::OracleLatency)
        })
        .collect();
    let outcomes = crate::runner::run_sweep(scenarios, Some(model));

    let mut points = Vec::new();
    for ((series, label, _), report) in jobs.into_iter().zip(outcomes.into_iter().map(|o| o.report))
    {
        points.push(HybridPoint {
            series,
            label: label.clone(),
            payloads_per_msg: report.payloads_per_delivery,
            latency_ms: report.mean_latency_ms(),
            report: report.clone(),
        });
        if series == "combined (all)" {
            if let Some(low) = report.payloads_per_delivery_low {
                points.push(HybridPoint {
                    series: "combined (low)",
                    label,
                    payloads_per_msg: low,
                    latency_ms: report.mean_latency_ms(),
                    report,
                });
            }
        }
    }
    points
}

/// Renders the figure table.
pub fn render(points: &[HybridPoint]) -> String {
    let mut t = Table::new([
        "series",
        "config",
        "payload/msg",
        "latency (ms)",
        "best payload/msg",
    ]);
    for p in points {
        let best = p
            .report
            .payloads_per_delivery_best
            .map_or("-".to_string(), |b| table::num(b, 2));
        t.row([
            p.series.to_string(),
            p.label.clone(),
            table::num(p.payloads_per_msg, 2),
            table::num(p.latency_ms, 0),
            best,
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::{render, run, Scale};

    #[test]
    fn combined_gives_low_nodes_cheap_latency() {
        let scale = Scale {
            nodes: 30,
            messages: 40,
            seed: 17,
        };
        let points = run(&scale);
        let low: Vec<_> = points
            .iter()
            .filter(|p| p.series == "combined (low)")
            .collect();
        let all: Vec<_> = points
            .iter()
            .filter(|p| p.series == "combined (all)")
            .collect();
        assert_eq!(low.len(), 3);
        for (l, a) in low.iter().zip(&all) {
            // Regular nodes pay much less than the run average, and the
            // best nodes carry several times the regular load (§6.4).
            assert!(l.payloads_per_msg < a.payloads_per_msg);
            let best = a
                .report
                .payloads_per_delivery_best
                .expect("best group present");
            assert!(
                best > 2.0 * l.payloads_per_msg,
                "hubs {best} vs low {}",
                l.payloads_per_msg
            );
        }
        // Growing the radius reduces latency (the paper's 379 → 245 ms
        // trend along the sweep).
        assert!(
            all.last().expect("points").latency_ms < all.first().expect("points").latency_ms,
            "latency must fall as the radius grows"
        );
        let text = render(&points);
        assert!(text.contains("combined"));
    }
}
