//! Fig. 5(a): the latency/bandwidth tradeoff.
//!
//! The paper sweeps Flat's `pi` (latency 480 → 227 ms as payload/msg goes
//! 1 → 11), TTL (250 ms at 1.7 payload/msg), Radius and Ranked, plotting
//! mean delivery latency against payload transmissions per delivered
//! message. Expected shape: TTL dominates Flat; Ranked improves latency
//! over Flat at comparable traffic; Radius does *not* (its shorter hops
//! are offset by more rounds).

use super::Scale;
use egm_core::{MonitorSpec, StrategySpec};
use egm_metrics::{table, RunReport, Table};

/// Latency-oracle radius (ms) used by the Radius point; nodes closer than
/// this one-way latency get eager payloads.
pub const RADIUS_MS: [f64; 3] = [15.0, 25.0, 40.0];

/// One point of the figure.
#[derive(Debug, Clone)]
pub struct TradeoffPoint {
    /// Series name ("flat", "ttl", "radius", "ranked (all)",
    /// "ranked (low)").
    pub series: &'static str,
    /// Parameter rendered into the label (π, u, ρ, best %).
    pub label: String,
    /// x: payload transmissions per delivery (or per message and group
    /// member for the "(low)" series).
    pub payloads_per_msg: f64,
    /// y: mean end-to-end latency (ms).
    pub latency_ms: f64,
    /// The full report.
    pub report: RunReport,
}

/// Sweeps all Fig. 5(a) series over one shared model, one parallel
/// [`crate::runner::run_sweep`] batch for every point.
pub fn run(scale: &Scale) -> Vec<TradeoffPoint> {
    let model = super::shared_model(scale);

    let mut jobs: Vec<(&'static str, String, StrategySpec)> = Vec::new();
    for pi in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
        jobs.push(("flat", format!("pi={pi:.2}"), StrategySpec::Flat { pi }));
    }
    for u in [2u32, 3, 4] {
        jobs.push(("ttl", format!("u={u}"), StrategySpec::Ttl { u }));
    }
    for rho in RADIUS_MS {
        jobs.push((
            "radius",
            format!("rho={rho:.0}ms"),
            StrategySpec::Radius { rho, t0_ms: rho },
        ));
    }
    jobs.push((
        "ranked (all)",
        "best=20%".into(),
        StrategySpec::Ranked { best_fraction: 0.2 },
    ));

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
        points.push(TradeoffPoint {
            series,
            label,
            payloads_per_msg: report.payloads_per_delivery,
            latency_ms: report.mean_latency_ms(),
            report: report.clone(),
        });
        // Group series for ranked: the regular-node (low) contribution.
        if series == "ranked (all)" {
            if let Some(low) = report.payloads_per_delivery_low {
                points.push(TradeoffPoint {
                    series: "ranked (low)",
                    label: "best=20%".into(),
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
pub fn render(points: &[TradeoffPoint]) -> String {
    let mut t = Table::new([
        "series",
        "config",
        "payload/msg",
        "latency (ms)",
        "delivered (%)",
    ]);
    for p in points {
        t.row([
            p.series.to_string(),
            p.label.clone(),
            table::num(p.payloads_per_msg, 2),
            table::num(p.latency_ms, 0),
            table::pct(p.report.mean_delivery_fraction),
        ]);
    }
    t.render()
}

/// Convenience: the points of one series, in sweep order.
pub fn series<'a>(points: &'a [TradeoffPoint], name: &str) -> Vec<&'a TradeoffPoint> {
    points.iter().filter(|p| p.series == name).collect()
}

#[cfg(test)]
mod tests {
    use super::{render, run, series, Scale};

    #[test]
    fn tradeoff_shape_matches_paper() {
        let scale = Scale {
            nodes: 30,
            messages: 60,
            seed: 5,
        };
        let points = run(&scale);
        let flat = series(&points, "flat");
        // Flat: pi=0 is slowest and cheapest; pi=1 fastest and most
        // expensive (the paper's 480ms/1 payload → 227ms/11 payloads).
        let lazy = flat.first().expect("pi=0 point");
        let eager = flat.last().expect("pi=1 point");
        assert!(
            lazy.payloads_per_msg < 1.5,
            "lazy {}",
            lazy.payloads_per_msg
        );
        assert!(
            eager.payloads_per_msg > 4.0,
            "eager {}",
            eager.payloads_per_msg
        );
        assert!(lazy.latency_ms > eager.latency_ms * 1.5);
        // TTL dominates flat: for u=3, traffic well below eager with
        // latency close to it.
        let ttl2 = &series(&points, "ttl")[1];
        assert!(ttl2.payloads_per_msg < eager.payloads_per_msg * 0.6);
        assert!(ttl2.latency_ms < lazy.latency_ms * 0.75);
        // Ranked(low): regular nodes carry much less than the average.
        let ranked_all = series(&points, "ranked (all)")[0];
        let ranked_low = series(&points, "ranked (low)")[0];
        assert!(ranked_low.payloads_per_msg < ranked_all.payloads_per_msg);
        let text = render(&points);
        assert!(text.contains("latency (ms)"));
    }
}
