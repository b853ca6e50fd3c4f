//! Fig. 6: graceful degradation of structure under monitor noise.
//!
//! §4.3/§6.5: each `Eager?` answer is blurred by
//! `v' = c + (v − c)(1 − o)` with `c` calibrated so total eager traffic is
//! preserved. The paper shows that (a) overall payload/msg stays constant
//! while the regular nodes' share converges up to the mean, (b) Ranked's
//! latency advantage decays gracefully toward Flat, and (c) the top-5 %
//! link share converges to ≈5 % — structure dissolves but nothing breaks.

use super::Scale;
use egm_core::{MonitorSpec, StrategySpec};
use egm_metrics::{table, RunReport, Table};

/// Noise ratios swept (the paper sweeps 0–100 %).
pub const NOISE_RATIOS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// One noise measurement.
#[derive(Debug, Clone)]
pub struct NoisePoint {
    /// Series: "radius" or "ranked".
    pub series: &'static str,
    /// Noise ratio `o`.
    pub noise: f64,
    /// Calibrated constant `c` used.
    pub c: f64,
    /// Overall payload/msg — must stay ≈constant (Fig. 6(a)).
    pub payloads_per_msg: f64,
    /// Regular-node payload/msg (rises with noise for ranked).
    pub payloads_per_msg_low: Option<f64>,
    /// Mean latency (Fig. 6(b)).
    pub latency_ms: f64,
    /// Top-5 % link share (Fig. 6(c)).
    pub top5_share: f64,
    /// The full report.
    pub report: RunReport,
}

/// Sweeps noise for the Radius and Ranked strategies over one shared
/// model.
pub fn run(scale: &Scale) -> Vec<NoisePoint> {
    let model = super::shared_model(scale);
    let configs: [(&'static str, StrategySpec, MonitorSpec); 2] = [
        (
            "radius",
            StrategySpec::Radius {
                rho: 25.0,
                t0_ms: 25.0,
            },
            MonitorSpec::OracleLatency,
        ),
        (
            "ranked",
            StrategySpec::Ranked { best_fraction: 0.2 },
            MonitorSpec::OracleLatency,
        ),
    ];
    // Phase 1: calibrate `c` for both series in one parallel batch.
    let bases: Vec<_> = configs
        .iter()
        .map(|(_, strategy, monitor)| {
            super::base_scenario(scale)
                .with_strategy(strategy.clone())
                .with_monitor(*monitor)
        })
        .collect();
    let probes: Vec<_> = bases.iter().map(crate::calibrate::probe_scenario).collect();
    let rates: Vec<f64> = crate::runner::run_sweep(probes, Some(model.clone()))
        .iter()
        .map(crate::calibrate::rate_from_outcome)
        .collect();

    // Phase 2: the full noise grid, one parallel batch.
    let mut meta: Vec<(&'static str, f64, f64)> = Vec::new();
    let mut scenarios = Vec::new();
    for ((&(series, _, _), base), &c) in configs.iter().zip(&bases).zip(&rates) {
        for o in NOISE_RATIOS {
            let noise = (o > 0.0).then_some(crate::scenario::NoiseConfig { o, c });
            meta.push((series, o, c));
            scenarios.push(base.clone().with_noise(noise));
        }
    }
    let outcomes = crate::runner::run_sweep(scenarios, Some(model));
    meta.into_iter()
        .zip(outcomes.into_iter().map(|o| o.report))
        .map(|((series, o, c), report)| NoisePoint {
            series,
            noise: o,
            c,
            payloads_per_msg: report.payloads_per_delivery,
            payloads_per_msg_low: report.payloads_per_delivery_low,
            latency_ms: report.mean_latency_ms(),
            top5_share: report.top5_link_share,
            report,
        })
        .collect()
}

/// Renders all three panels as one table.
pub fn render(points: &[NoisePoint]) -> String {
    let mut t = Table::new([
        "series",
        "noise (%)",
        "payload/msg",
        "payload/msg low",
        "latency (ms)",
        "top5% share (%)",
    ]);
    for p in points {
        t.row([
            p.series.to_string(),
            format!("{:.0}", p.noise * 100.0),
            table::num(p.payloads_per_msg, 2),
            p.payloads_per_msg_low
                .map_or("-".into(), |v| table::num(v, 2)),
            table::num(p.latency_ms, 0),
            table::pct(p.top5_share),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::{render, run, Scale};

    #[test]
    fn noise_preserves_traffic_and_dissolves_structure() {
        let scale = Scale {
            nodes: 30,
            messages: 40,
            seed: 23,
        };
        let points = run(&scale);
        assert_eq!(points.len(), 10);
        for series in ["radius", "ranked"] {
            let s: Vec<_> = points.iter().filter(|p| p.series == series).collect();
            let clean = s.first().expect("noise=0 point");
            let noisy = s.last().expect("noise=1 point");
            // Fig 6(a): total payload volume is approximately preserved.
            let ratio = noisy.payloads_per_msg / clean.payloads_per_msg;
            assert!(
                (0.6..=1.6).contains(&ratio),
                "{series}: payload volume drifted by {ratio}"
            );
            // Fig 6(c): structure dissolves toward the uniform 5% share.
            assert!(
                noisy.top5_share < clean.top5_share,
                "{series}: top5 {} -> {}",
                clean.top5_share,
                noisy.top5_share
            );
            assert!(
                noisy.top5_share < 0.20,
                "{series}: residual structure too strong"
            );
        }
        let text = render(&points);
        assert!(text.contains("noise"));
    }
}
