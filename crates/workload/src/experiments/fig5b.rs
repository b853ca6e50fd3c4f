//! Fig. 5(b): reliability under massive node failure.
//!
//! The paper silences 0–80 % of nodes after warm-up and measures the mean
//! percentage of (live) nodes delivering each message, for three
//! configurations: pure eager push with random victims, Ranked with
//! random victims, and Ranked with the *best-ranked* victims — precisely
//! the nodes carrying most payload. The result: no noticeable reliability
//! impact until the overlay itself disintegrates (≈80 %+), even when the
//! emergent hubs are the ones killed.

use super::Scale;
use crate::faults::{FaultPlan, FaultSelection};
use egm_core::StrategySpec;
use egm_metrics::{table, RunReport, Table};

/// Failure fractions swept (the paper plots 0–80 %).
pub const FAIL_FRACTIONS: [f64; 5] = [0.0, 0.2, 0.4, 0.6, 0.8];

/// One reliability measurement.
#[derive(Debug, Clone)]
pub struct ReliabilityPoint {
    /// Series name.
    pub series: &'static str,
    /// Fraction of nodes killed.
    pub dead_fraction: f64,
    /// Mean deliveries among live nodes, in `[0, 1]`.
    pub mean_deliveries: f64,
    /// The full report.
    pub report: RunReport,
}

/// Sweeps the three Fig. 5(b) series.
pub fn run(scale: &Scale) -> Vec<ReliabilityPoint> {
    let model = super::shared_model(scale);
    let configs: [(&'static str, StrategySpec, FaultSelection); 3] = [
        (
            "flat/random",
            StrategySpec::Flat { pi: 1.0 },
            FaultSelection::Random,
        ),
        (
            "ranked/random",
            StrategySpec::Ranked { best_fraction: 0.2 },
            FaultSelection::Random,
        ),
        (
            "ranked/ranked",
            StrategySpec::Ranked { best_fraction: 0.2 },
            FaultSelection::BestRanked,
        ),
    ];
    let mut meta: Vec<(&'static str, f64)> = Vec::new();
    let mut scenarios = Vec::new();
    for (series, strategy, selection) in configs {
        for frac in FAIL_FRACTIONS {
            let faults = (frac > 0.0).then(|| FaultPlan::new(frac, selection));
            meta.push((series, frac));
            scenarios.push(
                super::base_scenario(scale)
                    .with_strategy(strategy.clone())
                    .with_faults(faults),
            );
        }
    }
    let outcomes = crate::runner::run_sweep(scenarios, Some(model));
    meta.into_iter()
        .zip(outcomes.into_iter().map(|o| o.report))
        .map(|((series, frac), report)| ReliabilityPoint {
            series,
            dead_fraction: frac,
            mean_deliveries: report.mean_delivery_fraction,
            report,
        })
        .collect()
}

/// Renders the figure table.
pub fn render(points: &[ReliabilityPoint]) -> String {
    let mut t = Table::new([
        "series",
        "dead nodes (%)",
        "mean deliveries (%)",
        "atomic (%)",
    ]);
    for p in points {
        t.row([
            p.series.to_string(),
            format!("{:.0}", p.dead_fraction * 100.0),
            table::pct(p.mean_deliveries),
            table::pct(p.report.atomic_delivery_fraction),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::{render, run, Scale};

    #[test]
    fn reliability_is_flat_until_heavy_failures() {
        let scale = Scale {
            nodes: 30,
            messages: 30,
            seed: 13,
        };
        let points = run(&scale);
        assert_eq!(points.len(), 15);
        for p in &points {
            if p.dead_fraction <= 0.4 {
                assert!(
                    p.mean_deliveries > 0.95,
                    "{} at {:.0}% dead delivered {:.1}%",
                    p.series,
                    p.dead_fraction * 100.0,
                    p.mean_deliveries * 100.0
                );
            }
        }
        // Killing the hubs must not be noticeably worse than killing
        // random nodes (the paper's headline resilience claim).
        for frac in [0.2, 0.4] {
            let random = points
                .iter()
                .find(|p| p.series == "ranked/random" && p.dead_fraction == frac)
                .expect("point exists");
            let hubs = points
                .iter()
                .find(|p| p.series == "ranked/ranked" && p.dead_fraction == frac)
                .expect("point exists");
            assert!(
                hubs.mean_deliveries > random.mean_deliveries - 0.05,
                "hub failures collapsed reliability at {frac}"
            );
        }
        let text = render(&points);
        assert!(text.contains("dead nodes"));
    }
}
