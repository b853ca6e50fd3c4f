//! Ablation: NeEM-style redundancy suppression.
//!
//! The paper's pseudocode (Fig. 2/3) pushes payload to every sampled
//! target, but the NeEM 0.5 implementation it builds on purges queued
//! transmissions that became redundant — effectively never re-sending a
//! message to a peer that already sent it (or an `IHAVE` for it) to us.
//! This design choice explains why the paper's regular nodes achieve
//! payload contributions near 1.0 under Ranked/Combined: their eager
//! pushes toward hubs are exactly the transmissions suppression removes
//! (the hub always holds the message first).
//!
//! This experiment quantifies the effect by running each strategy with
//! suppression off (pseudocode-faithful, the default everywhere else) and
//! on (NeEM-faithful).

use super::Scale;
use egm_core::{MonitorSpec, StrategySpec};
use egm_metrics::{table, RunReport, Table};

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Strategy label.
    pub strategy: String,
    /// Whether suppression was enabled.
    pub suppression: bool,
    /// The run report.
    pub report: RunReport,
}

/// Runs eager, ranked and combined with suppression off/on.
pub fn run(scale: &Scale) -> Vec<AblationRow> {
    let model = super::shared_model(scale);
    let strategies = [
        StrategySpec::Flat { pi: 1.0 },
        StrategySpec::Ranked { best_fraction: 0.2 },
        StrategySpec::Combined {
            best_fraction: 0.2,
            rho: 20.0,
            u: 2,
            t0_ms: 20.0,
        },
    ];
    let mut meta: Vec<(String, bool)> = Vec::new();
    let mut scenarios = Vec::new();
    for strategy in strategies {
        for suppression in [false, true] {
            let mut scenario = super::base_scenario(scale)
                .with_strategy(strategy.clone())
                .with_monitor(MonitorSpec::OracleLatency);
            scenario.protocol.suppress_known = suppression;
            meta.push((strategy.label(), suppression));
            scenarios.push(scenario);
        }
    }
    let outcomes = crate::runner::run_sweep(scenarios, Some(model));
    meta.into_iter()
        .zip(outcomes.into_iter().map(|o| o.report))
        .map(|((strategy, suppression), report)| AblationRow {
            strategy,
            suppression,
            report,
        })
        .collect()
}

/// Renders the ablation table.
pub fn render(rows: &[AblationRow]) -> String {
    let mut t = Table::new([
        "strategy",
        "suppression",
        "payload/msg",
        "low payload/msg",
        "best payload/msg",
        "latency (ms)",
        "delivered (%)",
    ]);
    for r in rows {
        t.row([
            r.strategy.clone(),
            if r.suppression {
                "on".into()
            } else {
                "off".to_string()
            },
            table::num(r.report.payloads_per_delivery, 2),
            r.report
                .payloads_per_delivery_low
                .map_or("-".into(), |v| table::num(v, 2)),
            r.report
                .payloads_per_delivery_best
                .map_or("-".into(), |v| table::num(v, 2)),
            table::num(r.report.mean_latency_ms(), 0),
            table::pct(r.report.mean_delivery_fraction),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::{render, run, Scale};

    #[test]
    fn suppression_cuts_spoke_cost_without_hurting_delivery() {
        let scale = Scale {
            nodes: 30,
            messages: 40,
            seed: 29,
        };
        let rows = run(&scale);
        assert_eq!(rows.len(), 6);
        // Ranked rows: suppression must reduce the low-node contribution
        // and keep delivery intact.
        let ranked_off = rows
            .iter()
            .find(|r| r.strategy.contains("ranked") && !r.suppression);
        let ranked_on = rows
            .iter()
            .find(|r| r.strategy.contains("ranked") && r.suppression);
        let (off, on) = (ranked_off.expect("row"), ranked_on.expect("row"));
        let low_off = off.report.payloads_per_delivery_low.expect("group");
        let low_on = on.report.payloads_per_delivery_low.expect("group");
        assert!(
            low_on < low_off,
            "suppression must cut spoke cost: {low_on} vs {low_off}"
        );
        assert!(on.report.mean_delivery_fraction > 0.99, "{}", on.report);
        let text = render(&rows);
        assert!(text.contains("suppression"));
    }
}
