//! Extension: resilience under scheduled fault scenarios.
//!
//! The paper's §6.3 kills a random fraction of nodes once, at the end of
//! warm-up. Real deployments fail in structured ways: a whole stub
//! domain drops (access-ISP outage), transit links degrade, crowds of
//! nodes join at once, slow nodes lag. This experiment sweeps the
//! [`FaultScenarioKind`] library against increasing churn rates — with
//! online re-ranking active ([`RerankPlan`]), so hubs re-rank while the
//! faults are live — and records, per (scenario, churn) cell:
//!
//! * **delivery ratio** — mean delivery fraction over eligible nodes;
//! * **hub stability** — overlap between the initial hub set and the
//!   set after the last re-rank tick (how much the ranking churned);
//! * **p99 latency** — steady-state publish→delivery tail.
//!
//! Every cell is deterministic in the seed and byte-identical across
//! shard widths (the `fault_determinism` suite and the
//! `fault_resilience` bench bin pin this).

use super::scale::ScalePreset;
use crate::faults::{ChurnPlan, FaultScenarioKind, RerankPlan};
use crate::scenario::Scenario;
use egm_core::BestSet;
use egm_metrics::{table, RunReport, Table};
use egm_topology::RoutedModel;
use std::sync::Arc;

/// One (scenario, churn) cell of the resilience grid.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// Fault scenario label.
    pub scenario: String,
    /// Churn level label (`"none"`, `"light"`, `"heavy"`).
    pub churn: String,
    /// Mean delivery fraction over eligible nodes.
    pub delivery: f64,
    /// Overlap between the initial hub set and the final re-ranked set.
    pub hub_stability: f64,
    /// p99 publish→delivery latency (ms) over the steady-state window.
    pub p99_ms: f64,
    /// The cell's full report.
    pub report: RunReport,
}

/// The churn axis: no churn, one transient outage every 2 s, and an
/// overlapping outage every 500 ms (down 3× the period — exactly the
/// regime where the victim re-draw must reject still-down nodes).
pub fn churn_levels() -> [(&'static str, Option<ChurnPlan>); 3] {
    [
        ("none", None),
        ("light", Some(ChurnPlan::new(2_000.0, 1_000.0))),
        ("heavy", Some(ChurnPlan::new(500.0, 1_500.0))),
    ]
}

/// The re-rank cadence every cell runs: two ticks inside the preset's
/// 3 s warm-up, so the second ranking sees the faults that strike at
/// half warm-up ([`FaultScenarioKind::schedule`]).
pub fn rerank_plan() -> RerankPlan {
    RerankPlan::new(1_000.0, 2)
}

/// The grid's harshest cell — domain outage × heavy churn, with online
/// re-ranking — and the model its fault trace was laid out on: the cell
/// the byte-identity checks re-run at every shard width.
pub fn harshest_cell(
    preset: ScalePreset,
    messages: usize,
    seed: u64,
) -> (Scenario, Arc<RoutedModel>) {
    let base = preset
        .scenario(messages, seed)
        .with_rerank(Some(rerank_plan()));
    let model = Arc::new(base.build_model());
    let traffic_ms = messages as f64 * base.mean_interval_ms + base.drain_ms;
    let schedule =
        FaultScenarioKind::DomainOutage.schedule(&model, base.warmup_ms, traffic_ms, seed);
    let (_, heavy) = churn_levels()[2];
    let cell = base.with_fault_schedule(Some(schedule)).with_churn(heavy);
    (cell, model)
}

/// Runs the full (scenario × churn) grid at a scale preset through the
/// parallel sweep runner, sharing one topology and one prepared setup
/// across all cells. Rows come back scenario-major, churn-minor, in
/// [`FaultScenarioKind::all`] / [`churn_levels`] order.
///
/// # Panics
///
/// Panics if `messages == 0`.
pub fn run_at_preset(preset: ScalePreset, messages: usize, seed: u64) -> Vec<ResilienceRow> {
    let base = preset
        .scenario(messages, seed)
        .with_rerank(Some(rerank_plan()));
    let n = base.node_count();
    let model = Arc::new(base.build_model());
    let traffic_ms = messages as f64 * base.mean_interval_ms + base.drain_ms;

    let mut meta: Vec<(String, String)> = Vec::new();
    let mut scenarios = Vec::new();
    for kind in FaultScenarioKind::all() {
        let schedule = kind.schedule(&model, base.warmup_ms, traffic_ms, seed);
        for (churn_label, churn) in churn_levels() {
            meta.push((kind.label().to_string(), churn_label.to_string()));
            scenarios.push(
                base.clone()
                    .with_fault_schedule(Some(schedule.clone()))
                    .with_churn(churn),
            );
        }
    }
    let outcomes = crate::runner::run_sweep(scenarios, Some(model));

    meta.into_iter()
        .zip(outcomes)
        .map(|((scenario, churn), outcome)| {
            let initial = BestSet::from_ids(n, &outcome.best_ids);
            let hub_stability = match &outcome.reranked_best_ids {
                Some(ids) => BestSet::from_ids(n, ids).overlap(&initial),
                None => 1.0,
            };
            ResilienceRow {
                scenario,
                churn,
                delivery: outcome.report.mean_delivery_fraction,
                hub_stability,
                p99_ms: outcome.latency.p99_ms(),
                report: outcome.report,
            }
        })
        .collect()
}

/// Renders the grid as a text table.
pub fn render(rows: &[ResilienceRow]) -> String {
    let mut t = Table::new([
        "scenario",
        "churn",
        "delivery (%)",
        "hub stability (%)",
        "p99 (ms)",
    ]);
    for r in rows {
        t.row([
            r.scenario.clone(),
            r.churn.clone(),
            table::pct(r.delivery),
            table::pct(r.hub_stability),
            table::num(r.p99_ms, 0),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::{
        churn_levels, harshest_cell, render, run_at_preset, FaultScenarioKind, ScalePreset,
    };

    #[test]
    fn one_k_grid_measures_every_cell() {
        let rows = run_at_preset(ScalePreset::N1k, 2, 11);
        assert_eq!(
            rows.len(),
            FaultScenarioKind::all().len() * churn_levels().len()
        );
        // The baseline, churn-free cell is the reference: near-perfect
        // delivery.
        assert_eq!(rows[0].scenario, "baseline");
        assert_eq!(rows[0].churn, "none");
        assert!(rows[0].delivery > 0.9, "{}", rows[0].report);
        for r in &rows {
            assert!(
                (0.0..=1.0).contains(&r.delivery),
                "{} / {}: delivery {}",
                r.scenario,
                r.churn,
                r.delivery
            );
            assert!(
                (0.0..=1.0).contains(&r.hub_stability),
                "{} / {}: stability {}",
                r.scenario,
                r.churn,
                r.hub_stability
            );
            assert!(r.p99_ms >= 0.0);
            // Faults degrade but never break dissemination: even the
            // harshest cell keeps a majority of nodes covered.
            assert!(
                r.delivery > 0.5,
                "{} / {}: delivery collapsed to {}",
                r.scenario,
                r.churn,
                r.delivery
            );
        }
        let text = render(&rows);
        assert!(text.contains("hub stability"));
        assert!(text.contains("domain outage"));
    }

    #[test]
    fn representative_cell_is_byte_identical_across_shard_widths() {
        // One harsh cell — domain outage plus heavy churn plus online
        // re-ranking — across the sequential engine and W ∈ {1, 2, 4}.
        let (cell, model) = harshest_cell(ScalePreset::N1k, 2, 11);
        let setup = crate::runner::prepare(&cell, Some(model));
        let run =
            |w: usize| crate::runner::run_prepared(&cell.clone().with_shards(Some(w)), &setup);
        let seq = run(0);
        for w in [1usize, 2, 4] {
            assert_eq!(seq.first_difference(&run(w)), None, "W={w}");
        }
    }
}
