//! Extension: how good must the ranking be?
//!
//! The paper configures best nodes from global knowledge and shows via
//! noise injection (§6.5) that approximate rankings still work. Here we
//! close the loop with explicit decentralized estimators — sampled
//! centrality and the gossip-sorted ranking of the paper's reference
//! \[11\] run over the protocol's own view/monitor machinery — and measure
//! both the hub-choice overlap with the oracle and the end-to-end
//! protocol performance when running Ranked on the estimated set.
//!
//! Two entry points:
//!
//! * [`run`] — the figure-scale table (50–100 nodes): oracle, sampled
//!   estimators of decreasing quality, and a random baseline, all via
//!   [`Scenario::best_override`](crate::Scenario::best_override).
//! * [`run_at_preset`] — the scale-axis answer (1k/4k/10k): every
//!   [`RankSource`](egm_core::RankSource) through the real `rank_source` selection path,
//!   recording oracle-overlap, delivery-latency and relay-concentration
//!   deltas. This is the measurement that justified switching
//!   [`ScalePreset`] to the gossip-sorted source (overlap ≥ 0.8 at 10k).

use super::scale::ScalePreset;
use super::Scale;
use egm_core::{BestSet, StrategySpec};
use egm_metrics::{table, RunReport, Table};
use egm_rng::Rng;
use std::sync::Arc;

/// One ranking-quality measurement.
#[derive(Debug, Clone)]
pub struct RankRow {
    /// Estimator label.
    pub estimator: String,
    /// Fraction of estimated hubs that match the oracle's.
    pub overlap: f64,
    /// Report of the Ranked run using this best set.
    pub report: RunReport,
}

/// Runs Ranked under the oracle ranking, sampled estimators of decreasing
/// quality, and a random ranking.
pub fn run(scale: &Scale) -> Vec<RankRow> {
    let model = super::shared_model(scale);
    let oracle = BestSet::by_centrality(&model, 0.2);
    let mut rng = Rng::seed_from_u64(scale.seed ^ 0x4A4E);

    let mut sets: Vec<(String, BestSet)> = vec![("oracle".into(), oracle.clone())];
    for samples in [32usize, 8, 2] {
        let est = BestSet::by_sampled_centrality(&model, 0.2, samples, &mut rng);
        sets.push((format!("sampled k={samples}"), est));
    }
    // Chance baseline: a uniformly random 20% of nodes.
    let n = model.client_count();
    let random_ids: Vec<egm_simnet::NodeId> = egm_rng::sample::distinct_indices(&mut rng, n, n / 5)
        .into_iter()
        .map(egm_simnet::NodeId)
        .collect();
    sets.push(("random".into(), BestSet::from_ids(n, &random_ids)));

    let mut meta: Vec<(String, f64)> = Vec::new();
    let mut scenarios = Vec::new();
    for (estimator, set) in sets {
        meta.push((estimator, set.overlap(&oracle)));
        scenarios.push(
            super::base_scenario(scale)
                .with_strategy(StrategySpec::Ranked { best_fraction: 0.2 })
                .with_best_override(Some(set.shared())),
        );
    }
    let outcomes = crate::runner::run_sweep(scenarios, Some(model));
    meta.into_iter()
        .zip(outcomes.into_iter().map(|o| o.report))
        .map(|((estimator, overlap), report)| RankRow {
            estimator,
            overlap,
            report,
        })
        .collect()
}

/// Runs the Ranked preset scenario once per
/// [`RankSource`](egm_core::RankSource) — oracle,
/// sampled, and the gossip-sorted source the presets ship with — through
/// the *real* rank-source selection path (no override), and measures
/// each source's hub-choice overlap with the oracle plus the end-to-end
/// deltas (delivery latency, top-5 % relay concentration are in the
/// per-row [`RunReport`]).
///
/// The network model is built once and shared; every run is
/// deterministic in `seed`. At 10k nodes this takes a few tens of
/// seconds in release mode — it is the accuracy-characterization
/// experiment, not a unit test (the 1k variant runs as a smoke test).
///
/// # Panics
///
/// Panics if `messages == 0`.
pub fn run_at_preset(preset: ScalePreset, messages: usize, seed: u64) -> Vec<RankRow> {
    let sources = preset.rank_ab_sources();
    let base = preset.scenario(messages, seed);
    let n = base.node_count();
    let model = Arc::new(base.build_model());
    let scenarios: Vec<_> = sources
        .iter()
        .map(|&source| base.clone().with_rank_source(source))
        .collect();
    let outcomes = crate::runner::run_sweep(scenarios, Some(model));

    // Overlap is measured on the hub sets the runs actually used.
    let oracle_set = BestSet::from_ids(n, &outcomes[0].best_ids);
    sources
        .iter()
        .zip(outcomes)
        .map(|(source, outcome)| RankRow {
            estimator: source.label(),
            overlap: BestSet::from_ids(n, &outcome.best_ids).overlap(&oracle_set),
            report: outcome.report,
        })
        .collect()
}

/// Renders the table.
pub fn render(rows: &[RankRow]) -> String {
    let mut t = Table::new([
        "estimator",
        "hub overlap (%)",
        "latency (ms)",
        "payload/msg",
        "top5% share (%)",
    ]);
    for r in rows {
        t.row([
            r.estimator.clone(),
            table::pct(r.overlap),
            table::num(r.report.mean_latency_ms(), 0),
            table::num(r.report.payloads_per_delivery, 2),
            table::pct(r.report.top5_link_share),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::{render, run, run_at_preset, Scale, ScalePreset};

    #[test]
    fn gossip_ranking_overlaps_oracle_at_one_k() {
        // The scale-axis acceptance measurement at the CI-sized preset:
        // the gossip-sorted source the presets ship with must choose
        // ≥ 80 % of the oracle's hubs. (The 10k variant is the ignored
        // test below, run nightly.)
        let rows = run_at_preset(ScalePreset::N1k, 2, 11);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].estimator, "oracle");
        assert_eq!(rows[0].overlap, 1.0);
        let gossip = rows.last().expect("gossip row");
        assert!(
            gossip.overlap >= 0.8,
            "gossip overlap at 1k: {}",
            gossip.overlap
        );
        // Every source still delivers: ranking quality shifts the
        // latency/bandwidth tradeoff, not correctness.
        for r in &rows {
            assert!(
                r.report.mean_delivery_fraction > 0.9,
                "{}: {}",
                r.estimator,
                r.report
            );
        }
    }

    #[test]
    #[ignore = "10k-node release-mode characterization: cargo test --release -- --ignored"]
    fn gossip_ranking_overlaps_oracle_at_ten_k() {
        let rows = run_at_preset(ScalePreset::N10k, 2, 11);
        let gossip = rows.last().expect("gossip row");
        assert!(
            gossip.overlap >= 0.8,
            "gossip overlap at 10k: {}",
            gossip.overlap
        );
    }

    #[test]
    fn estimated_rankings_degrade_gracefully() {
        let scale = Scale {
            nodes: 30,
            messages: 30,
            seed: 31,
        };
        let rows = run(&scale);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].overlap, 1.0, "oracle overlaps itself");
        // Denser sampling beats sparser sampling at matching the oracle.
        assert!(rows[1].overlap >= rows[3].overlap);
        // All configurations keep delivering reliably; ranking quality
        // only shifts the tradeoff (the paper's robustness claim).
        for r in &rows {
            assert!(
                r.report.mean_delivery_fraction > 0.99,
                "{}: {}",
                r.estimator,
                r.report
            );
        }
        let text = render(&rows);
        assert!(text.contains("hub overlap"));
    }
}
