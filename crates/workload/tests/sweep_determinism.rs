//! Regression tests for the parallel sweep runner: results must be
//! byte-identical to sequential execution, because every scenario forks
//! its whole RNG tree from its own seed and owns all mutable state.

use egm_core::StrategySpec;
use egm_workload::runner::run_sweep;
use egm_workload::Scenario;

/// A small figure-style grid: a π sweep plus a ranked point, each at two
/// seeds (the ISSUE's "figure sweep ... for >= 2 seeds").
fn grid() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for seed in [11u64, 12] {
        for pi in [0.0, 0.5, 1.0] {
            scenarios.push(
                Scenario::smoke_test()
                    .with_strategy(StrategySpec::Flat { pi })
                    .with_seed(seed),
            );
        }
        scenarios.push(
            Scenario::smoke_test()
                .with_strategy(StrategySpec::Ranked {
                    best_fraction: 0.25,
                })
                .with_seed(seed),
        );
    }
    scenarios
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let scenarios = grid();
    let sequential: Vec<_> = scenarios.iter().map(Scenario::run).collect();
    let parallel = run_sweep(scenarios, None);

    assert_eq!(sequential.len(), parallel.len());
    for (seq, par) in sequential.iter().zip(&parallel) {
        assert_eq!(seq.first_difference(par), None);
    }
}

#[test]
fn sweep_results_arrive_in_input_order() {
    // Seeds map 1:1 onto reports, in submission order, regardless of
    // which worker finishes first.
    let seeds = [3u64, 1, 4, 1, 5, 9, 2, 6];
    let scenarios: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            Scenario::smoke_test()
                .with_strategy(StrategySpec::Ttl { u: 2 })
                .with_seed(seed)
        })
        .collect();
    let outcomes = run_sweep(scenarios, None);
    assert_eq!(outcomes.len(), seeds.len());
    for (&seed, outcome) in seeds.iter().zip(&outcomes) {
        let direct = Scenario::smoke_test()
            .with_strategy(StrategySpec::Ttl { u: 2 })
            .with_seed(seed)
            .run()
            .report;
        assert_eq!(
            direct, outcome.report,
            "report for seed {seed} out of place"
        );
    }
}

#[test]
fn sweep_handles_empty_and_single_batches() {
    assert!(run_sweep(Vec::new(), None).is_empty());
    let one = run_sweep(
        vec![Scenario::smoke_test().with_strategy(StrategySpec::Flat { pi: 1.0 })],
        None,
    );
    assert_eq!(one.len(), 1);
    assert!(one[0].report.mean_delivery_fraction > 0.99);
}
