//! Wall-clock speedup of the parallel sweep runner.
//!
//! This lives in its own integration-test binary so no sibling tests
//! compete for cores while it measures. On machines with fewer than four
//! cores the assertion is skipped (the measurement is still printed);
//! determinism is covered separately by `sweep_determinism.rs`.

use egm_core::StrategySpec;
use egm_workload::experiments::Scale;
use egm_workload::runner::{prepare, run_prepared, run_sweep};
use std::time::Instant;

#[test]
fn parallel_sweep_beats_sequential_on_multicore() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // A Fig. 5-style π sweep at quick scale: 8 points over one shared
    // model, each run heavy enough (~tens of ms) to dwarf thread setup.
    let scale = Scale {
        nodes: 50,
        messages: 60,
        seed: 42,
    };
    let model = egm_workload::experiments::shared_model(&scale);
    let scenarios: Vec<_> = [0.0f64, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|&pi| {
            egm_workload::experiments::base_scenario(&scale)
                .with_strategy(StrategySpec::Flat { pi })
        })
        .collect();

    // Sequential reference: the same scenarios through the same code
    // path, capped to one worker.
    let seq_start = Instant::now();
    let sequential: Vec<_> = scenarios
        .iter()
        .map(|s| run_prepared(s, &prepare(s, Some(model.clone()))).report)
        .collect();
    let seq_ms = seq_start.elapsed().as_secs_f64() * 1000.0;

    let par_start = Instant::now();
    let parallel = run_sweep(scenarios, Some(model));
    let par_ms = par_start.elapsed().as_secs_f64() * 1000.0;

    let speedup = seq_ms / par_ms;
    println!(
        "sweep of {n} runs: sequential {seq_ms:.0} ms, parallel {par_ms:.0} ms \
         ({speedup:.2}x on {cores} cores)",
        n = parallel.len()
    );

    // Identical results regardless of timing.
    for (seq, par) in sequential.iter().zip(&parallel) {
        assert_eq!(seq, &par.report, "parallel report diverged");
    }

    // Timing assertions are inherently environment-sensitive; on shared
    // CI runners CPU steal can sink an otherwise-healthy ratio, so the
    // strict bound can be opted out with EGM_PERF_ASSERT=0 (CI does).
    let assert_enabled = std::env::var("EGM_PERF_ASSERT").map_or(true, |v| v != "0");
    if cores >= 4 && assert_enabled {
        assert!(
            speedup >= 2.0,
            "expected >= 2x speedup on {cores} cores, measured {speedup:.2}x"
        );
    } else {
        println!(
            "skipping speedup assertion (cores={cores}, EGM_PERF_ASSERT enabled={assert_enabled})"
        );
    }
}
