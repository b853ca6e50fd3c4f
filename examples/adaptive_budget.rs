//! Adaptive eagerness (extension): every node tunes its own eager
//! probability from local duplicate feedback, converging on a chosen
//! redundancy budget without any coordination — the "large scale adaptive
//! protocols" direction §8 of the paper points to.
//!
//! ```sh
//! cargo run --release --example adaptive_budget
//! ```

use egm_core::StrategySpec;
use egm_metrics::{table, Table};
use egm_workload::experiments::{base_scenario, shared_model, Scale};
use egm_workload::runner::{prepare, run_prepared};

fn main() {
    let scale = Scale::from_env();
    let model = shared_model(&scale);
    println!(
        "adaptive redundancy budgets, {} nodes × {} messages\n",
        scale.nodes, scale.messages
    );

    let mut t = Table::new(["strategy", "payload/msg", "latency (ms)", "delivered (%)"]);
    let mut run = |label: &str, spec: StrategySpec| {
        let scenario = base_scenario(&scale).with_strategy(spec);
        let report = run_prepared(&scenario, &prepare(&scenario, Some(model.clone()))).report;
        t.row([
            label.to_string(),
            table::num(report.payloads_per_delivery, 2),
            table::num(report.mean_latency_ms(), 0),
            table::pct(report.mean_delivery_fraction),
        ]);
    };
    run("flat pi=1 (eager bound)", StrategySpec::Flat { pi: 1.0 });
    for target in [0.8, 0.5, 0.2] {
        run(
            &format!("adaptive target={target}"),
            StrategySpec::Adaptive {
                initial_pi: 1.0,
                target_duplicate_ratio: target,
            },
        );
    }
    run("flat pi=0 (lazy bound)", StrategySpec::Flat { pi: 0.0 });
    println!("{}", t.render());
    println!(
        "tighter duplicate budgets trade latency for bandwidth along the same\n\
         frontier as Flat — but the operating point is discovered locally by\n\
         each node instead of being configured globally."
    );
}
