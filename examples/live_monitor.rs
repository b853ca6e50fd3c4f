//! Deployable monitoring: run the Radius strategy on the *runtime*
//! ping-based performance monitor instead of the model-file oracle, and
//! compare. The paper evaluates with oracles to isolate strategy quality
//! (§4.3) and argues real deployments can reuse TCP RTT estimates; this
//! example shows the protocol working end-to-end with measured RTTs.
//!
//! ```sh
//! cargo run --release --example live_monitor
//! ```

use egm_core::{MonitorSpec, StrategySpec};
use egm_simnet::SimDuration;
use egm_workload::experiments::{base_scenario, shared_model, Scale};
use egm_workload::runner::{prepare, run_prepared};

fn main() {
    let scale = Scale::from_env();
    let model = shared_model(&scale);
    println!(
        "Radius strategy, oracle vs runtime monitor, {} nodes × {} messages\n",
        scale.nodes, scale.messages
    );

    let strategy = StrategySpec::Radius {
        rho: 25.0,
        t0_ms: 25.0,
    };

    let oracle_scenario = base_scenario(&scale)
        .with_strategy(strategy.clone())
        .with_monitor(MonitorSpec::OracleLatency);
    let oracle = run_prepared(
        &oracle_scenario,
        &prepare(&oracle_scenario, Some(model.clone())),
    )
    .report;

    // Runtime monitor: nodes ping 3 view peers every 250ms; the EWMA of
    // measured RTT/2 replaces the oracle. Until a peer is measured its
    // metric is infinite, i.e. the node fails closed to lazy push.
    let mut runtime_scenario = base_scenario(&scale)
        .with_strategy(strategy)
        .with_monitor(MonitorSpec::Runtime);
    runtime_scenario.protocol.ping_interval = Some(SimDuration::from_ms(250.0));
    runtime_scenario.warmup_ms = 4000.0; // give the monitor time to learn
    let runtime = run_prepared(&runtime_scenario, &prepare(&runtime_scenario, Some(model))).report;

    println!("oracle : {oracle}");
    println!("runtime: {runtime}");
    println!(
        "\nlatency penalty of measured (vs oracle) knowledge: {:+.0}ms; \
         structure survives: top-5% share {:.1}% vs {:.1}%",
        runtime.mean_latency_ms() - oracle.mean_latency_ms(),
        runtime.top5_link_share * 100.0,
        oracle.top5_link_share * 100.0,
    );
}
