//! Quickstart: run one epidemic multicast experiment and read the report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use egm_core::StrategySpec;
use egm_workload::Scenario;

fn main() {
    // The paper's configuration (§5.2–5.3): 100 nodes on a transit–stub
    // Internet model, 400 × 256-byte multicasts, gossip fanout 11.
    // We shrink it slightly so the quickstart finishes in seconds.
    let scenario = Scenario::paper_default().with_messages(100);

    println!(
        "running {} nodes × {} messages...\n",
        scenario.node_count(),
        scenario.messages
    );

    // Pure eager push: lowest latency, fanout-many redundant payloads.
    let eager = scenario
        .clone()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .run()
        .report;
    // Pure lazy push: ~1 payload per delivery, two extra hops of latency.
    let lazy = scenario
        .clone()
        .with_strategy(StrategySpec::Flat { pi: 0.0 })
        .run()
        .report;
    // The paper's contribution: let structure emerge by scheduling payload
    // through 20% hub nodes.
    let ranked = scenario
        .with_strategy(StrategySpec::Ranked { best_fraction: 0.2 })
        .run()
        .report;

    for report in [&eager, &lazy, &ranked] {
        println!("{report}");
    }

    println!(
        "\nranked keeps {:.0}% of eager's latency at {:.0}% of its payload traffic",
        100.0 * ranked.mean_latency_ms() / eager.mean_latency_ms(),
        100.0 * ranked.payloads_per_delivery / eager.payloads_per_delivery,
    );
}
