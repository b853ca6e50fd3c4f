//! Full-stack integration tests: topology → simulator → membership →
//! protocol → metrics, across strategies.

use egm_core::StrategySpec;
use egm_workload::Scenario;

/// Eager push delivers atomically to everyone and costs ≈fanout payloads
/// per delivery (§6.2: "each payload is approximately transmitted f times
/// for each delivery").
#[test]
fn eager_push_is_atomic_and_fanout_expensive() {
    let report = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .run()
        .report;
    assert!(report.mean_delivery_fraction > 0.999, "{report}");
    assert!(report.atomic_delivery_fraction > 0.95, "{report}");
    let fanout = 6.0; // smoke_test fanout
    assert!(
        (report.payloads_per_delivery - fanout).abs() < 1.5,
        "expected ≈{fanout} payloads/delivery, got {}",
        report.payloads_per_delivery
    );
}

/// Lazy push approaches the optimal single payload per delivery at the
/// cost of extra round trips (§6.2: latency 480 ms vs 227 ms on the
/// paper's testbed).
#[test]
fn lazy_push_is_near_optimal_but_slow() {
    let lazy = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 0.0 })
        .run()
        .report;
    let eager = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .run()
        .report;
    assert!(lazy.payloads_per_delivery < 1.25, "{lazy}");
    assert!(
        lazy.mean_delivery_fraction > 0.99,
        "lazy must still be reliable: {lazy}"
    );
    // The extra IHAVE/IWANT round trip roughly triples per-hop latency.
    assert!(
        lazy.mean_latency_ms() > 1.8 * eager.mean_latency_ms(),
        "lazy {} vs eager {}",
        lazy.mean_latency_ms(),
        eager.mean_latency_ms()
    );
}

/// Intermediate Flat probabilities interpolate the tradeoff monotonically
/// in traffic.
#[test]
fn flat_interpolates_the_tradeoff() {
    let mut last_payloads = 0.0;
    for pi in [0.0, 0.3, 0.7, 1.0] {
        let report = Scenario::smoke_test()
            .with_strategy(StrategySpec::Flat { pi })
            .run()
            .report;
        assert!(
            report.payloads_per_delivery >= last_payloads - 0.05,
            "traffic must grow with pi: {} after {last_payloads}",
            report.payloads_per_delivery
        );
        last_payloads = report.payloads_per_delivery;
    }
}

/// TTL achieves a better tradeoff than Flat at matched traffic — the
/// paper's headline for environment-free strategies (250 ms at 1.7
/// payloads vs Flat's interpolation).
#[test]
fn ttl_dominates_flat_at_matched_traffic() {
    let ttl = Scenario::smoke_test()
        .with_strategy(StrategySpec::Ttl { u: 2 })
        .run()
        .report;
    // Find a flat configuration with at least as much traffic.
    let flat = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat {
            pi: (ttl.payloads_per_delivery / 6.0).clamp(0.0, 1.0),
        })
        .run()
        .report;
    assert!(
        flat.payloads_per_delivery >= ttl.payloads_per_delivery * 0.85,
        "flat comparator must not be cheaper: flat {} vs ttl {}",
        flat.payloads_per_delivery,
        ttl.payloads_per_delivery
    );
    assert!(
        ttl.mean_latency_ms() < flat.mean_latency_ms(),
        "ttl {} must beat flat {} at matched traffic",
        ttl.mean_latency_ms(),
        flat.mean_latency_ms()
    );
}

/// Ranked concentrates payload on hubs while regular nodes stay cheap.
#[test]
fn ranked_splits_cost_between_hubs_and_spokes() {
    let report = Scenario::smoke_test()
        .with_strategy(StrategySpec::Ranked {
            best_fraction: 0.25,
        })
        .run()
        .report;
    let low = report.payloads_per_delivery_low.expect("low series");
    let best = report.payloads_per_delivery_best.expect("best series");
    assert!(best > 2.0 * low, "hubs {best} vs spokes {low}");
    assert!(report.mean_delivery_fraction > 0.99, "{report}");
}

/// The protocol works unchanged on a 200-node overlay (the paper also
/// validates low-bandwidth configurations at 200 virtual nodes, §5.3).
#[test]
fn two_hundred_nodes_still_work() {
    let mut scenario = Scenario::smoke_test().with_strategy(StrategySpec::Ttl { u: 2 });
    scenario.topology = egm_workload::TopologySource::Uniform {
        nodes: 200,
        lo_ms: 39.0,
        hi_ms: 60.0,
    };
    scenario.protocol.fanout = 11;
    scenario.protocol.rounds = 6;
    scenario.messages = 20;
    let report = scenario.run().report;
    assert_eq!(report.nodes, 200);
    assert!(report.mean_delivery_fraction > 0.99, "{report}");
}

/// Byte accounting matches §5.3 framing: 256-byte payloads + 24-byte
/// headers mean a payload packet is 280 bytes.
#[test]
fn byte_accounting_reflects_neem_framing() {
    let report = Scenario::smoke_test()
        .with_strategy(StrategySpec::Flat { pi: 1.0 })
        .run()
        .report;
    // All traffic in a pure-eager run is payload + shuffle control;
    // payload bytes alone are 280 × payload count.
    assert!(report.total_bytes >= report.total_payloads * 280);
    let payload_bytes = report.total_payloads * 280;
    let overhead = report.total_bytes - payload_bytes;
    assert!(
        overhead < report.total_bytes / 2,
        "control overhead should be a minority of bytes: {overhead} of {}",
        report.total_bytes
    );
}

/// Different seeds give different dynamics; the same seed reproduces the
/// run bit-for-bit (required for the paper's CI methodology to be
/// meaningful).
#[test]
fn determinism_and_seed_sensitivity() {
    let base = Scenario::smoke_test().with_strategy(StrategySpec::Ttl { u: 2 });
    let a = base.clone().run().report;
    let b = base.clone().run().report;
    assert_eq!(a, b);
    let c = base.with_seed(777).run().report;
    assert_ne!(a, c, "different seeds must differ somewhere");
}

/// Network loss delays but does not break dissemination: the scheduler's
/// periodic IWANT retries recover advertised-but-lost payloads.
#[test]
fn loss_is_recovered_by_retries() {
    let mut scenario = Scenario::smoke_test().with_strategy(StrategySpec::Flat { pi: 0.3 });
    scenario.loss = 0.05;
    scenario.drain_ms = 8000.0;
    let report = scenario.run().report;
    assert!(
        report.mean_delivery_fraction > 0.97,
        "5% loss should be absorbed: {report}"
    );
}

/// Jitter (reordering) does not break the protocol.
#[test]
fn jitter_is_tolerated() {
    let mut scenario = Scenario::smoke_test().with_strategy(StrategySpec::Ttl { u: 2 });
    scenario.jitter = 0.3;
    let report = scenario.run().report;
    assert!(report.mean_delivery_fraction > 0.99, "{report}");
}
