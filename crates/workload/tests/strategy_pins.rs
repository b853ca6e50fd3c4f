//! Decision-for-decision pins of every transmission strategy.
//!
//! Each case runs `Scenario::smoke_test()` (24 nodes, 30 messages) under
//! one `StrategySpec` and asserts the exact event count, payload count
//! and mean-latency bits. A strategy that takes one decision
//! differently, or draws from the node RNG in a different order, moves
//! at least one of the three. The end-to-end tests only check trade-off
//! shapes; these constants pin the outcomes themselves.

use egm_core::StrategySpec;
use egm_workload::{NoiseConfig, Scenario};

/// `(label, scenario, events, total_payloads, mean_latency_ms bits)`.
fn cases() -> Vec<(&'static str, Scenario, u64, u64, u64)> {
    let smoke = |spec: StrategySpec| Scenario::smoke_test().with_strategy(spec);
    let radius = StrategySpec::Radius {
        rho: 50.0,
        t0_ms: 40.0,
    };
    let ranked = StrategySpec::Ranked {
        best_fraction: 0.25,
    };
    let noise = Some(NoiseConfig { o: 0.5, c: 0.3 });
    vec![
        (
            "flat",
            smoke(StrategySpec::Flat { pi: 0.5 }),
            5337,
            2554,
            0x405f0e1e6ddb1cbb,
        ),
        (
            "ttl",
            smoke(StrategySpec::Ttl { u: 2 }),
            5970,
            720,
            0x4064e51c3a0e6cd3,
        ),
        (
            "radius",
            smoke(radius.clone()),
            4623,
            2453,
            0x405cec6f17936886,
        ),
        (
            "ranked",
            smoke(ranked.clone()),
            5241,
            2268,
            0x406045fb5b9d265d,
        ),
        (
            "adaptive",
            smoke(StrategySpec::Adaptive {
                initial_pi: 0.5,
                target_duplicate_ratio: 0.3,
            }),
            5985,
            1550,
            0x40680813e2e99733,
        ),
        (
            "combined",
            smoke(StrategySpec::Combined {
                best_fraction: 0.25,
                rho: 45.0,
                u: 2,
                t0_ms: 40.0,
            }),
            4554,
            2675,
            0x4058a8edc526e66d,
        ),
        (
            "ranked+noise",
            smoke(ranked).with_noise(noise),
            5529,
            2073,
            0x4063121a0f5ff58f,
        ),
        (
            "radius+noise",
            smoke(radius).with_noise(noise),
            4959,
            2053,
            0x406269e5d23b4d95,
        ),
    ]
}

#[test]
fn every_strategy_decision_is_pinned() {
    for (label, scenario, events, payloads, latency_bits) in cases() {
        let out = scenario.run();
        assert_eq!(out.events, events, "{label}: events");
        assert_eq!(out.report.total_payloads, payloads, "{label}: payloads");
        assert_eq!(
            out.report.mean_latency_ms().to_bits(),
            latency_bits,
            "{label}: mean latency bits"
        );
    }
}
