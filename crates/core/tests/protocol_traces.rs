//! Protocol-level trace tests: verify the Fig. 2 / Fig. 3 message flows
//! end-to-end on tiny deterministic networks.

use egm_core::monitor::{Monitor, NullMonitor};
use egm_core::{EgmNode, ProtocolConfig, StrategySpec};
use egm_membership::{PartialView, ViewConfig};
use egm_simnet::{DeliveryRecord, NodeId, Sim, SimConfig, SimDuration, SimTime};

/// The deliveries logged at node `i`, in delivery order.
fn deliveries_at(sim: &Sim<EgmNode>, i: usize) -> Vec<DeliveryRecord> {
    sim.deliveries()
        .filter(|d| d.node() == NodeId(i))
        .copied()
        .collect()
}

/// Builds an n-node chainable simulation with explicit views.
fn build(
    n: usize,
    spec: StrategySpec,
    views: Vec<Vec<usize>>,
    config: ProtocolConfig,
    delay_ms: f64,
) -> Sim<EgmNode> {
    let nodes: Vec<EgmNode> = views
        .into_iter()
        .enumerate()
        .map(|(i, peers)| {
            let mut view = PartialView::new(NodeId(i), config.view);
            for p in peers {
                view.insert(NodeId(p));
            }
            view.set_static(true);
            EgmNode::new(
                NodeId(i),
                config.clone(),
                view,
                spec.build(None),
                Monitor::Null(NullMonitor),
            )
        })
        .collect();
    Sim::new(SimConfig::uniform(n, delay_ms), 5, nodes)
}

fn base_config() -> ProtocolConfig {
    ProtocolConfig {
        fanout: 1,
        rounds: 4,
        view: ViewConfig {
            capacity: 2,
            shuffle_size: 1,
        },
        retry_interval: SimDuration::from_ms(100.0),
        shuffle_interval: None,
        ..ProtocolConfig::default()
    }
}

/// Eager chain: 0 → 1 → 2 → 3, one hop of 10 ms each. The MSG flow of
/// Fig. 2/Fig. 3 with `Eager?` always true.
#[test]
fn eager_chain_delivers_hop_by_hop() {
    let views = vec![vec![1], vec![2], vec![3], vec![2]];
    let mut sim = build(
        4,
        StrategySpec::Flat { pi: 1.0 },
        views,
        base_config(),
        10.0,
    );
    sim.schedule_command(SimTime::from_ms(0.0), NodeId(0), 0);
    sim.run_for(SimDuration::from_ms(500.0));
    for (i, expect_ms) in [(0usize, 0.0), (1, 10.0), (2, 20.0), (3, 30.0)] {
        let d = deliveries_at(&sim, i);
        assert_eq!(d.len(), 1, "node {i} must deliver once");
        assert_eq!(d[0].time, SimTime::from_ms(expect_ms), "node {i}");
        assert_eq!(d[0].round, i as u32);
    }
}

/// Lazy chain: each hop becomes IHAVE (10ms) + IWANT (10ms) + MSG (10ms),
/// i.e. 30ms per hop instead of 10 — the paper's "additional round-trip".
#[test]
fn lazy_chain_pays_one_round_trip_per_hop() {
    let views = vec![vec![1], vec![2], vec![0], vec![0]];
    let mut sim = build(
        4,
        StrategySpec::Flat { pi: 0.0 },
        views,
        base_config(),
        10.0,
    );
    sim.schedule_command(SimTime::from_ms(0.0), NodeId(0), 0);
    sim.run_for(SimDuration::from_ms(1000.0));
    let d1 = deliveries_at(&sim, 1);
    assert_eq!(d1.len(), 1);
    assert_eq!(
        d1[0].time,
        SimTime::from_ms(30.0),
        "IHAVE+IWANT+MSG = 3 one-way delays"
    );
    let d2 = deliveries_at(&sim, 2);
    assert_eq!(d2.len(), 1);
    assert_eq!(d2[0].time, SimTime::from_ms(60.0));
}

/// Duplicate suppression: two eager senders targeting the same node yield
/// exactly one delivery and one duplicate tally.
#[test]
fn duplicates_are_absorbed_by_the_scheduler() {
    // 0 and 1 both know only 2; both multicast the relay of the same
    // message is impossible here, so instead node 2 receives two distinct
    // messages — use a diamond: 0 → {1, 2} → 3.
    let config = ProtocolConfig {
        fanout: 2,
        ..base_config()
    };
    let views = vec![vec![1, 2], vec![3, 0], vec![3, 0], vec![0, 1]];
    let mut sim = build(4, StrategySpec::Flat { pi: 1.0 }, views, config, 10.0);
    sim.schedule_command(SimTime::from_ms(0.0), NodeId(0), 0);
    sim.run_for(SimDuration::from_ms(500.0));
    let d3 = deliveries_at(&sim, 3);
    assert_eq!(d3.len(), 1, "exactly one delivery despite two eager paths");
    assert_eq!(
        sim.node(NodeId(3)).scheduler_stats().duplicate_payloads,
        1,
        "the second copy is counted as a duplicate"
    );
}

/// Lost IWANT replies are recovered by the periodic retry (the `T`
/// parameter of §5.2).
#[test]
fn retries_recover_from_total_first_loss() {
    // With 60% loss the first IHAVE/IWANT/MSG exchange often fails;
    // retries every 100ms must still deliver eventually.
    let views = vec![vec![1], vec![0]];
    let nodes: Vec<EgmNode> = views
        .into_iter()
        .enumerate()
        .map(|(i, peers)| {
            let config = base_config();
            let mut view = PartialView::new(NodeId(i), config.view);
            for p in peers {
                view.insert(NodeId(p));
            }
            view.set_static(true);
            EgmNode::new(
                NodeId(i),
                config,
                view,
                StrategySpec::Flat { pi: 0.0 }.build(None),
                Monitor::Null(NullMonitor),
            )
        })
        .collect();
    let mut sim = Sim::new(SimConfig::uniform(2, 10.0).with_loss(0.4), 11, nodes);
    sim.schedule_command(SimTime::from_ms(0.0), NodeId(0), 0);
    sim.run_for(SimDuration::from_ms(20_000.0));
    assert_eq!(
        deliveries_at(&sim, 1).len(),
        1,
        "retries must eventually get the payload through"
    );
    assert!(
        sim.node(NodeId(1)).scheduler_stats().requests_sent >= 1,
        "at least one IWANT was needed"
    );
}

/// The gossip layer stops relaying at round `t` even under eager push.
#[test]
fn relay_stops_at_round_limit() {
    // Chain of 6 nodes but rounds = 4: nodes 5+ never hear the message.
    let config = ProtocolConfig {
        rounds: 4,
        ..base_config()
    };
    let views = vec![vec![1], vec![2], vec![3], vec![4], vec![5], vec![0]];
    let mut sim = build(6, StrategySpec::Flat { pi: 1.0 }, views, config, 10.0);
    sim.schedule_command(SimTime::from_ms(0.0), NodeId(0), 0);
    sim.run_for(SimDuration::from_ms(1000.0));
    assert_eq!(deliveries_at(&sim, 4).len(), 1, "round 4 still delivers");
    assert_eq!(
        deliveries_at(&sim, 5).len(),
        0,
        "round 4 arrivals do not relay further (r < t fails)"
    );
}
