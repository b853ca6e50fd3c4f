//! The protocol node: gossip layer + payload scheduler + strategy +
//! monitor + membership, wired to the simulator.
//!
//! This is the composition of Fig. 1: the application multicasts (injected
//! by the harness as simulator commands), the gossip protocol relays, the
//! Payload Scheduler turns `L-Send`s into `MSG`/`IHAVE`/`IWANT` exchanges
//! under the node's [`Strategy`], and the Performance Monitor
//! (oracle or ping-based) feeds the strategy.

use crate::arena::{ArenaStats, MsgArena};
use crate::config::ProtocolConfig;
use crate::gossip::{GossipLayer, GossipStep};
use crate::monitor::Monitor;
use crate::msg::{EgmMessage, Payload};
use crate::scheduler::{PayloadScheduler, RequestAction, SchedulerStats};
use crate::strategy::{Strategy, StrategyCtx};
use egm_membership::PartialView;
use egm_simnet::{Context, NodeId, Protocol, SimDuration, TimerTag};

const TAG_SHUFFLE: TimerTag = 0;
const TAG_PING: TimerTag = 1;

/// Request-timer tags have the top bit set and pack the message's arena
/// slot and generation, so a firing timer re-finds its message in O(1)
/// and a timer whose slot was recycled is recognized as stale — no
/// tag-to-message maps.
const REQUEST_TAG_FLAG: TimerTag = 1 << 63;

fn request_tag(slot: u32, generation: u32) -> TimerTag {
    REQUEST_TAG_FLAG | (u64::from(slot) << 32) | u64::from(generation)
}

fn decode_request_tag(tag: TimerTag) -> (u32, u32) {
    (((tag >> 32) & 0x7FFF_FFFF) as u32, tag as u32)
}

/// Number of peers probed per ping round of the runtime monitor.
const PING_FANOUT: usize = 3;

/// A full protocol node, implementing [`egm_simnet::Protocol`].
///
/// # Examples
///
/// Construction is usually done by `egm-workload`'s scenario runner; by
/// hand it looks like:
///
/// ```
/// use egm_core::{EgmNode, ProtocolConfig, StrategySpec};
/// use egm_core::monitor::{Monitor, NullMonitor};
/// use egm_membership::{PartialView, ViewConfig};
/// use egm_simnet::NodeId;
///
/// let config = ProtocolConfig::default().with_fanout(3);
/// let mut view = PartialView::new(NodeId(0), config.view);
/// view.insert(NodeId(1));
/// let strategy = StrategySpec::Flat { pi: 0.5 }.build(None);
/// let node = EgmNode::new(NodeId(0), config, view, strategy, Monitor::Null(NullMonitor));
/// assert_eq!(node.id(), NodeId(0));
/// ```
///
/// A node keeps no record of what it multicast or delivered: it logs both
/// through its [`Context`] (`log_multicast`, `log_delivery`), and the
/// engine holds the records ([`egm_simnet::Sim::multicasts`],
/// [`egm_simnet::Sim::deliveries`]).
#[derive(Debug)]
pub struct EgmNode {
    id: NodeId,
    config: ProtocolConfig,
    view: PartialView,
    gossip: GossipLayer,
    scheduler: PayloadScheduler,
    strategy: Strategy,
    monitor: Monitor,
    /// Arena holding all per-message state (known/received flags, payload
    /// cache, missing queue, holder lists, retry-timer handles) in dense
    /// generation-stamped slots — one hash probe per message event.
    msgs: MsgArena,
}

impl EgmNode {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ProtocolConfig::validate`]) or the view does not belong to `id`.
    pub fn new(
        id: NodeId,
        config: ProtocolConfig,
        view: PartialView,
        strategy: Strategy,
        monitor: Monitor,
    ) -> Self {
        config.validate();
        assert_eq!(view.owner(), id, "view owner must match the node id");
        EgmNode {
            id,
            gossip: GossipLayer::new(&config),
            scheduler: PayloadScheduler::new(&config),
            msgs: MsgArena::new(
                config.known_capacity,
                config.cache_capacity,
                config.suppress_known,
            ),
            config,
            view,
            strategy,
            monitor,
        }
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Scheduler counters.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Message-arena occupancy counters (retired slots, live slots, live
    /// high-water) — the node's steady-state working set.
    pub fn arena_stats(&self) -> ArenaStats {
        self.msgs.stats()
    }

    /// Run-end retirement sweep: frees every delivered message still
    /// awaiting its horizon, no matter how far in the virtual future that
    /// horizon lies. Messages published near the end of a long open-loop
    /// run would otherwise never see a [`MsgArena::retire_expired`] sweep
    /// and would sit unretired in the end-of-run accounting. Must only be
    /// called after the event loop has finished.
    pub fn sweep_retirements(&mut self) -> usize {
        self.msgs.retire_all()
    }

    /// The node's current partial view.
    pub fn view(&self) -> &PartialView {
        &self.view
    }

    /// Hands the node a freshly re-ranked best set (online re-ranking
    /// under churn); rank-free strategies ignore it. See
    /// [`Strategy::rebind_best`].
    pub fn rebind_best(&mut self, best: std::sync::Arc<crate::rank::BestSet>) {
        self.strategy.rebind_best(best);
    }

    /// The node's performance monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Delivers a gossip step to the application and pushes one `L-Send`
    /// per target through the payload scheduler.
    fn deliver_and_forward(
        &mut self,
        ctx: &mut Context<'_, EgmMessage>,
        slot: u32,
        step: GossipStep,
    ) {
        ctx.log_delivery(step.payload.seq, step.round);
        if let Some(horizon) = self.config.retire_after {
            self.msgs.schedule_retire(slot, ctx.now() + horizon);
        }
        for to in step.targets.iter() {
            let wire = {
                let mut sctx = StrategyCtx {
                    me: self.id,
                    rng: ctx.rng(),
                    monitor: &self.monitor,
                };
                self.scheduler.l_send(
                    &mut sctx,
                    &self.strategy,
                    &mut self.msgs,
                    slot,
                    step.id,
                    step.payload,
                    step.relay_round(),
                    to,
                )
            };
            if let Some(wire) = wire {
                ctx.send(to, wire);
            }
        }
    }

    /// Arms the request timer for a missing message as a cancellable
    /// timer, so the arrival of the payload can retire it before it pops.
    fn arm_request_timer(
        &mut self,
        ctx: &mut Context<'_, EgmMessage>,
        slot: u32,
        delay: SimDuration,
    ) {
        let tag = request_tag(slot, self.msgs.generation(slot));
        let token = ctx.set_cancellable_timer(delay, tag);
        self.msgs.set_timer(slot, token);
    }

    /// Cancels the pending retry timer for the message in `slot`, if any
    /// — called when the payload resolves so the timer never reaches the
    /// scheduler.
    fn cancel_request_timer(&mut self, ctx: &mut Context<'_, EgmMessage>, slot: u32) {
        if let Some(token) = self.msgs.take_timer(slot) {
            ctx.cancel_timer(token);
        }
    }
}

impl Protocol for EgmNode {
    type Msg = EgmMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, EgmMessage>) {
        // Initial ticks are staggered uniformly to avoid synchronizing
        // every node's shuffle/ping on the same instants.
        if let Some(interval) = self.config.shuffle_interval {
            let first = interval.mul_f64(ctx.rng().f64());
            ctx.set_timer(first, TAG_SHUFFLE);
        }
        if let Some(interval) = self.config.ping_interval {
            let first = interval.mul_f64(ctx.rng().f64());
            ctx.set_timer(first, TAG_PING);
        }
    }

    fn on_receive(&mut self, ctx: &mut Context<'_, EgmMessage>, from: NodeId, msg: EgmMessage) {
        // Free delivered messages whose horizon has passed before touching
        // the arena for this event; a no-op unless retirement is enabled.
        self.msgs.retire_expired(ctx.now());
        match msg {
            EgmMessage::Msg { id, payload, round } => {
                let slot = self.msgs.intern(id);
                self.msgs.note_holder(slot, from);
                match self.scheduler.on_msg(&mut self.msgs, slot, payload, round) {
                    Some((payload, round)) => {
                        // The payload resolves any pending retry timer for
                        // this id: cancel it instead of letting the dead
                        // event pop through the queue.
                        self.cancel_request_timer(ctx, slot);
                        self.strategy.on_payload();
                        if let Some(step) = self.gossip.on_l_receive(
                            ctx.rng(),
                            &self.view,
                            &mut self.msgs,
                            slot,
                            id,
                            payload,
                            round,
                        ) {
                            self.deliver_and_forward(ctx, slot, step);
                        }
                    }
                    None => self.strategy.on_duplicate(),
                }
            }
            EgmMessage::IHave { id } => {
                let slot = self.msgs.intern(id);
                self.msgs.note_holder(slot, from);
                if let Some(delay) =
                    self.scheduler
                        .on_ihave(&self.strategy, &mut self.msgs, slot, from)
                {
                    self.arm_request_timer(ctx, slot, delay);
                }
            }
            EgmMessage::IWant { id } => {
                if let Some(reply) = self.scheduler.on_iwant(&self.msgs, id) {
                    ctx.send(from, reply);
                }
            }
            EgmMessage::Shuffle(shuffle) => {
                if let Some((to, reply)) = self.view.handle_shuffle(ctx.rng(), from, shuffle) {
                    ctx.send(to, EgmMessage::Shuffle(reply));
                }
            }
            EgmMessage::Ping { sent_us } => {
                ctx.send(from, EgmMessage::Pong { sent_us });
            }
            EgmMessage::Pong { sent_us } => {
                let rtt_ms = ctx.now().as_micros().saturating_sub(sent_us) as f64 / 1000.0;
                if let Some(runtime) = self.monitor.runtime_mut() {
                    runtime.record_rtt(from, rtt_ms);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, EgmMessage>, tag: TimerTag) {
        self.msgs.retire_expired(ctx.now());
        match tag {
            TAG_SHUFFLE => {
                if let Some((to, msg)) = self.view.start_shuffle(ctx.rng()) {
                    ctx.send(to, EgmMessage::Shuffle(msg));
                }
                if let Some(interval) = self.config.shuffle_interval {
                    ctx.set_timer(interval, TAG_SHUFFLE);
                }
            }
            TAG_PING => {
                let now_us = ctx.now().as_micros();
                for to in self.view.sample(ctx.rng(), PING_FANOUT).iter() {
                    ctx.send(to, EgmMessage::Ping { sent_us: now_us });
                }
                if let Some(interval) = self.config.ping_interval {
                    ctx.set_timer(interval, TAG_PING);
                }
            }
            tag if tag & REQUEST_TAG_FLAG != 0 => {
                let (slot, generation) = decode_request_tag(tag);
                if !self.msgs.check_generation(slot, generation) {
                    return; // the message was evicted; the timer is stale
                }
                let action = {
                    let sctx = StrategyCtx {
                        me: self.id,
                        rng: ctx.rng(),
                        monitor: &self.monitor,
                    };
                    self.scheduler
                        .on_request_timer(&sctx, &self.strategy, &mut self.msgs, slot)
                };
                match action {
                    RequestAction::Resolved => {
                        self.msgs.take_timer(slot);
                    }
                    RequestAction::Request(to, retry) => {
                        let id = self.msgs.slot_id(slot);
                        ctx.send(to, EgmMessage::IWant { id });
                        let token = ctx.set_cancellable_timer(retry, tag);
                        self.msgs.set_timer(slot, token);
                    }
                }
            }
            _ => {}
        }
    }

    /// Multicasts sequence `seq` from this node — the application-level
    /// publish the harness injects as a command.
    fn on_command(&mut self, ctx: &mut Context<'_, EgmMessage>, seq: u64) {
        self.msgs.retire_expired(ctx.now());
        let payload = Payload {
            seq,
            bytes: self.config.payload_bytes,
        };
        ctx.log_multicast(seq);
        let (slot, step) = self
            .gossip
            .multicast(ctx.rng(), &self.view, &mut self.msgs, payload);
        self.deliver_and_forward(ctx, slot, step);
    }
}

#[cfg(test)]
mod tests {
    use super::EgmNode;
    use crate::config::ProtocolConfig;
    use crate::monitor::{Monitor, NullMonitor};
    use crate::strategy::StrategySpec;
    use egm_membership::{bootstrap_views, ViewConfig};
    use egm_rng::Rng;
    use egm_simnet::{NodeId, Sim, SimConfig, SimDuration, SimTime};

    /// Builds an n-node simulation with the given strategy for all nodes.
    fn build_sim(n: usize, spec: StrategySpec, seed: u64) -> Sim<EgmNode> {
        let config = ProtocolConfig {
            fanout: 6,
            rounds: 5,
            view: ViewConfig {
                capacity: 10,
                shuffle_size: 3,
            },
            retry_interval: SimDuration::from_ms(200.0),
            shuffle_interval: None,
            ..ProtocolConfig::default()
        };
        let mut rng = Rng::seed_from_u64(seed ^ 0xBEEF);
        let views = bootstrap_views(n, &config.view, &mut rng);
        let nodes = views
            .into_iter()
            .enumerate()
            .map(|(i, view)| {
                EgmNode::new(
                    NodeId(i),
                    config.clone(),
                    view,
                    spec.build(None),
                    Monitor::Null(NullMonitor),
                )
            })
            .collect();
        Sim::new(SimConfig::uniform(n, 20.0), seed, nodes)
    }

    /// Number of distinct nodes that delivered `seq`.
    fn delivery_count(sim: &Sim<EgmNode>, seq: u64) -> usize {
        let mut nodes: Vec<NodeId> = sim
            .deliveries()
            .filter(|d| d.seq == seq)
            .map(|d| d.node())
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes.len()
    }

    #[test]
    fn node_holds_no_record_buffers() {
        // The engine keeps the multicast and delivery logs, so a node
        // carries no record buffer (two more Vec headers: 904 B), and
        // publishes come only from harness commands, so it carries no
        // publish schedule either (an `Option` of one: 856 B).
        let size = std::mem::size_of::<EgmNode>();
        assert!(size <= 816, "EgmNode grew to {size} B");
    }

    #[test]
    fn eager_multicast_reaches_everyone_exactly_once() {
        let mut sim = build_sim(20, StrategySpec::Flat { pi: 1.0 }, 1);
        sim.schedule_command(SimTime::from_ms(10.0), NodeId(0), 0);
        sim.run_for(SimDuration::from_ms(2000.0));
        assert_eq!(
            delivery_count(&sim, 0),
            20,
            "atomic delivery under eager push"
        );
        for (id, _) in sim.nodes() {
            let count = sim
                .deliveries()
                .filter(|d| d.node() == id && d.seq == 0)
                .count();
            assert!(count <= 1, "no duplicate deliveries");
        }
    }

    #[test]
    fn pure_lazy_multicast_still_reaches_everyone() {
        let mut sim = build_sim(20, StrategySpec::Flat { pi: 0.0 }, 2);
        sim.schedule_command(SimTime::from_ms(10.0), NodeId(3), 7);
        sim.run_for(SimDuration::from_ms(5000.0));
        assert_eq!(delivery_count(&sim, 7), 20, "lazy push must still deliver");
        // Lazy push transmits close to the optimal 1 payload per delivery:
        // every non-source delivery needed exactly one MSG, and no
        // redundant payloads flow unless a request raced a transfer.
        let payloads = sim.traffic().total_payloads();
        assert!(
            payloads <= 25,
            "lazy payloads should be near 19, got {payloads}"
        );
    }

    #[test]
    fn eager_uses_far_more_payloads_than_lazy() {
        let mut eager_sim = build_sim(20, StrategySpec::Flat { pi: 1.0 }, 3);
        eager_sim.schedule_command(SimTime::from_ms(10.0), NodeId(0), 0);
        eager_sim.run_for(SimDuration::from_ms(3000.0));
        let mut lazy_sim = build_sim(20, StrategySpec::Flat { pi: 0.0 }, 3);
        lazy_sim.schedule_command(SimTime::from_ms(10.0), NodeId(0), 0);
        lazy_sim.run_for(SimDuration::from_ms(3000.0));
        assert!(
            eager_sim.traffic().total_payloads() > 2 * lazy_sim.traffic().total_payloads(),
            "eager {} vs lazy {}",
            eager_sim.traffic().total_payloads(),
            lazy_sim.traffic().total_payloads()
        );
    }

    #[test]
    fn lazy_delivery_is_slower_than_eager() {
        let latency = |pi: f64| {
            let mut sim = build_sim(15, StrategySpec::Flat { pi }, 4);
            sim.schedule_command(SimTime::from_ms(0.0), NodeId(0), 0);
            sim.run_for(SimDuration::from_ms(5000.0));
            let mut sum = 0.0;
            let mut count = 0;
            for d in sim.deliveries() {
                if d.node() != NodeId(0) {
                    sum += d.time.as_ms();
                    count += 1;
                }
            }
            sum / count as f64
        };
        let eager = latency(1.0);
        let lazy = latency(0.0);
        assert!(
            lazy > eager * 1.5,
            "lazy mean {lazy}ms should exceed eager mean {eager}ms by the extra round trips"
        );
    }

    #[test]
    fn multicast_records_are_kept() {
        let mut sim = build_sim(5, StrategySpec::Flat { pi: 1.0 }, 5);
        sim.schedule_command(SimTime::from_ms(10.0), NodeId(2), 0);
        sim.schedule_command(SimTime::from_ms(20.0), NodeId(2), 1);
        sim.run_for(SimDuration::from_ms(500.0));
        let multicasts: Vec<_> = sim.multicasts().filter(|m| m.node() == NodeId(2)).collect();
        assert_eq!(multicasts.len(), 2);
        assert_eq!(multicasts[0].seq, 0);
        assert_eq!(multicasts[1].time, SimTime::from_ms(20.0));
        // Source delivers its own message at round 0.
        assert!(sim
            .deliveries()
            .any(|d| d.node() == NodeId(2) && d.seq == 0 && d.round == 0));
    }

    #[test]
    fn scheduler_stats_reflect_strategy() {
        let mut sim = build_sim(10, StrategySpec::Flat { pi: 0.0 }, 6);
        sim.schedule_command(SimTime::from_ms(0.0), NodeId(0), 0);
        sim.run_for(SimDuration::from_ms(3000.0));
        let totals = sim.nodes().fold((0u64, 0u64), |acc, (_, n)| {
            let s = n.scheduler_stats();
            (acc.0 + s.eager_sends, acc.1 + s.lazy_advertisements)
        });
        assert_eq!(totals.0, 0, "pi=0 never sends eagerly");
        assert!(totals.1 > 0, "pi=0 advertises");
    }

    #[test]
    fn cancelled_request_timers_never_reach_the_scheduler() {
        // Pure lazy push is the request-timer-heavy regime: every delivery
        // is preceded by IHAVE → timer → IWANT, and every arriving payload
        // must retire its pending retry timer. With index-free
        // cancellation no resolved message may ever pop a stale request
        // timer into `PayloadScheduler::on_request_timer`.
        let mut sim = build_sim(20, StrategySpec::Flat { pi: 0.0 }, 8);
        for k in 0..5 {
            sim.schedule_command(
                SimTime::from_ms(10.0 + 40.0 * k as f64),
                NodeId(k),
                k as u64,
            );
        }
        sim.run_for(SimDuration::from_ms(8000.0));
        let resolved_pops: u64 = sim
            .nodes()
            .map(|(_, n)| n.scheduler_stats().resolved_timer_pops)
            .sum();
        assert_eq!(
            resolved_pops, 0,
            "a resolved message popped a request timer that should have been cancelled"
        );
        assert!(
            sim.timers_cancelled() > 0,
            "lazy runs must exercise cancellation"
        );
        assert_eq!(
            sim.stale_timer_drops(),
            sim.timers_cancelled(),
            "every cancelled timer is dropped at pop, never dispatched"
        );
        // And the protocol still works.
        for k in 0..5 {
            assert_eq!(delivery_count(&sim, k), 20, "message {k} delivered");
        }
    }

    #[test]
    fn ping_monitor_learns_rtt() {
        let config = ProtocolConfig {
            fanout: 2,
            rounds: 2,
            view: ViewConfig {
                capacity: 4,
                shuffle_size: 2,
            },
            shuffle_interval: None,
            ping_interval: Some(SimDuration::from_ms(100.0)),
            ..ProtocolConfig::default()
        };
        let mut rng = Rng::seed_from_u64(77);
        let views = bootstrap_views(4, &config.view, &mut rng);
        let nodes: Vec<EgmNode> = views
            .into_iter()
            .enumerate()
            .map(|(i, view)| {
                EgmNode::new(
                    NodeId(i),
                    config.clone(),
                    view,
                    StrategySpec::Flat { pi: 1.0 }.build(None),
                    Monitor::Runtime(crate::monitor::RuntimeMonitor::new()),
                )
            })
            .collect();
        let mut sim = Sim::new(SimConfig::uniform(4, 25.0), 8, nodes);
        sim.run_for(SimDuration::from_ms(1000.0));
        // After several ping rounds every node has RTT samples; one-way
        // metric should approximate the 25ms link delay.
        use crate::monitor::PerformanceMonitor;
        let node = sim.node(NodeId(0));
        let peer = node.view().peers().next().expect("bootstrapped view");
        let metric = node.monitor().metric(NodeId(0), peer);
        assert!(
            (metric - 25.0).abs() < 1.0,
            "learned one-way delay {metric}"
        );
    }

    #[test]
    fn shuffling_keeps_views_valid() {
        let config = ProtocolConfig {
            fanout: 3,
            rounds: 3,
            view: ViewConfig {
                capacity: 5,
                shuffle_size: 2,
            },
            shuffle_interval: Some(SimDuration::from_ms(50.0)),
            ..ProtocolConfig::default()
        };
        let mut rng = Rng::seed_from_u64(99);
        let views = bootstrap_views(10, &config.view, &mut rng);
        let nodes: Vec<EgmNode> = views
            .into_iter()
            .enumerate()
            .map(|(i, view)| {
                EgmNode::new(
                    NodeId(i),
                    config.clone(),
                    view,
                    StrategySpec::Flat { pi: 1.0 }.build(None),
                    Monitor::Null(NullMonitor),
                )
            })
            .collect();
        let mut sim = Sim::new(SimConfig::uniform(10, 10.0), 10, nodes);
        sim.run_for(SimDuration::from_ms(2000.0));
        for (id, node) in sim.nodes() {
            assert!(node.view().len() <= 5);
            assert!(!node.view().contains(id), "view must not contain the owner");
        }
        assert!(sim.traffic().total_messages() > 0, "shuffles exchanged");
    }
}
