//! The simulation engine: event loop, protocol trait, and node context.
//!
//! # Event ordering: intrinsic `(time, origin, origin-seq)` keys
//!
//! Events dispatch in `(time, seq)` order, where `seq` packs the event's
//! *origin* (the node whose callback scheduled it, or the harness) and a
//! per-origin counter (`pack_seq`). The key is therefore an intrinsic
//! property of the schedule — a function of the originating node's own
//! event history, never of the global interleaving in which pushes
//! happened to execute. That is what lets a multi-shard [`Sim`] (see
//! [`crate::shard`]) process disjoint node sets concurrently and still
//! dispatch every event at exactly the position the one-shard run would:
//! every shard computes identical keys without coordination.
//!
//! For the same reason the network randomness (loss, jitter) is one
//! stream *per sender* rather than one global stream: a sender's draws
//! depend only on its own send order, which every shard count reproduces.

use crate::event::{EventKind, Fault, QueueImpl, QueueStats, Scheduled};
use crate::net::{Network, SimConfig};
use crate::progress::SharedSink;
use crate::record::{DeliveryRecord, DeliveryStream, MulticastRecord};
use crate::shard::{Partition, ShardStats, WindowLoop};
use crate::stats::Traffic;
use crate::time::{SimDuration, SimTime};
use crate::wire::Wire;
use crate::NodeId;
use egm_rng::Rng;
use std::sync::Arc;

/// Tag identifying a protocol timer; meaning is private to the node that
/// set it.
pub type TimerTag = u64;

/// Bits of [`Scheduled::seq`] carrying the per-origin counter; the top
/// bits carry the origin rank (0 = harness, node `i` = `i + 1`).
const LOCAL_SEQ_BITS: u32 = 40;

/// Maximum number of protocol nodes the event-key encoding supports
/// (24 bits of origin rank, minus the harness rank).
const MAX_NODES: usize = (1 << (64 - LOCAL_SEQ_BITS)) - 1;

// `Sim::with_shards` asserts the node count against `MAX_NODES`; this
// makes that assert also keep every node id below the traffic log's
// 2³¹ bound (bit 31 of a send record is its payload flag).
const _: () = assert!(MAX_NODES <= Traffic::MAX_NODES);

/// Packs an origin rank and its per-origin counter into the
/// [`Scheduled::seq`] tie-breaker. Keys are unique (each origin counts
/// its own pushes) and independent of execution interleaving, so every
/// shard count orders same-tick events identically.
#[inline]
fn pack_seq(origin_rank: u32, local: u64) -> u64 {
    debug_assert!((origin_rank as usize) <= MAX_NODES, "origin out of range");
    debug_assert!(local < (1 << LOCAL_SEQ_BITS), "per-origin counter overflow");
    ((origin_rank as u64) << LOCAL_SEQ_BITS) | local
}

/// Forks the deterministic RNG streams: one protocol stream per node in
/// id order, then one network (loss/jitter) stream per *sender* in id
/// order. A multi-shard run distributes these vectors by *global* node
/// id (whatever the partition shape), so a node's streams are identical
/// no matter which shard drives it.
fn fork_streams(seed: u64, n: usize) -> (Vec<Rng>, Vec<Rng>) {
    let mut root = Rng::seed_from_u64(seed);
    let node_rngs: Vec<Rng> = (0..n).map(|_| root.fork()).collect();
    let net_rngs: Vec<Rng> = (0..n).map(|_| root.fork()).collect();
    (node_rngs, net_rngs)
}

/// Handle to a cancellable timer armed with
/// [`Context::set_cancellable_timer`].
///
/// A token is a generation-stamped slot in the simulator's timer table.
/// Cancelling (or firing) a timer bumps its slot's generation, so the
/// already-queued heap event is recognized as stale at pop time and
/// dropped *before* dispatch — no heap surgery, no index maintenance, and
/// no dead events reaching the protocol. Tokens are single-use: once the
/// timer fires or is cancelled, the token is spent and further cancels
/// return `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken {
    slot: u32,
    generation: u32,
}

/// Generation table behind [`TimerToken`]: one generation counter per
/// slot, with freed slots recycled so the table size tracks the maximum
/// number of *concurrently* armed cancellable timers, not the total ever
/// armed.
#[derive(Debug, Default)]
struct TimerTable {
    generations: Vec<u32>,
    free: Vec<u32>,
    cancelled: u64,
    stale_drops: u64,
}

impl TimerTable {
    /// Allocates a slot (recycling freed ones) and returns its token.
    fn arm(&mut self) -> TimerToken {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.generations.push(0);
                (self.generations.len() - 1) as u32
            }
        };
        TimerToken {
            slot,
            generation: self.generations[slot as usize],
        }
    }

    /// Invalidates a live token. Returns `false` if it was already spent.
    fn cancel(&mut self, token: TimerToken) -> bool {
        let slot = &mut self.generations[token.slot as usize];
        if *slot != token.generation {
            return false;
        }
        *slot = slot.wrapping_add(1);
        self.free.push(token.slot);
        self.cancelled += 1;
        true
    }

    /// Consumes a token at pop time. Returns `true` when the event is
    /// live (and retires the slot), `false` when stale.
    fn fire(&mut self, token: TimerToken) -> bool {
        let slot = &mut self.generations[token.slot as usize];
        if *slot != token.generation {
            self.stale_drops += 1;
            return false;
        }
        *slot = slot.wrapping_add(1);
        self.free.push(token.slot);
        true
    }
}

/// Behaviour of a simulated protocol node.
///
/// All callbacks receive a [`Context`] giving access to the virtual clock,
/// the node's own id and RNG stream, message sending and timers. Nodes are
/// single-threaded and run to completion per event (the actor model), so no
/// synchronization is ever needed — including on several shards, which
/// never run two events of the same node concurrently.
///
/// # Examples
///
/// See the crate-level example.
pub trait Protocol {
    /// Message type exchanged by this protocol.
    type Msg: Wire;

    /// Called once at simulation start (time zero), in node-id order.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered to this node.
    fn on_receive(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: TimerTag) {
        let _ = (ctx, tag);
    }

    /// Called when the experiment harness injects a command (see
    /// [`Sim::schedule_command`]) — e.g. "multicast message number `value`
    /// now" from the traffic generator.
    fn on_command(&mut self, ctx: &mut Context<'_, Self::Msg>, value: u64) {
        let _ = (ctx, value);
    }
}

/// Cross-shard routing state carried by each core of a multi-shard run;
/// absent on one shard.
#[derive(Debug)]
pub(crate) struct ShardRoute<M> {
    /// The node partition, shared by all shards of one run.
    pub(crate) partition: Arc<Partition>,
    /// This shard's index.
    pub(crate) me: usize,
    /// Outgoing cross-shard deliveries, one lane per destination shard;
    /// moved into the destination's queue at the next window boundary.
    pub(crate) lanes: Vec<Vec<Scheduled<EventKind<M>>>>,
}

impl<M> ShardRoute<M> {
    /// Builds the routing state for shard `me` of `shard_count`.
    pub(crate) fn new(partition: Arc<Partition>, me: usize, shard_count: usize) -> Self {
        ShardRoute {
            partition,
            me,
            lanes: (0..shard_count).map(|_| Vec::new()).collect(),
        }
    }
}

/// Shared mutable simulation state of one shard (the whole run when
/// there is only one): everything but the protocol nodes themselves.
#[derive(Debug)]
pub(crate) struct SimCore<M> {
    pub(crate) queue: QueueImpl<EventKind<M>>,
    /// Per-owned-node push counters — the per-origin component of the
    /// event key — indexed by local node index.
    node_seqs: Vec<u64>,
    network: Network,
    pub(crate) traffic: Traffic,
    timers: TimerTable,
    node_rngs: Vec<Rng>,
    /// Per-sender network RNG streams (loss/jitter/egress draws).
    net_rngs: Vec<Rng>,
    /// Cross-shard routing; `None` on one shard.
    pub(crate) route: Option<ShardRoute<M>>,
    /// Multicasts reported by this shard's nodes, in dispatch order (so
    /// in time order).
    multicasts: Vec<MulticastRecord>,
    /// Deliveries reported by this shard's nodes, in dispatch order.
    deliveries: DeliveryStream,
}

impl<M: Wire> SimCore<M> {
    /// Builds the core for one shard. `node_rngs`/`net_rngs` are the
    /// owned entries of the [`fork_streams`] vectors, in ascending
    /// global-id order (local-index order).
    pub(crate) fn new(
        config: SimConfig,
        node_rngs: Vec<Rng>,
        net_rngs: Vec<Rng>,
        route: Option<ShardRoute<M>>,
    ) -> Self {
        let owned = node_rngs.len();
        // Every shard applies the configured threshold locally: the
        // spill rule ranks links by `(from, to)` alone, so capping per
        // shard and then merging equals capping the whole run (see
        // `Traffic::merge_shards`).
        let mut traffic = Traffic::with_spill_threshold(config.link_spill_threshold());
        // Pre-size the per-node payload table to the full node count so
        // the record hot path never regrows it (senders are globally
        // indexed on every shard).
        traffic.reserve_nodes(config.node_count());
        SimCore {
            // Pre-size the event queue: a gossip burst schedules
            // ~fanout events per node, so even modest runs reach
            // hundreds of in-flight events within the first round.
            queue: config.event_queue().build(1024),
            node_seqs: vec![0; owned],
            traffic,
            network: Network::new(config),
            timers: TimerTable::default(),
            node_rngs,
            net_rngs,
            route,
            multicasts: Vec::new(),
            deliveries: DeliveryStream::default(),
        }
    }

    /// Number of nodes owned by this core.
    pub(crate) fn owned(&self) -> usize {
        self.node_seqs.len()
    }

    /// Local index of an owned node: its position in this core's
    /// ascending-id member list. A lone shard owns every node, so local
    /// index = global id; otherwise it is looked up in the partition's
    /// O(1) table.
    #[inline]
    pub(crate) fn local_of(&self, node: NodeId) -> usize {
        match &self.route {
            Some(r) => r.partition.local_of(node.index()),
            None => node.index(),
        }
    }

    /// Global id of the owned node at local index `i` (inverse of
    /// [`SimCore::local_of`]).
    #[inline]
    fn id_of_local(&self, i: usize) -> NodeId {
        match &self.route {
            Some(r) => NodeId(r.partition.members(r.me)[i] as usize),
            None => NodeId(i),
        }
    }

    /// Whether this core owns `node`.
    fn owns(&self, node: NodeId) -> bool {
        match &self.route {
            Some(r) => r.partition.shard_of(node.index()) == r.me,
            None => node.index() < self.node_seqs.len(),
        }
    }

    /// Pushes an event originated by owned node `origin`, assigning its
    /// intrinsic `(origin, counter)` key and routing it to this core's
    /// queue or, for a cross-shard delivery, the destination lane.
    fn push_from(&mut self, origin: NodeId, time: SimTime, kind: EventKind<M>) {
        let li = self.local_of(origin);
        let seq = pack_seq(origin.index() as u32 + 1, self.node_seqs[li]);
        self.node_seqs[li] += 1;
        let ev = Scheduled {
            time,
            seq,
            item: kind,
        };
        if let Some(route) = &mut self.route {
            // Only deliveries can cross shards: timers and commands
            // always target the originating shard's own nodes.
            if let EventKind::Deliver { to, .. } = &ev.item {
                let dest = route.partition.shard_of(to.index());
                if dest != route.me {
                    route.lanes[dest].push(ev);
                    return;
                }
            }
        }
        self.queue.push(ev);
    }

    /// Pushes a pre-keyed event straight into this core's queue (harness
    /// scheduling and window-boundary lane merging).
    pub(crate) fn enqueue(&mut self, ev: Scheduled<EventKind<M>>) {
        self.queue.push(ev);
    }

    /// Takes (and empties) the outgoing lane toward `dest`.
    pub(crate) fn take_lane(&mut self, dest: usize) -> Vec<Scheduled<EventKind<M>>> {
        std::mem::take(&mut self.route.as_mut().expect("multi-shard core").lanes[dest])
    }

    /// Returns a drained lane buffer so its capacity is reused.
    pub(crate) fn put_lane(&mut self, dest: usize, lane: Vec<Scheduled<EventKind<M>>>) {
        debug_assert!(lane.is_empty());
        self.route.as_mut().expect("multi-shard core").lanes[dest] = lane;
    }

    /// Whether any outgoing lane holds events.
    pub(crate) fn lanes_pending(&self) -> bool {
        self.route
            .as_ref()
            .is_some_and(|r| r.lanes.iter().any(|l| !l.is_empty()))
    }

    /// Earliest queued event time, if any.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.queue.next_time()
    }

    /// Records one transmission and decides its network fate, drawing
    /// from the *sender's* network stream.
    fn send_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u32,
        payload: bool,
    ) -> Option<SimDuration> {
        self.traffic.record(from, to, bytes, payload);
        let li = self.local_of(from);
        let rng = &mut self.net_rngs[li];
        self.network.transmit(rng, now, from, to, bytes)
    }
}

/// Everything a node may touch during a callback.
///
/// Borrowed mutably for the duration of one event dispatch.
#[derive(Debug)]
pub struct Context<'a, M> {
    id: NodeId,
    now: SimTime,
    core: &'a mut SimCore<M>,
}

impl<M: Wire> Context<'_, M> {
    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes in the simulation.
    pub fn node_count(&self) -> usize {
        self.core.network.node_count()
    }

    /// This node's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut Rng {
        let li = self.core.local_of(self.id);
        &mut self.core.node_rngs[li]
    }

    /// Sends `msg` to `to` over the virtual network.
    ///
    /// The message is tallied in [`Sim::traffic`] (even if subsequently
    /// dropped by loss or silencing, matching how ModelNet logs sender-side
    /// transmissions), then delivered after the network delay unless
    /// dropped.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let from = self.id;
        let bytes = msg.wire_bytes();
        if let Some(delay) = self
            .core
            .send_message(self.now, from, to, bytes, msg.is_payload())
        {
            let time = self.now + delay;
            self.core
                .push_from(from, time, EventKind::Deliver { to, from, msg });
        }
    }

    /// Schedules [`Protocol::on_timer`] for this node after `delay`.
    ///
    /// These timers cannot be cancelled — use them for periodic ticks
    /// that always re-arm (shuffle, ping). For timers that a later event
    /// may obsolete (request retries), use
    /// [`Context::set_cancellable_timer`] so the dead event is dropped at
    /// pop time instead of dispatching.
    pub fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) {
        let time = self.now + delay;
        let node = self.id;
        self.core
            .push_from(node, time, EventKind::Timer { node, tag });
    }

    /// Schedules [`Protocol::on_timer`] for this node after `delay`,
    /// returning a [`TimerToken`] that [`Context::cancel_timer`] can
    /// invalidate. A cancelled timer never reaches the protocol: its heap
    /// entry is recognized as stale (generation mismatch) when popped and
    /// dropped before dispatch.
    pub fn set_cancellable_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerToken {
        let token = self.core.timers.arm();
        let time = self.now + delay;
        let node = self.id;
        self.core
            .push_from(node, time, EventKind::CancellableTimer { node, tag, token });
        token
    }

    /// Cancels a timer armed with [`Context::set_cancellable_timer`].
    ///
    /// Returns `true` if the timer was still pending; `false` if it
    /// already fired or was already cancelled (tokens are single-use).
    pub fn cancel_timer(&mut self, token: TimerToken) -> bool {
        self.core.timers.cancel(token)
    }

    /// Logs that this node multicasts application message `seq` now (see
    /// [`Sim::multicasts`]).
    pub fn log_multicast(&mut self, seq: u64) {
        let record = MulticastRecord::new(seq, self.now, self.id);
        self.core.multicasts.push(record);
    }

    /// Logs that application message `seq` is delivered at this node now,
    /// `round` hops from its source (see [`Sim::deliveries`]).
    pub fn log_delivery(&mut self, seq: u64, round: u32) {
        let record = DeliveryRecord::new(seq, self.now, self.id, round);
        self.core.deliveries.push(record);
    }
}

/// One shard's execution state: its core plus the protocol nodes it
/// owns. [`Sim`] holds one per shard, and every shard count drives
/// events through the same dispatch path, which is what makes "W shards"
/// a performance knob rather than a behavioural one.
#[derive(Debug)]
pub(crate) struct EngineState<P: Protocol> {
    pub(crate) core: SimCore<P::Msg>,
    pub(crate) nodes: Vec<P>,
    pub(crate) now: SimTime,
    pub(crate) started: bool,
    pub(crate) events_processed: u64,
}

impl<P: Protocol> EngineState<P> {
    pub(crate) fn new(core: SimCore<P::Msg>, nodes: Vec<P>) -> Self {
        assert_eq!(core.owned(), nodes.len(), "one RNG stream per node");
        EngineState {
            core,
            nodes,
            now: SimTime::ZERO,
            started: false,
            events_processed: 0,
        }
    }

    /// Runs [`Protocol::on_start`] on every owned node (in id order) if
    /// not yet done.
    pub(crate) fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let id = self.core.id_of_local(i);
            let mut ctx = Context {
                id,
                now: self.now,
                core: &mut self.core,
            };
            self.nodes[i].on_start(&mut ctx);
        }
    }

    /// Dispatches one popped event (or drops it, if it is a stale
    /// cancelled timer).
    pub(crate) fn dispatch(&mut self, ev: Scheduled<EventKind<P::Msg>>) {
        debug_assert!(ev.time >= self.now, "time must be monotonic");
        if let EventKind::CancellableTimer { token, .. } = &ev.item {
            if !self.core.timers.fire(*token) {
                return; // stale: dropped before dispatch
            }
        }
        self.now = ev.time;
        match ev.item {
            EventKind::Deliver { to, from, msg } => {
                self.events_processed += 1;
                let li = self.core.local_of(to);
                let mut ctx = Context {
                    id: to,
                    now: self.now,
                    core: &mut self.core,
                };
                self.nodes[li].on_receive(&mut ctx, from, msg);
            }
            EventKind::Timer { node, tag } | EventKind::CancellableTimer { node, tag, .. } => {
                self.events_processed += 1;
                let li = self.core.local_of(node);
                let mut ctx = Context {
                    id: node,
                    now: self.now,
                    core: &mut self.core,
                };
                self.nodes[li].on_timer(&mut ctx, tag);
            }
            EventKind::Command { node, value } => {
                self.events_processed += 1;
                let li = self.core.local_of(node);
                let mut ctx = Context {
                    id: node,
                    now: self.now,
                    core: &mut self.core,
                };
                self.nodes[li].on_command(&mut ctx, value);
            }
            // Fault events are replicated to every shard (each keeps its
            // own fault view); the event is *counted* once, by the shard
            // owning the affected node — node 0's for a global
            // degradation — so `events_processed` sums to the one-shard
            // count.
            EventKind::Fault(fault) => {
                if self.core.owns(fault.node().unwrap_or(NodeId(0))) {
                    self.events_processed += 1;
                }
                let network = &mut self.core.network;
                match fault {
                    Fault::Silence(node) => network.silence(node),
                    Fault::Revive(node) => network.revive(node),
                    Fault::Degrade {
                        latency_mult,
                        extra_loss,
                    } => network.degrade_transit(latency_mult, extra_loss),
                    Fault::Slowdown { node, delay } => network.slow_down(node, delay),
                }
            }
        }
    }

    /// Dispatches every queued event with time `<= bound` (all of them
    /// when `bound` is `None`).
    pub(crate) fn run_bounded(&mut self, bound: Option<SimTime>) {
        self.ensure_started();
        while let Some(ev) = self.core.queue.pop_next(bound) {
            self.dispatch(ev);
        }
    }
}

/// The discrete-event simulator driving a set of [`Protocol`] nodes.
///
/// The nodes are split over one or more *shards*, each an independent
/// event loop over its own nodes. One shard ([`Sim::new`]) is the plain
/// sequential simulator: one queue, drained in `(time, seq)` order on
/// the calling thread. Several shards ([`Sim::with_shards`]) run under
/// conservative time windows (see [`crate::shard`]), one worker thread
/// each, and produce byte-identical results for every shard
/// count — the `shard_equivalence` and `shard_determinism` suites compare
/// each against the one-shard run.
///
/// Three capabilities need the single queue and are one-shard only:
/// [`Sim::step`], [`Sim::send_external`] after the run started, and
/// reading [`Sim::traffic`] before [`Sim::seal_traffic`].
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct Sim<P: Protocol> {
    /// One event loop per shard, never empty.
    shards: Vec<EngineState<P>>,
    /// Partition, lookahead and window counters of a multi-shard run;
    /// `None` on one shard, whose core carries no route.
    windows: Option<WindowLoop>,
    /// Counter behind harness-originated event keys (commands, faults,
    /// external sends), shared by every shard so harness events order
    /// the same at every shard count.
    harness_seq: u64,
}

impl<P: Protocol + Send> Sim<P>
where
    P::Msg: Send,
{
    /// Creates a one-shard simulation of `nodes` over the configured
    /// network.
    ///
    /// `seed` determines every random choice in the run: node RNG streams
    /// are forked from it in id order, followed by one network stream
    /// (loss/jitter) per sender.
    ///
    /// # Panics
    ///
    /// Panics if the number of nodes does not match the network
    /// configuration.
    pub fn new(config: SimConfig, seed: u64, nodes: Vec<P>) -> Self {
        Self::with_shards(config, seed, nodes, 1)
    }

    /// Creates a simulation of `nodes` partitioned across `shards` event
    /// loops (clamped to the node count); `1` is [`Sim::new`]. `seed`
    /// produces the same RNG tree at every shard count — each node
    /// receives the streams of its *global* id regardless of which shard
    /// owns it — so the run is byte-identical to the one-shard run under
    /// every [`crate::PartitionStrategy`].
    ///
    /// The strategy is the explicit `Scenario` /
    /// [`SimConfig::with_partition`] choice, else auto (domain-aligned
    /// when the delay source yields a plan, contiguous otherwise). A
    /// planned strategy falls back to contiguous when no plan is
    /// available (uniform delays, or fewer populated domains than
    /// shards); the effective strategy is reported in
    /// [`ShardStats::strategy`].
    ///
    /// # Panics
    ///
    /// Panics if the node count mismatches the network configuration or
    /// `shards` is zero.
    pub fn with_shards(config: SimConfig, seed: u64, nodes: Vec<P>, shards: usize) -> Self {
        let n = nodes.len();
        assert_eq!(
            n,
            config.node_count(),
            "node vector must match network size"
        );
        // Also bounds the node ids below 2³¹, as the traffic log needs.
        assert!(n <= MAX_NODES, "too many nodes for event keys");
        assert!(shards > 0, "need at least one shard");
        let w = shards.min(n);
        let (node_rngs, net_rngs) = fork_streams(seed, n);
        let (shards, windows) = if w == 1 {
            let core = SimCore::new(config, node_rngs, net_rngs, None);
            (vec![EngineState::new(core, nodes)], None)
        } else {
            let (states, windows) = WindowLoop::split(config, nodes, node_rngs, net_rngs, w);
            (states, Some(windows))
        };
        Sim {
            shards,
            windows,
            harness_seq: 0,
        }
    }

    /// Installs an observe-only progress sink: on several shards, the
    /// window driver reports each planned window
    /// ([`crate::ProgressEvent::Window`]) to it. One shard has no
    /// windows and reports nothing; its driver slices `run_until` into
    /// chunks instead (see [`crate::ProgressEvent::Chunk`]). The sink
    /// receives copies of counters the engine already keeps and is never
    /// consulted for decisions, so results stay byte-identical with or
    /// without one (the workload `progress_determinism` test asserts
    /// this).
    pub fn set_progress_sink(&mut self, sink: SharedSink) {
        if let Some(w) = &mut self.windows {
            w.progress = Some(sink);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        let latest = self.shards.iter().map(|sh| sh.now).max();
        latest.expect("at least one shard")
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.network().node_count()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Window-loop counters; one shard has none to report beyond its
    /// shard count.
    pub fn shard_stats(&self) -> ShardStats {
        match &self.windows {
            None => ShardStats {
                shards: 1,
                ..ShardStats::default()
            },
            Some(w) => w.stats(
                self.now(),
                self.shards.iter().map(|s| s.events_processed).collect(),
            ),
        }
    }

    /// Total events processed so far, over all shards (a fault event
    /// replicated to every shard is counted once, by the shard owning
    /// the affected node). Stale cancellable-timer events that are
    /// dropped at pop time are *not* counted — they never dispatch.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Number of timers cancelled through [`Context::cancel_timer`].
    pub fn timers_cancelled(&self) -> u64 {
        self.shards.iter().map(|s| s.core.timers.cancelled).sum()
    }

    /// Number of stale (cancelled) timer events dropped at pop time
    /// before dispatch.
    pub fn stale_timer_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.core.timers.stale_drops).sum()
    }

    /// Transport-level traffic accounting: the live table on one shard,
    /// the merged view on several.
    ///
    /// # Panics
    ///
    /// Panics on several shards unless [`Sim::seal_traffic`] ran first —
    /// per-shard tables are merged at seal time.
    pub fn traffic(&self) -> &Traffic {
        match &self.windows {
            None => &self.shards[0].core.traffic,
            Some(w) => w
                .merged
                .as_ref()
                .expect("call Sim::seal_traffic() before traffic() on several shards"),
        }
    }

    /// Seals the traffic log so repeated per-link queries are O(1) (see
    /// [`Traffic::seal`]); on several shards this merges the per-shard
    /// tables into the global view (idempotent). Call once measurement
    /// is over: the simulation must not send any further messages
    /// afterwards.
    pub fn seal_traffic(&mut self) {
        match &mut self.windows {
            None => self.shards[0].core.traffic.seal(),
            Some(w) => w.merge_traffic(&mut self.shards),
        }
    }

    /// Ends the simulation and hands over its sealed traffic table
    /// (sealing it first, as [`Sim::seal_traffic`] does), so a caller
    /// holds the table without the nodes, queues and shards of the run.
    pub fn into_traffic(mut self) -> Traffic {
        self.seal_traffic();
        match self.windows {
            None => std::mem::take(&mut self.shards[0].core.traffic),
            Some(w) => w.merged.expect("sealed above"),
        }
    }

    /// Every multicast logged through [`Context::log_multicast`]: shard by
    /// shard, each shard's in dispatch order.
    pub fn multicasts(&self) -> impl Iterator<Item = &MulticastRecord> {
        self.shards.iter().flat_map(|s| s.core.multicasts.iter())
    }

    /// Every delivery logged through [`Context::log_delivery`] and not yet
    /// taken: shard by shard, each shard's in dispatch order.
    pub fn deliveries(&self) -> impl Iterator<Item = &DeliveryRecord> {
        self.shards.iter().flat_map(|s| s.core.deliveries.iter())
    }

    /// Takes every shard's delivery stream, joined in shard order, and
    /// leaves the engine's empty: the caller then holds the run's only
    /// copy of its deliveries.
    pub fn take_deliveries(&mut self) -> DeliveryStream {
        let mut all = DeliveryStream::default();
        for s in &mut self.shards {
            all.append(std::mem::take(&mut s.core.deliveries));
        }
        all
    }

    /// Event-queue counters (pushes/pops plus, for the calendar queue,
    /// bucket geometry and resize activity; see
    /// [`crate::event::QueueStats`]), aggregated over the per-shard
    /// queues: sums for activity counters (`pushes`, `pops`, `resizes`,
    /// `year_scans`) and `bucket_count`, with `max_len` the sum of
    /// per-shard peaks (an upper bound on global concurrency) and
    /// `bucket_width_us` the maximum across shards.
    pub fn queue_stats(&self) -> QueueStats {
        let mut agg = QueueStats::default();
        for s in &self.shards {
            let q = s.core.queue.stats();
            agg.pushes += q.pushes;
            agg.pops += q.pops;
            agg.max_len += q.max_len;
            agg.resizes += q.resizes;
            agg.bucket_count += q.bucket_count;
            agg.bucket_width_us = agg.bucket_width_us.max(q.bucket_width_us);
            agg.year_scans += q.year_scans;
        }
        agg
    }

    /// The shard owning `node` and the node's index within it.
    fn locate(&self, node: NodeId) -> (usize, usize) {
        match &self.windows {
            None => (0, node.index()),
            Some(w) => w.locate(node),
        }
    }

    /// Immutable access to a protocol node (e.g. to read final state).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &P {
        let (shard, local) = self.locate(id);
        &self.shards[shard].nodes[local]
    }

    /// Iterates over all nodes with their ids, in id order — regardless
    /// of which shard owns which id.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        (0..self.node_count()).map(|i| (NodeId(i), self.node(NodeId(i))))
    }

    /// Mutably iterates over all nodes with their ids, in shard order
    /// (e.g. for the harness's end-of-run sweeps — callers must not
    /// depend on iteration order).
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut P)> {
        self.shards.iter_mut().flat_map(|sh| {
            let core = &sh.core;
            sh.nodes
                .iter_mut()
                .enumerate()
                .map(move |(i, n)| (core.id_of_local(i), n))
        })
    }

    /// The virtual network (to inspect fault state). Fault events are
    /// replicated to every shard, so each shard's copy holds the same
    /// fault view; shard 0's is returned.
    pub fn network(&self) -> &Network {
        &self.shards[0].core.network
    }

    /// Reserves the next harness event key.
    fn next_harness_seq(&mut self) -> u64 {
        let seq = pack_seq(0, self.harness_seq);
        self.harness_seq += 1;
        seq
    }

    /// Injects a message from outside the simulation, delivered after the
    /// usual network delay. Useful in tests. On several shards this is
    /// pre-run only: mid-run injection would race the window pipeline.
    ///
    /// # Panics
    ///
    /// Panics on several shards once the simulation has started.
    pub fn send_external(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        assert!(
            self.windows.is_none() || !self.shards.iter().any(|s| s.started),
            "Sim::send_external is pre-run only on several shards"
        );
        let seq = self.next_harness_seq();
        let bytes = msg.wire_bytes();
        let now = self.now();
        let (src, _) = self.locate(from);
        let (dest, _) = self.locate(to);
        let core = &mut self.shards[src].core;
        if let Some(delay) = core.send_message(now, from, to, bytes, msg.is_payload()) {
            self.shards[dest].core.enqueue(Scheduled {
                time: now + delay,
                seq,
                item: EventKind::Deliver { to, from, msg },
            });
        }
    }

    /// Schedules a harness command for `node` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_command(&mut self, at: SimTime, node: NodeId, value: u64) {
        assert!(at >= self.now(), "cannot schedule in the past");
        let seq = self.next_harness_seq();
        let (shard, _) = self.locate(node);
        self.shards[shard].core.enqueue(Scheduled {
            time: at,
            seq,
            item: EventKind::Command { node, value },
        });
    }

    /// Schedules `fault` at absolute time `at` (fault injection, §6.3).
    /// The event is enqueued on every shard (each keeps its own fault
    /// view) under one shared key, so all shards apply it at the same
    /// point of the global order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or the fault's parameters are
    /// invalid ([`Fault::check`] — here, so a bad schedule fails fast,
    /// not mid-run).
    pub fn schedule_fault(&mut self, at: SimTime, fault: Fault) {
        assert!(at >= self.now(), "cannot schedule in the past");
        fault.check();
        let seq = self.next_harness_seq();
        for sh in &mut self.shards {
            sh.core.enqueue(Scheduled {
                time: at,
                seq,
                item: EventKind::Fault(fault),
            });
        }
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty. One shard only: several shards have no single next event.
    ///
    /// A popped cancellable-timer event whose generation is stale is
    /// dropped here, before dispatch: the clock does not advance, the
    /// protocol is never called, and [`Sim::events_processed`] does not
    /// count it (see [`Sim::stale_timer_drops`]).
    ///
    /// # Panics
    ///
    /// Panics on several shards.
    pub fn step(&mut self) -> bool {
        assert!(self.windows.is_none(), "Sim::step needs a single shard");
        let eng = &mut self.shards[0];
        eng.ensure_started();
        let Some(ev) = eng.core.queue.pop_next(None) else {
            return false;
        };
        eng.dispatch(ev);
        true
    }

    /// Dispatches every event with time `<= bound` (all of them when
    /// `bound` is `None`): one shard drains its queue directly, several
    /// run the window loop.
    fn drain(&mut self, bound: Option<SimTime>) {
        match &mut self.windows {
            None => self.shards[0].run_bounded(bound),
            Some(w) => w.run(&mut self.shards, bound),
        }
    }

    /// Runs until every queue is exhausted or virtual time would pass
    /// `deadline`; the clock finishes at `deadline` if it was reached.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.drain(Some(deadline));
        for sh in &mut self.shards {
            if sh.now < deadline {
                sh.now = deadline;
            }
        }
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Runs until every queue (and cross-shard lane) is fully drained
    /// (beware periodic timers: protocols that always re-arm will never
    /// drain).
    pub fn run_to_idle(&mut self) {
        self.drain(None);
    }
}
#[cfg(test)]
mod tests {
    use super::{Context, Protocol, Sim};
    use crate::net::SimConfig;
    use crate::time::{SimDuration, SimTime};
    use crate::wire::Wire;
    use crate::{Fault, NodeId};

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl Wire for Msg {
        fn wire_bytes(&self) -> u32 {
            16
        }
        fn is_payload(&self) -> bool {
            matches!(self, Msg::Ping(_))
        }
    }

    /// Echoes pings; counts pongs; multicasts on command.
    #[derive(Default)]
    struct Echo {
        pongs: Vec<(u32, f64)>,
        timers: Vec<u64>,
        started_at: Option<f64>,
    }

    impl Protocol for Echo {
        type Msg = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.started_at = Some(ctx.now().as_ms());
        }

        fn on_receive(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(k) => {
                    ctx.log_delivery(u64::from(k), 1);
                    ctx.send(from, Msg::Pong(k));
                }
                Msg::Pong(k) => self.pongs.push((k, ctx.now().as_ms())),
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, tag: u64) {
            self.timers.push(tag);
        }

        fn on_command(&mut self, ctx: &mut Context<'_, Msg>, value: u64) {
            ctx.log_multicast(value);
            let n = ctx.node_count();
            for i in 0..n {
                if NodeId(i) != ctx.id() {
                    ctx.send(NodeId(i), Msg::Ping(value as u32));
                }
            }
        }
    }

    fn two_nodes(ms: f64) -> Sim<Echo> {
        Sim::new(
            SimConfig::uniform(2, ms),
            7,
            vec![Echo::default(), Echo::default()],
        )
    }

    #[test]
    fn round_trip_takes_two_delays() {
        let mut sim = two_nodes(10.0);
        sim.send_external(NodeId(1), NodeId(0), Msg::Ping(1));
        sim.run_for(SimDuration::from_ms(100.0));
        // external ping: delivered to n0 at 10ms; pong back to n1 at 20ms
        assert_eq!(sim.node(NodeId(1)).pongs, vec![(1, 20.0)]);
        assert_eq!(sim.now(), SimTime::from_ms(100.0));
    }

    #[test]
    fn on_start_runs_once_at_zero() {
        let mut sim = two_nodes(1.0);
        sim.run_for(SimDuration::from_ms(1.0));
        assert_eq!(sim.node(NodeId(0)).started_at, Some(0.0));
        sim.run_for(SimDuration::from_ms(1.0));
        assert_eq!(sim.node(NodeId(1)).started_at, Some(0.0));
    }

    #[test]
    fn timers_fire_at_exact_times_in_order() {
        struct TimerNode {
            fired: Vec<(u64, f64)>,
        }
        impl Protocol for TimerNode {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_ms(5.0), 5);
                ctx.set_timer(SimDuration::from_ms(1.0), 1);
                ctx.set_timer(SimDuration::from_ms(3.0), 3);
            }
            fn on_receive(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
                self.fired.push((tag, ctx.now().as_ms()));
            }
        }
        let mut sim = Sim::new(
            SimConfig::uniform(1, 1.0),
            1,
            vec![TimerNode { fired: Vec::new() }],
        );
        sim.run_to_idle();
        assert_eq!(
            sim.node(NodeId(0)).fired,
            vec![(1, 1.0), (3, 3.0), (5, 5.0)]
        );
    }

    #[test]
    fn commands_trigger_protocol_behaviour() {
        let mut sim = two_nodes(10.0);
        sim.schedule_command(SimTime::from_ms(50.0), NodeId(0), 9);
        sim.run_for(SimDuration::from_ms(200.0));
        // command at 50 → ping at 60 → pong delivered at 70
        assert_eq!(sim.node(NodeId(0)).pongs, vec![(9, 70.0)]);
    }

    #[test]
    fn traffic_is_accounted() {
        let mut sim = two_nodes(10.0);
        sim.schedule_command(SimTime::from_ms(0.0), NodeId(0), 1);
        sim.run_for(SimDuration::from_ms(100.0));
        // 1 ping (payload) + 1 pong (control), external none
        assert_eq!(sim.traffic().total_messages(), 2);
        assert_eq!(sim.traffic().total_payloads(), 1);
        assert_eq!(sim.traffic().total_bytes(), 32);
    }

    #[test]
    fn silencing_stops_delivery_but_not_accounting() {
        let mut sim = two_nodes(10.0);
        sim.schedule_fault(SimTime::from_ms(0.0), Fault::Silence(NodeId(1)));
        sim.schedule_command(SimTime::from_ms(1.0), NodeId(0), 2);
        sim.run_for(SimDuration::from_ms(100.0));
        assert!(sim.node(NodeId(0)).pongs.is_empty());
        assert_eq!(sim.traffic().total_messages(), 1, "send was still tallied");
        assert!(sim.network().is_silenced(NodeId(1)));
    }

    #[test]
    fn revive_restores_connectivity() {
        let mut sim = two_nodes(10.0);
        sim.schedule_fault(SimTime::from_ms(0.0), Fault::Silence(NodeId(1)));
        sim.schedule_fault(SimTime::from_ms(50.0), Fault::Revive(NodeId(1)));
        sim.schedule_command(SimTime::from_ms(60.0), NodeId(0), 3);
        sim.run_for(SimDuration::from_ms(200.0));
        assert_eq!(sim.node(NodeId(0)).pongs.len(), 1);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let mut sim = Sim::new(
                SimConfig::uniform(4, 10.0).with_loss(0.3).with_jitter(0.2),
                seed,
                (0..4).map(|_| Echo::default()).collect(),
            );
            for k in 0..20 {
                sim.schedule_command(SimTime::from_ms(k as f64 * 7.0), NodeId(k % 4), k as u64);
            }
            sim.run_for(SimDuration::from_ms(1000.0));
            (
                sim.traffic().total_messages(),
                sim.traffic().total_bytes(),
                sim.nodes()
                    .map(|(_, n)| n.pongs.clone())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).2, run(12).2, "different seeds should differ");
    }

    #[test]
    fn run_until_stops_clock_at_deadline() {
        let mut sim = two_nodes(10.0);
        sim.schedule_command(SimTime::from_ms(500.0), NodeId(0), 1);
        sim.run_until(SimTime::from_ms(100.0));
        assert_eq!(sim.now(), SimTime::from_ms(100.0));
        assert_eq!(sim.events_processed(), 0);
        sim.run_until(SimTime::from_ms(600.0));
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn single_queue_capabilities_are_one_shard_only() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let build = |shards| {
            let nodes = (0..4).map(|_| Echo::default()).collect();
            let mut sim = Sim::with_shards(SimConfig::uniform(4, 10.0), 7, nodes, shards);
            sim.schedule_command(SimTime::from_ms(1.0), NodeId(0), 1);
            sim.run_until(SimTime::from_ms(5.0));
            sim
        };

        // One shard: stepping, mid-run injection and live traffic reads.
        let mut one = build(1);
        assert!(one.step(), "the pings of the 1 ms command are in flight");
        one.send_external(NodeId(1), NodeId(2), Msg::Ping(9));
        // Three pings, the stepped receiver's pong, the injected ping.
        assert_eq!(one.traffic().total_messages(), 5);
        one.run_to_idle();
        assert_eq!(one.node(NodeId(1)).pongs, vec![(9, 31.0)]);

        // Two shards: each is refused with its documented message.
        let refusal = |f: &dyn Fn(&mut Sim<Echo>)| {
            let mut two = build(2);
            assert_eq!(two.shard_count(), 2);
            let payload = catch_unwind(AssertUnwindSafe(|| f(&mut two))).expect_err("must panic");
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("panic message")
        };
        let stepped = refusal(&|s| {
            s.step();
        });
        assert!(stepped.contains("Sim::step needs a single shard"));
        let injected = refusal(&|s| s.send_external(NodeId(1), NodeId(2), Msg::Ping(9)));
        assert!(injected.contains("Sim::send_external is pre-run only on several shards"));
        let read = refusal(&|s| {
            s.traffic();
        });
        assert!(read.contains("call Sim::seal_traffic() before traffic() on several shards"));

        // Pre-run injection and sealed traffic work at every width.
        let nodes = (0..4).map(|_| Echo::default()).collect();
        let mut two = Sim::with_shards(SimConfig::uniform(4, 10.0), 7, nodes, 2);
        two.send_external(NodeId(1), NodeId(2), Msg::Ping(9));
        two.run_to_idle();
        two.seal_traffic();
        assert_eq!(two.traffic().total_messages(), 2);
        assert_eq!(two.node(NodeId(1)).pongs, vec![(9, 20.0)]);
    }

    #[test]
    fn logged_records_reach_the_engine_at_every_width() {
        for shards in [1, 2] {
            let nodes = (0..4).map(|_| Echo::default()).collect();
            let mut sim = Sim::with_shards(SimConfig::uniform(4, 10.0), 7, nodes, shards);
            sim.schedule_command(SimTime::from_ms(1.0), NodeId(0), 0);
            sim.schedule_command(SimTime::from_ms(5.0), NodeId(3), 1);
            sim.run_to_idle();
            let mut multicasts: Vec<_> = sim.multicasts().map(|m| (m.seq, m.node())).collect();
            multicasts.sort();
            assert_eq!(multicasts, vec![(0, NodeId(0)), (1, NodeId(3))]);
            let logged = sim.deliveries().count();
            let mut delivered: Vec<_> = sim
                .take_deliveries()
                .into_iter()
                .map(|d| (d.seq, d.node().index(), d.time.as_ms(), d.round))
                .collect();
            delivered.sort_by_key(|&(seq, node, ..)| (seq, node));
            let expect = |seq, node, ms| (seq, node, ms, 1);
            assert_eq!(
                delivered,
                vec![
                    expect(0, 1, 11.0),
                    expect(0, 2, 11.0),
                    expect(0, 3, 11.0),
                    expect(1, 0, 15.0),
                    expect(1, 1, 15.0),
                    expect(1, 2, 15.0),
                ],
                "width {shards}"
            );
            assert_eq!(logged, 6);
            assert_eq!(sim.deliveries().count(), 0, "taken, not copied");
        }
    }

    #[test]
    #[should_panic(expected = "match network size")]
    fn node_count_mismatch_panics() {
        let _ = Sim::new(SimConfig::uniform(3, 1.0), 0, vec![Echo::default()]);
    }

    /// Arms a cancellable timer on start; cancels it when any message
    /// arrives before it fires.
    #[derive(Default)]
    struct Canceller {
        token: Option<crate::sim::TimerToken>,
        fired: Vec<u64>,
        cancel_worked: Option<bool>,
    }

    impl Protocol for Canceller {
        type Msg = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.token = Some(ctx.set_cancellable_timer(SimDuration::from_ms(50.0), 7));
        }

        fn on_receive(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {
            if let Some(token) = self.token.take() {
                self.cancel_worked = Some(ctx.cancel_timer(token));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, tag: u64) {
            self.fired.push(tag);
        }
    }

    #[test]
    fn cancelled_timer_never_dispatches() {
        let mut sim = Sim::new(
            SimConfig::uniform(2, 10.0),
            3,
            vec![Canceller::default(), Canceller::default()],
        );
        // Message reaches node 0 at 10ms, well before its 50ms timer.
        sim.send_external(NodeId(1), NodeId(0), Msg::Ping(1));
        sim.run_for(SimDuration::from_ms(200.0));
        assert_eq!(sim.node(NodeId(0)).fired, Vec::<u64>::new());
        assert_eq!(sim.node(NodeId(0)).cancel_worked, Some(true));
        // Node 1 got no message, so its timer fired normally.
        assert_eq!(sim.node(NodeId(1)).fired, vec![7]);
        assert_eq!(sim.timers_cancelled(), 1);
        assert_eq!(sim.stale_timer_drops(), 1, "stale pop dropped silently");
    }

    #[test]
    fn uncancelled_cancellable_timer_behaves_like_a_timer() {
        let mut sim = Sim::new(SimConfig::uniform(1, 1.0), 5, vec![Canceller::default()]);
        sim.run_to_idle();
        assert_eq!(sim.node(NodeId(0)).fired, vec![7]);
        assert_eq!(sim.now(), SimTime::from_ms(50.0));
        assert_eq!(sim.timers_cancelled(), 0);
        assert_eq!(sim.stale_timer_drops(), 0);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        struct LateCancel {
            token: Option<crate::sim::TimerToken>,
            late_cancel: Option<bool>,
        }
        impl Protocol for LateCancel {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                self.token = Some(ctx.set_cancellable_timer(SimDuration::from_ms(5.0), 1));
            }
            fn on_receive(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _tag: u64) {
                // The token was consumed by this very firing.
                let token = self.token.take().expect("armed once");
                self.late_cancel = Some(ctx.cancel_timer(token));
            }
        }
        let mut sim = Sim::new(
            SimConfig::uniform(1, 1.0),
            1,
            vec![LateCancel {
                token: None,
                late_cancel: None,
            }],
        );
        sim.run_to_idle();
        assert_eq!(sim.node(NodeId(0)).late_cancel, Some(false));
        assert_eq!(sim.timers_cancelled(), 0);
    }

    #[test]
    fn stale_drops_do_not_count_as_events() {
        let mut sim = Sim::new(
            SimConfig::uniform(2, 10.0),
            3,
            vec![Canceller::default(), Canceller::default()],
        );
        sim.send_external(NodeId(1), NodeId(0), Msg::Ping(1));
        sim.run_for(SimDuration::from_ms(200.0));
        // Dispatched: the delivery at node 0 and node 1's live timer. The
        // stale timer pop is not counted.
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn timer_slots_are_recycled() {
        struct Rearm {
            rounds: u32,
        }
        impl Protocol for Rearm {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_cancellable_timer(SimDuration::from_ms(1.0), 0);
            }
            fn on_receive(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
                self.rounds += 1;
                if self.rounds < 100 {
                    ctx.set_cancellable_timer(SimDuration::from_ms(1.0), tag);
                }
            }
        }
        let mut sim = Sim::new(SimConfig::uniform(1, 1.0), 1, vec![Rearm { rounds: 0 }]);
        sim.run_to_idle();
        assert_eq!(sim.node(NodeId(0)).rounds, 100);
        // 100 sequential timers reused one table slot; determinism of the
        // run is covered by the seeded tests above.
    }
}
