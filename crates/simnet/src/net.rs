//! The virtual network: delays, loss, jitter, and fault injection.

use crate::event::{Fault, QueueKind};
use crate::shard::PartitionStrategy;
use crate::time::{SimDuration, SimTime};
use crate::NodeId;
use egm_rng::Rng;
use egm_topology::{PlanBalance, RoutedModel};
use std::sync::Arc;

/// Configuration of the virtual network between `n` protocol nodes.
///
/// Delay between a pair of nodes is the routed model latency (or a
/// synthetic constant/matrix), optionally perturbed by uniform
/// multiplicative jitter; messages are dropped independently with
/// probability `loss`, and any traffic to or from a *silenced* node is
/// dropped — the paper's firewall-based failure injection (§6.3).
///
/// # Examples
///
/// ```
/// use egm_simnet::SimConfig;
///
/// let cfg = SimConfig::uniform(10, 25.0).with_loss(0.01).with_jitter(0.05);
/// assert_eq!(cfg.node_count(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    delay: DelaySource,
    /// Independent drop probability per message.
    loss: f64,
    /// Uniform multiplicative jitter: delay is scaled by a factor drawn
    /// from `[1 - jitter, 1 + jitter]`.
    jitter: f64,
    /// Delay floor applied after jitter (also used for self-sends).
    min_delay: SimDuration,
    /// Per-node egress bandwidth in bytes/second; `None` models infinite
    /// capacity. When set, each transmission occupies the sender's uplink
    /// for `bytes / bandwidth` and queues FIFO behind earlier sends —
    /// reproducing the burst-induced latency of gossip fanouts that §5.3
    /// observes on the ModelNet testbed.
    egress_bandwidth: Option<f64>,
    /// Maximum distinct links the traffic accounting tracks individually
    /// (see [`crate::Traffic::with_spill_threshold`]).
    link_spill_threshold: usize,
    /// Which event-queue implementation the simulator uses; `None`
    /// resolves by size ([`QueueKind::auto_for`]).
    event_queue: Option<QueueKind>,
    /// How many shards the run partitions the nodes across; `None`
    /// resolves by size and core count
    /// ([`crate::shard::auto_shards_for`]).
    shards: Option<usize>,
    /// How a multi-shard run maps nodes to shards; `None` is auto
    /// (domain-aligned when the delay source yields a plan, contiguous
    /// otherwise).
    partition: Option<PartitionStrategy>,
}

#[derive(Debug, Clone)]
enum DelaySource {
    /// Constant one-way delay between every pair.
    Uniform { n: usize, ms: f64 },
    /// Latencies from a routed topology model, shared: cloning the
    /// configuration (once per shard) never copies the model's tables.
    Model(Arc<RoutedModel>),
}

impl SimConfig {
    /// A network of `n` nodes with constant pairwise one-way delay.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `ms` is negative/non-finite.
    pub fn uniform(n: usize, ms: f64) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(ms.is_finite() && ms >= 0.0, "bad delay");
        SimConfig {
            delay: DelaySource::Uniform { n, ms },
            loss: 0.0,
            jitter: 0.0,
            min_delay: SimDuration::from_micros(10),
            egress_bandwidth: None,
            link_spill_threshold: usize::MAX,
            event_queue: None,
            shards: None,
            partition: None,
        }
    }

    /// A network whose delays come from a routed topology model — the
    /// standard configuration for reproducing the paper. Takes the model
    /// by value or as an `Arc` a caller already shares; either way every
    /// clone of the configuration reads the same one.
    pub fn from_model(model: impl Into<Arc<RoutedModel>>) -> Self {
        SimConfig {
            delay: DelaySource::Model(model.into()),
            loss: 0.0,
            jitter: 0.0,
            min_delay: SimDuration::from_micros(10),
            egress_bandwidth: None,
            link_spill_threshold: usize::MAX,
            event_queue: None,
            shards: None,
            partition: None,
        }
    }

    /// Sets the per-node egress bandwidth in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    pub fn with_egress_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "bandwidth must be positive"
        );
        self.egress_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Sets the independent per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.loss = loss;
        self
    }

    /// Sets uniform multiplicative jitter (fraction of the base delay).
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is outside `[0, 1)`.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        self.jitter = jitter;
        self
    }

    /// Bounds how many distinct links the simulator's traffic accounting
    /// tracks individually; the payloads of further links are summed into
    /// one aggregate spilled count. Totals and per-node payload counters stay
    /// exact. The default is unbounded; 1k–10k-node scenarios should set
    /// a bound so link accounting cannot grow toward n².
    pub fn with_link_spill_threshold(mut self, links: usize) -> Self {
        self.link_spill_threshold = links;
        self
    }

    /// The configured link-accounting spill threshold.
    pub fn link_spill_threshold(&self) -> usize {
        self.link_spill_threshold
    }

    /// Selects the event-queue implementation (builder style),
    /// overriding the size-based default. Both implementations dispatch
    /// in bit-identical order, so this is a performance A/B switch, never
    /// a behavioural one.
    pub fn with_event_queue(mut self, kind: QueueKind) -> Self {
        self.event_queue = Some(kind);
        self
    }

    /// The event-queue implementation this configuration resolves to:
    /// an explicit [`SimConfig::with_event_queue`] choice, else the
    /// size-based default ([`QueueKind::auto_for`]).
    pub fn event_queue(&self) -> QueueKind {
        self.event_queue
            .unwrap_or_else(|| QueueKind::auto_for(self.node_count()))
    }

    /// Selects how many shards partition the run (builder style),
    /// overriding the size-based default. `0` and `1` both mean one
    /// shard — the plain sequential event loop. Every shard count
    /// produces byte-identical results — this is a performance knob,
    /// never a behavioural one.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// The shard count this configuration resolves to — what the runner
    /// hands to [`crate::Sim::with_shards`]: an explicit
    /// [`SimConfig::with_shards`] choice, else the default for this node
    /// count and machine ([`crate::shard::auto_shards_for`]). The result
    /// is clamped to `1..=node_count`, so `0` and `1` both resolve to one
    /// shard.
    pub fn shard_count(&self) -> usize {
        let n = self.node_count();
        self.shards
            .unwrap_or_else(|| crate::shard::auto_shards_for(n))
            .clamp(1, n)
    }

    /// Selects the partition strategy of a multi-shard run (builder style),
    /// overriding the auto default. Every strategy produces
    /// byte-identical results — this is a performance knob, never a
    /// behavioural one.
    pub fn with_partition(mut self, strategy: PartitionStrategy) -> Self {
        self.partition = Some(strategy);
        self
    }

    /// The partition strategy this configuration resolves to: an
    /// explicit [`SimConfig::with_partition`] choice, else `None` —
    /// *auto*: the engine plans a domain-aligned partition when the delay
    /// source supports one and falls back to contiguous otherwise (see
    /// [`crate::ShardStats::strategy`] for what took effect).
    pub fn partition_strategy(&self) -> Option<PartitionStrategy> {
        self.partition
    }

    /// Plans a domain-aligned node→shard assignment over the routed
    /// delay model: `None` when the delay source has no domain structure
    /// (uniform or dense) or fewer populated domains than shards.
    pub fn planned_assignment(&self, shards: usize) -> Option<Vec<u32>> {
        let DelaySource::Model(m) = &self.delay else {
            return None;
        };
        m.partition_plan(shards, PlanBalance::Nodes)
            .map(|p| p.assignment().to_vec())
    }

    /// A conservative lower bound on the delivery delay of any message
    /// crossing the given shard assignment — the multi-shard window
    /// *lookahead*. Derived from the minimum cross-shard base latency of
    /// the delay source (exact on routed and dense models), shrunk by the
    /// worst-case jitter factor and one microsecond of rounding slack,
    /// and floored at the network's minimum delay. Returns `None` when no
    /// pair of nodes crosses shards (single shard), in which case windows
    /// are unnecessary.
    pub fn conservative_lookahead(&self, assignment: &[u32]) -> Option<SimDuration> {
        assert_eq!(assignment.len(), self.node_count(), "one shard per node");
        let min_ms = match &self.delay {
            DelaySource::Uniform { ms, .. } => {
                let first = *assignment.first()?;
                if assignment.iter().all(|&s| s == first) {
                    return None;
                }
                *ms
            }
            DelaySource::Model(m) => m.min_cross_partition_latency_ms(assignment)?,
        };
        let floor_us = (min_ms * 1000.0 * (1.0 - self.jitter)).floor().max(0.0) as u64;
        let lb = floor_us
            .saturating_sub(1)
            .max(self.min_delay.as_micros())
            .max(1);
        Some(SimDuration::from_micros(lb))
    }

    /// Number of protocol nodes.
    pub fn node_count(&self) -> usize {
        match &self.delay {
            DelaySource::Uniform { n, .. } => *n,
            DelaySource::Model(m) => m.client_count(),
        }
    }
}

/// The instantiated virtual network (configuration + mutable fault and
/// egress-queue state).
#[derive(Debug, Clone)]
pub struct Network {
    config: SimConfig,
    silenced: Vec<bool>,
    /// Time each node's uplink becomes free (egress-bandwidth model).
    egress_free: Vec<SimTime>,
    /// Transit degradation: latency multiplier on cross-domain base
    /// delays (`1.0` = healthy). Never below `1.0`, so the multi-shard
    /// conservative lookahead stays a valid lower bound.
    degrade_mult: f64,
    /// Transit degradation: extra independent drop probability on
    /// cross-domain traffic, combined with the configured loss as
    /// `1 − (1−loss)(1−extra)` so it still costs exactly one RNG draw.
    degrade_loss: f64,
    /// Per-node processing slowdown added to the delivery delay of all
    /// traffic *into* the node (receive-side; `ZERO` = full speed).
    slowdown: Vec<SimDuration>,
    /// Cheap guard: true while any `slowdown` entry is non-zero.
    any_slowdown: bool,
}

impl Network {
    /// Builds the network from its configuration.
    pub fn new(config: SimConfig) -> Self {
        let n = config.node_count();
        Network {
            config,
            silenced: vec![false; n],
            egress_free: vec![SimTime::ZERO; n],
            degrade_mult: 1.0,
            degrade_loss: 0.0,
            slowdown: vec![SimDuration::ZERO; n],
            any_slowdown: false,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.silenced.len()
    }

    /// Base one-way delay between two nodes, before jitter.
    pub fn base_delay(&self, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            return self.config.min_delay;
        }
        let ms = match &self.config.delay {
            DelaySource::Uniform { ms, .. } => *ms,
            DelaySource::Model(m) => m.latency_ms(from.index(), to.index()),
        };
        let d = SimDuration::from_ms(ms);
        if d < self.config.min_delay {
            self.config.min_delay
        } else {
            d
        }
    }

    /// Whether traffic between `from` and `to` crosses the transit core
    /// (and is therefore subject to transit degradation). Self-sends
    /// never cross; on a routed model two clients cross iff they live in
    /// different stub domains; structureless sources (uniform, dense
    /// matrix) treat every distinct pair as crossing.
    pub fn cross_transit(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return false;
        }
        match &self.config.delay {
            DelaySource::Uniform { .. } => true,
            DelaySource::Model(m) => {
                match (m.client_domain(from.index()), m.client_domain(to.index())) {
                    (Some(a), Some(b)) => a != b,
                    _ => true,
                }
            }
        }
    }

    /// Decides the fate of one message of `bytes` sent at `now`:
    /// `Some(delay)` to deliver after `delay` (queueing + serialization +
    /// propagation), `None` if dropped by loss or silencing.
    pub fn transmit(
        &mut self,
        rng: &mut Rng,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u32,
    ) -> Option<SimDuration> {
        if self.silenced[from.index()] || self.silenced[to.index()] {
            return None;
        }
        let degraded = self.degrade_loss > 0.0 || self.degrade_mult > 1.0;
        let cross = degraded && self.cross_transit(from, to);
        // Degraded cross-transit traffic combines the extra loss with the
        // base loss into a single Bernoulli draw, keeping the per-sender
        // RNG stream aligned with the healthy network's draw count.
        let loss = if cross && self.degrade_loss > 0.0 {
            1.0 - (1.0 - self.config.loss) * (1.0 - self.degrade_loss)
        } else {
            self.config.loss
        };
        if loss > 0.0 && rng.bool(loss) {
            return None;
        }
        let mut base = self.base_delay(from, to);
        if cross && self.degrade_mult > 1.0 {
            base = base.mul_f64(self.degrade_mult);
        }
        let propagation = if self.config.jitter > 0.0 {
            let factor = rng.range_f64(1.0 - self.config.jitter, 1.0 + self.config.jitter);
            base.mul_f64(factor)
        } else {
            base
        };
        let mut delay = propagation;
        if let Some(bw) = self.config.egress_bandwidth {
            // FIFO uplink: the message departs when the link frees up and
            // occupies it for its serialization time.
            let serialization = SimDuration::from_ms(bytes as f64 / bw * 1000.0);
            let free = self.egress_free[from.index()];
            let depart_done = if free > now { free } else { now } + serialization;
            self.egress_free[from.index()] = depart_done;
            delay = (depart_done - now) + propagation;
        }
        if self.any_slowdown {
            delay = delay + self.slowdown[to.index()];
        }
        Some(if delay < self.config.min_delay {
            self.config.min_delay
        } else {
            delay
        })
    }

    /// Silences a node: all of its future traffic, in and out, is dropped.
    ///
    /// This emulates the paper's fail-by-firewall (§6.3): the process keeps
    /// running but its packets vanish.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn silence(&mut self, node: NodeId) {
        self.silenced[node.index()] = true;
    }

    /// Reverses [`Network::silence`] — used to model transient partitions.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn revive(&mut self, node: NodeId) {
        self.silenced[node.index()] = false;
    }

    /// Sets the transit degradation state: cross-domain base delays are
    /// multiplied by `latency_mult` and cross-domain messages suffer an
    /// extra independent drop probability `extra_loss`. `(1.0, 0.0)`
    /// restores the healthy network.
    ///
    /// The multiplier can only *lengthen* delays (≥ 1.0), so the
    /// multi-shard conservative lookahead — a lower bound on cross-shard
    /// delivery delay — remains valid under degradation.
    ///
    /// # Panics
    ///
    /// Panics if `latency_mult < 1.0` or is non-finite, or `extra_loss`
    /// is outside `[0, 1]` (see [`Fault::check`]).
    pub fn degrade_transit(&mut self, latency_mult: f64, extra_loss: f64) {
        Fault::Degrade {
            latency_mult,
            extra_loss,
        }
        .check();
        self.degrade_mult = latency_mult;
        self.degrade_loss = extra_loss;
    }

    /// The current transit degradation state as
    /// `(latency_mult, extra_loss)`; `(1.0, 0.0)` when healthy.
    pub fn degradation(&self) -> (f64, f64) {
        (self.degrade_mult, self.degrade_loss)
    }

    /// Sets `node`'s processing slowdown: `delay` is added to the
    /// delivery delay of every message *into* the node. `ZERO` restores
    /// full speed.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn slow_down(&mut self, node: NodeId, delay: SimDuration) {
        self.slowdown[node.index()] = delay;
        self.any_slowdown = self.slowdown.iter().any(|&d| d > SimDuration::ZERO);
    }

    /// The node's current processing slowdown.
    pub fn slowdown_of(&self, node: NodeId) -> SimDuration {
        self.slowdown[node.index()]
    }

    /// Whether the node is currently silenced.
    pub fn is_silenced(&self, node: NodeId) -> bool {
        self.silenced[node.index()]
    }

    /// Indices of all currently silenced nodes.
    pub fn silenced_nodes(&self) -> Vec<NodeId> {
        self.silenced
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(NodeId(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::{Network, SimConfig};
    use crate::shard::auto_shards_for;
    use crate::{NodeId, PartitionStrategy, QueueKind, SimDuration};
    use egm_rng::Rng;
    use egm_topology::RoutedModel;

    #[test]
    fn cloned_configs_share_one_model() {
        let model = std::sync::Arc::new(RoutedModel::uniform_synthetic(4, 10.0, 20.0, 1));
        let config = SimConfig::from_model(std::sync::Arc::clone(&model));
        let per_shard = [config.clone(), config.clone()];
        assert_eq!(
            std::sync::Arc::strong_count(&model),
            4,
            "a config clone must not deep-copy the routed model"
        );
        assert_eq!(per_shard[1].node_count(), 4);
    }

    #[test]
    fn explicit_shard_counts_resolve_with_zero_and_one_meaning_one_shard() {
        let config = SimConfig::uniform(6, 1.0);
        assert_eq!(config.clone().with_shards(0).shard_count(), 1);
        assert_eq!(config.clone().with_shards(1).shard_count(), 1);
        assert_eq!(config.clone().with_shards(4).shard_count(), 4);
        // Clamped to the node count.
        assert_eq!(config.clone().with_shards(64).shard_count(), 6);
        // Nothing explicit: the size-based defaults, whatever the
        // process environment holds.
        assert_eq!(config.shard_count(), auto_shards_for(6));
        assert_eq!(config.event_queue(), QueueKind::auto_for(6));
        assert_eq!(config.partition_strategy(), None);
        // Explicit choices come back as given.
        let pinned = config
            .with_event_queue(QueueKind::Calendar)
            .with_partition(PartitionStrategy::Contiguous);
        assert_eq!(pinned.event_queue(), QueueKind::Calendar);
        assert_eq!(
            pinned.partition_strategy(),
            Some(PartitionStrategy::Contiguous)
        );
    }

    #[test]
    fn uniform_delay_is_constant() {
        let net = Network::new(SimConfig::uniform(3, 25.0));
        assert_eq!(
            net.base_delay(NodeId(0), NodeId(2)),
            SimDuration::from_ms(25.0)
        );
        // self-sends use the floor delay
        assert_eq!(
            net.base_delay(NodeId(1), NodeId(1)),
            SimDuration::from_micros(10)
        );
    }

    #[test]
    fn model_delay_matches_matrix() {
        let model = RoutedModel::uniform_synthetic(4, 10.0, 20.0, 1);
        let expect = model.latency_ms(1, 3);
        let net = Network::new(SimConfig::from_model(model));
        assert_eq!(
            net.base_delay(NodeId(1), NodeId(3)),
            SimDuration::from_ms(expect)
        );
    }

    fn tx(net: &mut Network, rng: &mut Rng, from: usize, to: usize) -> Option<SimDuration> {
        net.transmit(rng, crate::SimTime::ZERO, NodeId(from), NodeId(to), 100)
    }

    #[test]
    fn zero_loss_always_delivers() {
        let mut net = Network::new(SimConfig::uniform(2, 5.0));
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(tx(&mut net, &mut rng, 0, 1).is_some());
        }
    }

    #[test]
    fn full_loss_always_drops() {
        let mut net = Network::new(SimConfig::uniform(2, 5.0).with_loss(1.0));
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(tx(&mut net, &mut rng, 0, 1).is_none());
        }
    }

    #[test]
    fn partial_loss_is_calibrated() {
        let mut net = Network::new(SimConfig::uniform(2, 5.0).with_loss(0.2));
        let mut rng = Rng::seed_from_u64(2);
        let delivered = (0..10_000)
            .filter(|_| tx(&mut net, &mut rng, 0, 1).is_some())
            .count();
        let frac = delivered as f64 / 10_000.0;
        assert!((frac - 0.8).abs() < 0.02, "delivered fraction {frac}");
    }

    #[test]
    fn silencing_kills_both_directions() {
        let mut net = Network::new(SimConfig::uniform(3, 5.0));
        net.silence(NodeId(1));
        let mut rng = Rng::seed_from_u64(3);
        assert!(tx(&mut net, &mut rng, 0, 1).is_none());
        assert!(tx(&mut net, &mut rng, 1, 0).is_none());
        assert!(tx(&mut net, &mut rng, 0, 2).is_some());
        assert!(net.is_silenced(NodeId(1)));
        assert_eq!(net.silenced_nodes(), vec![NodeId(1)]);
        net.revive(NodeId(1));
        assert!(tx(&mut net, &mut rng, 0, 1).is_some());
    }

    #[test]
    fn jitter_spreads_delay_within_bounds() {
        let mut net = Network::new(SimConfig::uniform(2, 100.0).with_jitter(0.1));
        let mut rng = Rng::seed_from_u64(4);
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for _ in 0..1000 {
            let d = tx(&mut net, &mut rng, 0, 1).expect("no loss").as_ms();
            min = min.min(d);
            max = max.max(d);
        }
        assert!(min >= 90.0 && max <= 110.0, "range [{min}, {max}]");
        assert!(max - min > 10.0, "jitter should spread delays");
    }

    #[test]
    fn egress_bandwidth_serializes_bursts() {
        // 1000 bytes/sec, 100-byte messages => 100ms serialization each.
        let mut net = Network::new(SimConfig::uniform(2, 10.0).with_egress_bandwidth(1000.0));
        let mut rng = Rng::seed_from_u64(5);
        let d1 = tx(&mut net, &mut rng, 0, 1).expect("delivered").as_ms();
        let d2 = tx(&mut net, &mut rng, 0, 1).expect("delivered").as_ms();
        let d3 = tx(&mut net, &mut rng, 0, 1).expect("delivered").as_ms();
        assert!(
            (d1 - 110.0).abs() < 0.01,
            "first: serialization + propagation, got {d1}"
        );
        assert!(
            (d2 - 210.0).abs() < 0.01,
            "second queues behind first, got {d2}"
        );
        assert!((d3 - 310.0).abs() < 0.01, "third queues further, got {d3}");
        // A different sender has its own free uplink.
        let other = tx(&mut net, &mut rng, 1, 0).expect("delivered").as_ms();
        assert!(
            (other - 110.0).abs() < 0.01,
            "per-node uplinks, got {other}"
        );
    }

    #[test]
    fn infinite_bandwidth_has_no_queueing() {
        let mut net = Network::new(SimConfig::uniform(2, 10.0));
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..10 {
            let d = tx(&mut net, &mut rng, 0, 1).expect("delivered").as_ms();
            assert_eq!(d, 10.0);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_loss_panics() {
        let _ = SimConfig::uniform(2, 5.0).with_loss(1.5);
    }

    #[test]
    fn transit_degradation_slows_and_drops_cross_traffic() {
        // Uniform topology: every distinct pair counts as cross-transit.
        let mut net = Network::new(SimConfig::uniform(2, 10.0));
        let mut rng = Rng::seed_from_u64(7);
        net.degrade_transit(3.0, 0.0);
        assert_eq!(net.degradation(), (3.0, 0.0));
        let d = tx(&mut net, &mut rng, 0, 1).expect("no loss").as_ms();
        assert_eq!(d, 30.0);
        net.degrade_transit(1.0, 1.0);
        assert!(tx(&mut net, &mut rng, 0, 1).is_none());
        net.degrade_transit(1.0, 0.0);
        assert_eq!(tx(&mut net, &mut rng, 0, 1).unwrap().as_ms(), 10.0);
    }

    #[test]
    fn degradation_spares_intra_domain_traffic() {
        use egm_topology::TransitStubConfig;
        let model = TransitStubConfig::small()
            .with_clients(16)
            .with_seed(3)
            .build();
        let n = model.client_count();
        let dom = |i: usize| model.client_domain(i).expect("routed model");
        let intra = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && dom(a) == dom(b))
            .expect("some domain holds two clients");
        let cross = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .find(|&(a, b)| dom(a) != dom(b))
            .expect("more than one domain");
        let mut net = Network::new(SimConfig::from_model(model));
        assert!(!net.cross_transit(NodeId(intra.0), NodeId(intra.1)));
        assert!(net.cross_transit(NodeId(cross.0), NodeId(cross.1)));
        let mut rng = Rng::seed_from_u64(9);
        let intra_before = tx(&mut net, &mut rng, intra.0, intra.1).unwrap();
        let cross_before = tx(&mut net, &mut rng, cross.0, cross.1).unwrap();
        net.degrade_transit(2.0, 0.0);
        assert_eq!(
            tx(&mut net, &mut rng, intra.0, intra.1).unwrap(),
            intra_before
        );
        assert_eq!(
            tx(&mut net, &mut rng, cross.0, cross.1).unwrap(),
            cross_before.mul_f64(2.0)
        );
    }

    #[test]
    fn slowdown_adds_receive_side_delay() {
        let mut net = Network::new(SimConfig::uniform(2, 10.0));
        let mut rng = Rng::seed_from_u64(8);
        net.slow_down(NodeId(1), SimDuration::from_ms(5.0));
        assert_eq!(net.slowdown_of(NodeId(1)), SimDuration::from_ms(5.0));
        assert_eq!(tx(&mut net, &mut rng, 0, 1).unwrap().as_ms(), 15.0);
        // Only traffic *into* the slowed node pays the penalty.
        assert_eq!(tx(&mut net, &mut rng, 1, 0).unwrap().as_ms(), 10.0);
        net.slow_down(NodeId(1), SimDuration::ZERO);
        assert_eq!(tx(&mut net, &mut rng, 0, 1).unwrap().as_ms(), 10.0);
    }

    #[test]
    #[should_panic(expected = "lengthen")]
    fn degradation_below_one_panics() {
        let mut net = Network::new(SimConfig::uniform(2, 5.0));
        net.degrade_transit(0.5, 0.0);
    }
}
