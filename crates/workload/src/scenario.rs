//! Scenario description: everything one experiment run needs.

use crate::arrival::Arrival;
use crate::faults::{ChurnPlan, FaultPlan, FaultSchedule, RerankPlan};
use crate::runner::{self, RunOutcome};
use egm_core::{MonitorSpec, ProtocolConfig, RankSource, StrategySpec};
use egm_simnet::QueueKind;
use egm_topology::{RoutedModel, TransitStubConfig};

/// Salt XORed into the scenario seed for topology construction, keeping
/// the topology stream independent of the harness stream (views,
/// victims, traffic) and the rank-source stream. One definition shared
/// by the runner, experiments, tests and benches — see
/// [`Scenario::build_model`].
pub const TOPOLOGY_SEED_SALT: u64 = 0x7090;

/// Where the network model comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySource {
    /// Generate a transit–stub model (the paper's Inet-3.0 setting).
    TransitStub(TransitStubConfig),
    /// Synthetic uniform pairwise latencies — fast, for tests.
    Uniform {
        /// Number of clients.
        nodes: usize,
        /// Lower latency bound (ms).
        lo_ms: f64,
        /// Upper latency bound (ms).
        hi_ms: f64,
    },
    /// Synthetic planar model: latency proportional to distance.
    Planar {
        /// Number of clients.
        nodes: usize,
        /// Plane side in map units.
        plane: f64,
        /// Milliseconds per map unit.
        ms_per_unit: f64,
    },
}

impl TopologySource {
    /// Number of clients this source will produce.
    pub fn node_count(&self) -> usize {
        match self {
            TopologySource::TransitStub(c) => c.clients,
            TopologySource::Uniform { nodes, .. } | TopologySource::Planar { nodes, .. } => *nodes,
        }
    }

    /// Builds the routed model with the given seed.
    pub fn build(&self, seed: u64) -> RoutedModel {
        match self {
            TopologySource::TransitStub(c) => c.clone().with_seed(seed).build(),
            TopologySource::Uniform {
                nodes,
                lo_ms,
                hi_ms,
            } => RoutedModel::uniform_synthetic(*nodes, *lo_ms, *hi_ms, seed),
            TopologySource::Planar {
                nodes,
                plane,
                ms_per_unit,
            } => RoutedModel::planar_synthetic(*nodes, *plane, *ms_per_unit, seed),
        }
    }
}

/// Noise injection configuration (§4.3): ratio `o` plus the calibration
/// constant `c` (the strategy's overall eager rate, see
/// [`crate::calibrate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Noise ratio `o ∈ [0, 1]`.
    pub o: f64,
    /// Calibration constant `c ∈ [0, 1]`.
    pub c: f64,
}

/// A complete experiment description.
///
/// Use the builder-style `with_*` methods to derive variants; see the
/// crate-level example.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Network model source.
    pub topology: TopologySource,
    /// Per-node protocol parameters.
    pub protocol: ProtocolConfig,
    /// The transmission strategy all nodes run.
    pub strategy: StrategySpec,
    /// The performance monitor all nodes host.
    pub monitor: MonitorSpec,
    /// Optional noise wrapper around the strategy.
    pub noise: Option<NoiseConfig>,
    /// Optional fault plan (node silencing after warm-up, §6.3).
    pub faults: Option<FaultPlan>,
    /// Optional transient churn during dissemination (extension).
    pub churn: Option<ChurnPlan>,
    /// Optional explicit fault trace (extension): timed
    /// silence/revive/degrade/slowdown events replayed verbatim, on top
    /// of whatever `faults`/`churn` schedule. See
    /// [`FaultSchedule`] for the library scenarios (correlated domain
    /// outages, transit degradation, flash crowds, node slowdowns).
    pub fault_schedule: Option<FaultSchedule>,
    /// Optional online re-ranking during warm-up (extension): periodic
    /// re-rank barriers through [`Scenario::rank_source`], excluding
    /// nodes the fault schedule has down at each tick. See
    /// [`RerankPlan`].
    pub rerank: Option<RerankPlan>,
    /// Number of multicast messages (400 in §5.3).
    pub messages: usize,
    /// Mean interval between multicasts in ms (500 in §5.3; actual gaps
    /// are uniform in `[0, 2 × mean)`). Ignored when [`Scenario::arrival`]
    /// is set.
    pub mean_interval_ms: f64,
    /// Heavy-traffic workload axis (`None` = the historical uniform-gap
    /// plan, byte-identical to pre-arrival builds): an open-loop Poisson
    /// process at a fixed offered rate. See [`crate::arrival`].
    pub arrival: Option<Arrival>,
    /// Warm-up time before traffic starts (overlay joins and shuffles).
    pub warmup_ms: f64,
    /// Drain time after the last multicast before measurement stops.
    pub drain_ms: f64,
    /// Per-message network loss probability.
    pub loss: f64,
    /// Network jitter fraction.
    pub jitter: f64,
    /// Per-node egress bandwidth in bytes/second (`None` = unconstrained).
    /// Models the burst serialization the paper observes on its testbed
    /// (§5.3).
    pub egress_bandwidth: Option<f64>,
    /// Bound on individually tracked links in traffic accounting (`None`
    /// = unbounded). Scale scenarios set this so link accounting stays
    /// sparse: only that many links, the smallest in `(from, to)` order, are
    /// tracked, and the payloads of the rest sum into one aggregate
    /// spilled count (totals and per-node payload counts remain exact). See
    /// [`egm_simnet::SimConfig::with_link_spill_threshold`].
    pub link_spill_threshold: Option<usize>,
    /// Forces a simulator event-queue implementation (`None` = the
    /// simulator's size-based selection). Both implementations dispatch in bit-identical order —
    /// the `queue_determinism` test runs the same scenario through both
    /// and asserts byte-identical results — so this is a performance A/B
    /// switch, never a behavioural one.
    pub event_queue: Option<QueueKind>,
    /// How the best set is ranked when the strategy needs one
    /// ([`RankSource::Oracle`] = the historical O(n²) centrality sweep;
    /// the decentralized sources cost O(n·k) and are what the scale
    /// presets use). Ignored when [`Scenario::best_override`] is set or
    /// the strategy is environment-free. Decentralized sources draw from
    /// their own RNG stream (forked from the scenario seed), so switching
    /// the source never perturbs view bootstrap, fault selection or
    /// traffic randomness — and oracle runs stay byte-identical to
    /// pre-`RankSource` builds.
    pub rank_source: RankSource,
    /// How many shards partition the run (`None` = the simulator's
    /// default: one shard below 1k nodes, available parallelism capped
    /// at [`egm_simnet::shard::MAX_AUTO_SHARDS`] above).
    /// `Some(0)` and `Some(1)` both mean one shard, the plain sequential
    /// event loop; `Some(w)` runs `w` shards under conservative windows.
    /// Every choice is byte-identical — the `shard_determinism` test
    /// runs the same scenario at several widths and asserts equal
    /// outputs — so this is purely a performance knob. See
    /// [`egm_simnet::Sim::with_shards`] and
    /// [`egm_simnet::SimConfig::shard_count`].
    pub shards: Option<usize>,
    /// How a multi-shard run maps nodes to shards (`None` = auto:
    /// domain-aligned when the topology yields a plan, contiguous
    /// otherwise). Every
    /// strategy is byte-identical — the `shard_equivalence` proptests
    /// and the `shard_determinism` suite assert it — so this is purely a
    /// performance knob. See
    /// [`egm_simnet::PartitionStrategy`].
    pub partition: Option<egm_simnet::PartitionStrategy>,
    /// Overrides the best-node set computed from the strategy spec (used
    /// to plug in externally computed / estimated rankings, e.g. the
    /// `rank_quality` experiment's degraded estimators).
    pub best_override: Option<std::sync::Arc<egm_core::BestSet>>,
    /// Master seed: drives topology, views, node RNGs and the network.
    pub seed: u64,
}

impl Scenario {
    /// The paper's experimental configuration (§5.2–§5.3): 100 nodes on a
    /// transit–stub model, 400 × 256 B messages at 500 ms mean interval,
    /// fanout 11, overlay fanout 15, 400 ms retransmission period.
    pub fn paper_default() -> Self {
        Scenario {
            topology: TopologySource::TransitStub(TransitStubConfig::default()),
            protocol: ProtocolConfig::default(),
            strategy: StrategySpec::Flat { pi: 1.0 },
            monitor: MonitorSpec::OracleLatency,
            noise: None,
            faults: None,
            churn: None,
            fault_schedule: None,
            rerank: None,
            messages: 400,
            mean_interval_ms: 500.0,
            arrival: None,
            warmup_ms: 3000.0,
            drain_ms: 5000.0,
            loss: 0.0,
            jitter: 0.0,
            egress_bandwidth: None,
            link_spill_threshold: None,
            event_queue: None,
            shards: None,
            partition: None,
            rank_source: RankSource::Oracle,
            best_override: None,
            seed: 42,
        }
    }

    /// A small, fast configuration for unit/integration tests: 24 nodes
    /// on a uniform 39–60 ms synthetic network, 30 messages.
    pub fn smoke_test() -> Self {
        Scenario {
            topology: TopologySource::Uniform {
                nodes: 24,
                lo_ms: 39.0,
                hi_ms: 60.0,
            },
            protocol: ProtocolConfig {
                fanout: 6,
                rounds: 5,
                shuffle_interval: None,
                ..ProtocolConfig::default()
            },
            monitor: MonitorSpec::OracleLatency,
            messages: 30,
            mean_interval_ms: 100.0,
            warmup_ms: 200.0,
            drain_ms: 3000.0,
            ..Scenario::paper_default()
        }
    }

    /// Number of protocol nodes.
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// Builds this scenario's network model exactly as a cold run would
    /// ([`Scenario::run`], or [`crate::runner::prepare`] with no model
    /// override): the topology source seeded with `seed ^`
    /// [`TOPOLOGY_SEED_SALT`].
    ///
    /// Benches and A/B tests that pre-build a model to share across runs
    /// must use this (not a hand-derived seed), or the model they measure
    /// on could drift from the model the runs would build themselves.
    pub fn build_model(&self) -> RoutedModel {
        self.topology.build(self.seed ^ TOPOLOGY_SEED_SALT)
    }

    /// Sets the strategy (builder style).
    pub fn with_strategy(mut self, strategy: StrategySpec) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the monitor (builder style).
    pub fn with_monitor(mut self, monitor: MonitorSpec) -> Self {
        self.monitor = monitor;
        self
    }

    /// Sets the noise configuration (builder style).
    pub fn with_noise(mut self, noise: Option<NoiseConfig>) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the fault plan (builder style).
    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the churn plan (builder style).
    pub fn with_churn(mut self, churn: Option<ChurnPlan>) -> Self {
        self.churn = churn;
        self
    }

    /// Sets the explicit fault trace (builder style); see
    /// [`Scenario::fault_schedule`].
    pub fn with_fault_schedule(mut self, schedule: Option<FaultSchedule>) -> Self {
        self.fault_schedule = schedule;
        self
    }

    /// Enables online re-ranking during warm-up (builder style); see
    /// [`Scenario::rerank`].
    pub fn with_rerank(mut self, rerank: Option<RerankPlan>) -> Self {
        self.rerank = rerank;
        self
    }

    /// Overrides the best-node set (builder style).
    pub fn with_best_override(mut self, best: Option<std::sync::Arc<egm_core::BestSet>>) -> Self {
        self.best_override = best;
        self
    }

    /// Selects how best nodes are ranked (builder style).
    pub fn with_rank_source(mut self, source: RankSource) -> Self {
        self.rank_source = source;
        self
    }

    /// Bounds link-accounting memory (builder style).
    pub fn with_link_spill_threshold(mut self, links: Option<usize>) -> Self {
        self.link_spill_threshold = links;
        self
    }

    /// Forces an event-queue implementation (builder style).
    pub fn with_event_queue(mut self, queue: Option<QueueKind>) -> Self {
        self.event_queue = queue;
        self
    }

    /// Forces a shard count (builder style); see [`Scenario::shards`].
    pub fn with_shards(mut self, shards: Option<usize>) -> Self {
        self.shards = shards;
        self
    }

    /// Forces a partition strategy (builder style); see
    /// [`Scenario::partition`].
    pub fn with_partition(mut self, partition: Option<egm_simnet::PartitionStrategy>) -> Self {
        self.partition = partition;
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the message count (builder style).
    pub fn with_messages(mut self, messages: usize) -> Self {
        self.messages = messages;
        self
    }

    /// Selects the arrival mode (builder style); see [`Scenario::arrival`].
    pub fn with_arrival(mut self, arrival: Option<Arrival>) -> Self {
        self.arrival = arrival;
        self
    }

    /// Runs the scenario cold: builds its [`crate::runner::RunSetup`]
    /// (topology from the scenario seed, ranking, views) and executes it
    /// by value, so nothing is cloned.
    ///
    /// To share a model or a setup across runs — the paper holds the
    /// network fixed while varying strategy — use
    /// [`crate::runner::prepare`] with [`crate::runner::run_prepared`], or
    /// [`crate::runner::run_sweep`] for a batch.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is inconsistent (fewer than two nodes, zero
    /// messages, a mis-sized best-set override).
    pub fn run(&self) -> RunOutcome {
        runner::execute(self, runner::prepare(self, None), None)
    }
}

#[cfg(test)]
mod tests {
    use super::{Scenario, TopologySource};

    #[test]
    fn paper_default_matches_section_5() {
        let s = Scenario::paper_default();
        assert_eq!(s.node_count(), 100);
        assert_eq!(s.messages, 400);
        assert_eq!(s.mean_interval_ms, 500.0);
        assert_eq!(s.protocol.fanout, 11);
    }

    #[test]
    fn topology_sources_build_expected_sizes() {
        let u = TopologySource::Uniform {
            nodes: 8,
            lo_ms: 1.0,
            hi_ms: 2.0,
        };
        assert_eq!(u.node_count(), 8);
        assert_eq!(u.build(1).client_count(), 8);
        let p = TopologySource::Planar {
            nodes: 5,
            plane: 100.0,
            ms_per_unit: 0.5,
        };
        assert_eq!(p.build(2).client_count(), 5);
    }

    #[test]
    fn builders_compose() {
        use egm_core::StrategySpec;
        let s = Scenario::smoke_test()
            .with_strategy(StrategySpec::Ttl { u: 2 })
            .with_seed(9)
            .with_messages(5);
        assert_eq!(s.seed, 9);
        assert_eq!(s.messages, 5);
        assert_eq!(s.strategy, StrategySpec::Ttl { u: 2 });
    }
}
