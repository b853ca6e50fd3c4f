//! The benchmark's contract with the program: every call into the
//! simulator crates and the server goes through this file, so a refactor
//! of the engines or the `run_*` entry points has one benchmark file to
//! follow. The README lists these functions.

use crate::stats::SplitMix64;
use egm_core::arena::MsgArena;
use egm_core::{MsgId, Payload, StrategySpec};
use egm_simnet::{
    CalendarQueue, Context, EventQueue, HeapQueue, NodeId, PartitionStrategy, ProgressEvent,
    ProgressSink, Protocol, QueueKind, Scheduled, Sim, SimConfig, SimDuration, SimTime, Traffic,
    Wire,
};
use egm_topology::PlanBalance;
use egm_workload::experiments::base_scenario;
use egm_workload::{runner, Arrival, ArrivalProcess};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use egm_topology::RoutedModel;
pub use egm_workload::experiments::scale::ScalePreset as Preset;
pub use egm_workload::experiments::Scale;
pub use egm_workload::runner::{RunOutcome, RunSetup};
pub use egm_workload::Scenario;

/// How one run executes. Always explicit: nothing here is left to the
/// environment or to the machine's core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential engine (`shards = 0`).
    Sequential,
    /// The sharded engine at width `w`, rate-balanced partition.
    Sharded(usize),
}

// ---- Scenario builders ---------------------------------------------------

/// `ScalePreset::scenario` with the engine, partition strategy and event
/// queue pinned on the scenario.
pub fn scale_scenario(preset: Preset, messages: usize, seed: u64, engine: Engine) -> Scenario {
    pin_engine(preset.scenario(messages, seed), engine)
}

/// Pins engine, width, partition strategy and queue kind on a scenario.
pub fn pin_engine(scenario: Scenario, engine: Engine) -> Scenario {
    let queue = QueueKind::auto_for(scenario.node_count());
    let scenario = scenario.with_event_queue(Some(queue));
    match engine {
        Engine::Sequential => scenario.with_shards(Some(0)).with_partition(None),
        Engine::Sharded(w) => scenario
            .with_shards(Some(w))
            .with_partition(Some(PartitionStrategy::RateBalanced)),
    }
}

/// Replaces the uniform-gap traffic plan by open-loop Poisson arrivals.
pub fn with_poisson(scenario: Scenario, rate_per_sec: f64) -> Scenario {
    scenario.with_arrival(Some(Arrival::Open(ArrivalProcess::Poisson {
        rate_per_sec,
    })))
}

/// The figure sweep: 16 strategies × `seeds` over the paper-scale base
/// scenario, every engine knob pinned. Returns the scale (for
/// [`shared_model`]) and the scenarios in sweep order.
pub fn figure_grid(nodes: usize, messages: usize, seeds: &[u64]) -> (Scale, Vec<Scenario>) {
    let mut strategies = Vec::new();
    for pi in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
        strategies.push(StrategySpec::Flat { pi });
    }
    for u in [2u32, 3, 4] {
        strategies.push(StrategySpec::Ttl { u });
    }
    for rho in [15.0, 25.0, 40.0] {
        strategies.push(StrategySpec::Radius { rho, t0_ms: rho });
    }
    for best_fraction in [0.1, 0.2, 0.3, 0.4] {
        strategies.push(StrategySpec::Ranked { best_fraction });
    }
    let scale = Scale {
        nodes,
        messages,
        seed: TOPOLOGY_SEED,
    };
    let mut scenarios = Vec::new();
    for &seed in seeds {
        for strategy in &strategies {
            let scenario = base_scenario(&scale)
                .with_strategy(strategy.clone())
                .with_seed(seed);
            scenarios.push(pin_engine(scenario, Engine::Sequential));
        }
    }
    (scale, scenarios)
}

/// The scenario `POST {"scenario":"smoke","messages":m,"seed":s,"shards":0}`
/// resolves to inside the server.
pub fn smoke_job_scenario(messages: usize, seed: u64) -> Scenario {
    Scenario::smoke_test()
        .with_messages(messages)
        .with_seed(seed)
        .with_shards(Some(0))
}

// ---- Entry points --------------------------------------------------------

/// Seed of the one network model every simulator workload runs on.
pub const TOPOLOGY_SEED: u64 = 42;

/// Builds the scenario's network model from [`TOPOLOGY_SEED`] instead of
/// the scenario's own seed: the benchmark seed varies overlay views,
/// ranking, traffic and every RNG stream, but not the network, so the
/// simulated latencies (and with them the event count) of two seeds stay
/// comparable — the paper, too, holds the model fixed across runs.
pub fn build_model(scenario: &Scenario) -> Arc<RoutedModel> {
    Arc::new(scenario.clone().with_seed(TOPOLOGY_SEED).build_model())
}

pub fn shared_model(scale: &Scale) -> Arc<RoutedModel> {
    egm_workload::experiments::shared_model(scale)
}

pub fn prepare(scenario: &Scenario, model: Option<Arc<RoutedModel>>) -> RunSetup {
    runner::prepare(scenario, model)
}

pub fn run_prepared(scenario: &Scenario, setup: &RunSetup) -> RunOutcome {
    runner::run_prepared(scenario, setup)
}

pub fn run_prepared_observed(
    scenario: &Scenario,
    setup: &RunSetup,
    sink: Arc<FrameSink>,
) -> RunOutcome {
    runner::run_prepared_observed(scenario, setup, sink)
}

pub fn run_sweep(scenarios: Vec<Scenario>, model: Arc<RoutedModel>) -> Vec<RunOutcome> {
    runner::run_sweep(scenarios, Some(model))
}

/// One chunk (sequential engine) or window (sharded engine) boundary,
/// timestamped by the harness as it arrives.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    pub at: Instant,
    /// Virtual time reached, ms.
    pub now_ms: f64,
    /// Events dispatched so far.
    pub events: u64,
}

/// Observe-only progress sink that timestamps chunk/window frames.
#[derive(Debug, Default)]
pub struct FrameSink(Mutex<Vec<Frame>>);

impl FrameSink {
    pub fn take(&self) -> Vec<Frame> {
        std::mem::take(&mut *self.0.lock().expect("frame sink poisoned"))
    }
}

impl ProgressSink for FrameSink {
    fn emit(&self, event: ProgressEvent) {
        let (now_ms, events) = match event {
            ProgressEvent::Chunk { now_ms, events } => (now_ms, events),
            ProgressEvent::Window { now_us, events, .. } => (now_us as f64 / 1000.0, events),
            _ => return,
        };
        let frame = Frame {
            at: Instant::now(),
            now_ms,
            events,
        };
        if let Ok(mut frames) = self.0.lock() {
            frames.push(frame);
        }
    }
}

// ---- Outcome readers -----------------------------------------------------

/// FNV-1a over the deterministic part of an outcome: event count, report,
/// latency histogram and steady-state block. Equal fingerprints mean the
/// run computed the same thing.
pub fn fingerprint(outcome: &RunOutcome) -> u64 {
    let text = format!(
        "{}|{:?}|{:?}|{:?}",
        outcome.events, outcome.report, outcome.latency, outcome.steady
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Whether every message of the scenario was multicast and logged.
pub fn every_message_multicast(scenario: &Scenario, outcome: &RunOutcome) -> bool {
    outcome.log.message_count() == scenario.messages
        && (0..scenario.messages).all(|m| outcome.log.delivery_count(m) > 0)
}

/// The configuration that actually took effect, for the run record.
pub fn resolved_config(scenario: &Scenario, outcome: &RunOutcome) -> Vec<(&'static str, String)> {
    let stats = &outcome.shard_stats;
    let engine = match scenario.shards {
        Some(0) => "sequential",
        Some(_) => "sharded",
        None => "auto",
    };
    let queue = if outcome.queue.bucket_count > 0 {
        "calendar"
    } else {
        "heap"
    };
    vec![
        ("engine", engine.to_string()),
        ("shards", stats.shards.to_string()),
        ("partition", stats.strategy.name().to_string()),
        ("lookahead_us", stats.lookahead_us.to_string()),
        ("queue", queue.to_string()),
        ("nodes", scenario.node_count().to_string()),
        ("messages", scenario.messages.to_string()),
        ("rank_source", scenario.rank_source.label()),
        ("strategy", scenario.strategy.label()),
    ]
}

// ---- Layer probes --------------------------------------------------------

/// `n` uniform random client pairs.
pub fn uniform_pairs(model: &RoutedModel, n: usize, rng: &mut SplitMix64) -> Vec<(u32, u32)> {
    let clients = model.client_count();
    (0..n)
        .map(|_| (rng.below(clients) as u32, rng.below(clients) as u32))
        .collect()
}

/// `n` pairs drawn from the links the run actually used, weighted by the
/// payloads each carried, in shuffled order.
pub fn traffic_pairs(outcome: &RunOutcome, n: usize, rng: &mut SplitMix64) -> Vec<(u32, u32)> {
    let links = &outcome.payload_links;
    let total: u64 = links.iter().map(|&(_, c)| c).sum();
    let mut pairs = Vec::with_capacity(n);
    if total == 0 {
        return pairs;
    }
    // Each link gets its share of `n`, rounded up so no used link vanishes.
    for &((from, to), count) in links {
        let share = (count as u128 * n as u128).div_ceil(total as u128) as usize;
        for _ in 0..share {
            pairs.push((from.index() as u32, to.index() as u32));
        }
    }
    rng.shuffle(&mut pairs);
    pairs.truncate(n);
    pairs
}

/// Time for `RoutedModel::latency_ms` over `pairs`.
pub fn time_latency_lookups(model: &RoutedModel, pairs: &[(u32, u32)]) -> Duration {
    let start = Instant::now();
    let mut sum = 0.0f64;
    for &(a, b) in pairs {
        sum += model.latency_ms(a as usize, b as usize);
    }
    black_box(sum);
    start.elapsed()
}

/// Time for the two-shard rate-balanced plan plus its lookahead floor.
pub fn time_partition_plan(scenario: &Scenario, model: &RoutedModel) -> Duration {
    let start = Instant::now();
    let plan = model.partition_plan(
        2,
        PlanBalance::Rate {
            fanout: scenario.protocol.fanout,
            view_degree: scenario.protocol.view.capacity,
        },
    );
    if let Some(plan) = &plan {
        black_box(model.min_cross_partition_latency_ms(plan.assignment()));
    }
    black_box(plan);
    start.elapsed()
}

/// Time for the scenario's rank source to produce a best set.
pub fn time_rank(scenario: &Scenario, model: &RoutedModel) -> Duration {
    let fraction = scenario.strategy.best_fraction().unwrap_or(0.2);
    let start = Instant::now();
    black_box(scenario.rank_source.best_set(
        model,
        fraction,
        &scenario.protocol.view,
        scenario.seed,
    ));
    start.elapsed()
}

/// Time for `ops` message lifecycles on one arena holding `live` slots:
/// intern → mark → cache → schedule retirement → retire what expired.
pub fn time_arena_cycles(scenario: &Scenario, live: usize, ops: usize) -> Duration {
    let protocol = &scenario.protocol;
    let live = live.clamp(1, protocol.known_capacity);
    let mut arena = MsgArena::new(protocol.known_capacity, protocol.cache_capacity, false);
    let cycle = |arena: &mut MsgArena, i: usize| {
        let slot = arena.intern(MsgId::from_raw(i as u128 + 1));
        arena.mark_known(slot);
        arena.mark_received(slot);
        let payload = Payload {
            seq: i as u64,
            bytes: protocol.payload_bytes,
        };
        arena.cache_put(slot, payload, 1);
        // One tick per message and a horizon of `live` ticks keeps
        // exactly `live` slots resident.
        arena.schedule_retire(slot, SimTime::from_micros((i + live) as u64));
        black_box(arena.retire_expired(SimTime::from_micros(i as u64)));
    };
    for i in 0..live {
        cycle(&mut arena, i);
    }
    let start = Instant::now();
    for i in live..live + ops {
        cycle(&mut arena, i);
    }
    black_box(arena.stats());
    start.elapsed()
}

/// Time for `ops` pop-then-push pairs (the hold model) on the queue the
/// simulator would select for `nodes`, held at `fill` entries, with
/// increments drawn from `gaps_us`.
pub fn time_queue_hold(nodes: usize, fill: usize, gaps_us: &[u64], ops: usize) -> Duration {
    fn hold<Q: EventQueue<u32>>(
        queue: &mut Q,
        fill: usize,
        gaps_us: &[u64],
        ops: usize,
    ) -> Duration {
        let mut seq = 0u64;
        let mut push = |queue: &mut Q, at: u64| {
            queue.push(Scheduled {
                time: SimTime::from_micros(at),
                seq,
                item: 0u32,
            });
            seq += 1;
        };
        for i in 0..fill {
            push(queue, gaps_us[i % gaps_us.len()]);
        }
        let start = Instant::now();
        for i in 0..ops {
            let next = queue.pop_next(None).expect("hold model never drains");
            push(queue, next.time.as_micros() + gaps_us[i % gaps_us.len()]);
        }
        black_box(queue.len());
        start.elapsed()
    }
    let fill = fill.max(1);
    match QueueKind::auto_for(nodes) {
        QueueKind::Calendar => hold(&mut CalendarQueue::new(), fill, gaps_us, ops),
        QueueKind::Heap => hold(&mut HeapQueue::with_capacity(fill), fill, gaps_us, ops),
    }
}

/// Times for replaying `pairs` through `Traffic::record` at the
/// scenario's spill threshold, and for the `seal()` that follows.
pub fn time_traffic_replay(scenario: &Scenario, pairs: &[(u32, u32)]) -> (Duration, Duration) {
    let mut traffic =
        Traffic::with_spill_threshold(scenario.link_spill_threshold.unwrap_or(usize::MAX));
    traffic.reserve_nodes(scenario.node_count());
    let bytes = scenario.protocol.payload_bytes + scenario.protocol.header_bytes;
    let start = Instant::now();
    for &(from, to) in pairs {
        traffic.record(NodeId(from as usize), NodeId(to as usize), bytes, true);
    }
    let record = start.elapsed();
    let start = Instant::now();
    traffic.seal();
    black_box(traffic.link_count());
    (record, start.elapsed())
}

/// Time for the delivery-log queries a report is built from.
pub fn time_log_queries(outcome: &RunOutcome) -> Duration {
    let eligible = vec![true; outcome.log.node_count()];
    let start = Instant::now();
    black_box(outcome.log.latencies());
    black_box(outcome.log.latency_summary());
    black_box(outcome.log.mean_delivery_fraction(&eligible));
    start.elapsed()
}

#[derive(Clone, Debug)]
struct RelayMsg(u32);

impl Wire for RelayMsg {
    fn wire_bytes(&self) -> u32 {
        280
    }
    fn is_payload(&self) -> bool {
        true
    }
}

/// Fan-out relay: forwards each message once to a fixed peer list. Queue,
/// network and traffic accounting do the same work per event as under
/// `EgmNode`; the handler does almost none.
struct RelayNode {
    peers: Vec<NodeId>,
    seen: Vec<bool>,
}

impl RelayNode {
    fn relay(&mut self, ctx: &mut Context<'_, RelayMsg>, id: u32) {
        if std::mem::replace(&mut self.seen[id as usize], true) {
            return;
        }
        for &peer in &self.peers {
            ctx.send(peer, RelayMsg(id));
        }
    }
}

impl Protocol for RelayNode {
    type Msg = RelayMsg;

    fn on_receive(&mut self, ctx: &mut Context<'_, RelayMsg>, _from: NodeId, msg: RelayMsg) {
        self.relay(ctx, msg.0);
    }

    fn on_command(&mut self, ctx: &mut Context<'_, RelayMsg>, value: u64) {
        self.relay(ctx, value as u32);
    }
}

/// Runs the relay protocol over the scenario's network configuration on
/// the sequential `Sim` until about `target_events` events were
/// dispatched; returns `(event loop wall time, events)`.
pub fn time_relay_sim(
    scenario: &Scenario,
    model: &RoutedModel,
    target_events: usize,
    rng: &mut SplitMix64,
) -> (Duration, u64) {
    let n = scenario.node_count();
    let fanout = scenario.protocol.fanout.min(n - 1).max(1);
    let messages = target_events.div_ceil(n * fanout).max(1);
    let nodes: Vec<RelayNode> = (0..n)
        .map(|i| RelayNode {
            peers: (0..fanout)
                .map(|_| NodeId((i + 1 + rng.below(n - 1)) % n))
                .collect(),
            seen: vec![false; messages],
        })
        .collect();
    let mut config = SimConfig::from_model(model.clone())
        .with_loss(scenario.loss)
        .with_jitter(scenario.jitter)
        .with_event_queue(QueueKind::auto_for(n));
    if let Some(links) = scenario.link_spill_threshold {
        config = config.with_link_spill_threshold(links);
    }
    let mut sim = Sim::new(config, scenario.seed, nodes);
    let gap = SimDuration::from_ms(scenario.mean_interval_ms);
    let mut at = SimTime::from_ms(1.0);
    for m in 0..messages {
        sim.schedule_command(at, NodeId(rng.below(n)), m as u64);
        at += gap;
    }
    let start = Instant::now();
    sim.run_until(at + SimDuration::from_ms(scenario.drain_ms));
    (start.elapsed(), sim.events_processed())
}

// ---- Server --------------------------------------------------------------

/// What the `egm_server` binary's `main` does: configure from the
/// environment, bind, announce the address on stdout, serve forever.
pub fn serve_from_env() -> std::io::Result<()> {
    let server = egm_server::Server::bind(egm_server::ServerConfig::from_env())?;
    println!("listening {}", server.local_addr()?);
    server.serve()
}
