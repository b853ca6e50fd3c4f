//! Scenario execution: prepare (topology, ranking, views) → warm up →
//! inject faults → multicast → drain → measure.
//!
//! The deterministic *prefix* of a run — building the routed model,
//! ranking the best set, bootstrapping overlay views and positioning the
//! harness RNG — is factored into [`RunSetup`] so repeated or related
//! runs can amortize it: [`prepare`] once, then [`run_prepared`] (or
//! [`run_prepared_observed`]) many times, each byte-identical to a cold
//! [`Scenario::run`]. [`run_sweep`] applies the same amortization
//! automatically, sharing one setup across all scenarios whose setup
//! inputs (topology, seed, view config, rank configuration) coincide — at
//! 10 000 nodes this removes ~0.2 s of view construction plus the
//! ranking cost from every run after the first.
//!
//! These four functions and [`Scenario::run`] are the only ways into the
//! engine; [`RunOutcome::first_difference`] is the one way to say two
//! runs agree.

use crate::arrival::{self, Arrival, SteadyState};
use crate::faults::{FaultSchedule, RerankPlan, TimedFault};
use crate::scenario::Scenario;
use crate::traffic;
use egm_core::{BestSet, EgmNode, SchedulerStats};
use egm_membership::PartialView;
use egm_metrics::{link, Delivery, DeliveryLog, LatencyHistogram, RunReport};
use egm_rng::Rng;
use egm_simnet::{
    Fault, FoldStats, NodeId, ProgressEvent, QueueStats, ShardStats, SharedSink, Sim, SimConfig,
    SimDuration, SimTime,
};
use egm_topology::RoutedModel;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Salt XORed into the scenario seed for the rank-source RNG stream.
///
/// Decentralized rank sources draw from this dedicated stream, so they
/// never perturb the harness stream (views, victims, traffic) — which is
/// why oracle-ranked runs are byte-identical whether or not any
/// decentralized source exists in the build.
const RANK_SEED_SALT: u64 = 0x524E_4B53;

/// Virtual-time slice an *observed* one-shard run advances per
/// [`ProgressEvent::Chunk`]. A pure constant (never derived from live
/// state), so chunked execution replays the exact event schedule of one
/// uninterrupted `run_until` — the same argument that makes the re-rank
/// ticks byte-identical across shard counts.
const PROGRESS_CHUNK_MS: f64 = 500.0;

/// Everything measured in one run: the summary report plus the raw data
/// the figure harnesses and examples drill into.
#[derive(Debug)]
pub struct RunOutcome {
    /// The aggregated report (one figure point).
    pub report: RunReport,
    /// Full multicast/delivery log.
    pub log: DeliveryLog,
    /// Payload counts per directed link that carried any traffic,
    /// alongside the link endpoints.
    pub payload_links: Vec<((NodeId, NodeId), u64)>,
    /// Payloads sent per node.
    pub payloads_per_node: Vec<u64>,
    /// Nodes silenced by the fault plan.
    pub victims: Vec<NodeId>,
    /// Ids of best nodes (empty when the strategy has none). With online
    /// re-ranking this is the *initial* set; the final set is in
    /// [`RunOutcome::reranked_best_ids`].
    pub best_ids: Vec<NodeId>,
    /// Ids of the best set after the last online re-rank tick (`None`
    /// unless [`Scenario::rerank`] is set). Comparing against
    /// [`RunOutcome::best_ids`] measures hub-overlap stability under
    /// churn.
    pub reranked_best_ids: Option<Vec<NodeId>>,
    /// Aggregated scheduler counters over all nodes.
    pub scheduler: SchedulerStats,
    /// Simulator events processed by the run (perf accounting; stale
    /// cancelled-timer pops are excluded, see [`egm_simnet::Sim`]).
    pub events: u64,
    /// Request timers cancelled before firing (index-free cancellation).
    pub timers_cancelled: u64,
    /// Cancelled timer events dropped at pop time without dispatch.
    pub stale_timer_drops: u64,
    /// Event-queue counters (pushes/pops plus calendar-queue geometry).
    /// On several shards these aggregate the per-shard queues, so they are
    /// comparable across runs of one width but not across widths
    /// (replicated fault events are queued once per shard).
    pub queue: QueueStats,
    /// Messages retired from the per-node arenas after their horizon
    /// elapsed, summed over all nodes (zero unless the scenario sets
    /// [`egm_core::ProtocolConfig::retire_after`]).
    pub retired_messages: u64,
    /// Largest number of arena slots simultaneously live on any one node
    /// — the steady-state working-set ceiling retirement bounds.
    pub arena_high_water: usize,
    /// Hot-path reallocations of the per-node payload table (pinned to
    /// zero by the scale regression tests — the table is pre-sized).
    pub payload_vec_growths: u32,
    /// Publish→delivery latency histogram over messages published in the
    /// steady-state window (log-bucketed, O(1) memory, ≤ 1/32 relative
    /// error on the percentiles; see [`egm_metrics::LatencyHistogram`]).
    /// The window is the whole traffic phase, so this covers every
    /// delivery.
    pub latency: LatencyHistogram,
    /// Steady-state throughput block: post-warm-up window bounds, the
    /// messages published and delivered within it, and the corresponding
    /// rates per simulated second.
    pub steady: SteadyState,
    /// Largest link-accumulator working set the shard-merge path held at
    /// any instant while folding per-shard traffic (zero for one-shard
    /// runs and unbounded merges; bounded by the spill threshold
    /// otherwise — the shard-merge regression test pins this).
    pub traffic_acc_peak: usize,
    /// Folds of the traffic log into its link table and the send records
    /// they carried, summed over shards. Observe-only: where folds fall
    /// depends on how senders are split over shards.
    pub traffic_folds: FoldStats,
    /// Window-loop counters: shard count, effective partition strategy,
    /// window lookahead (configured and realized), windows executed,
    /// cross-shard lane events/flushes/skips, and per-shard event counts
    /// (the observable partition balance). A one-shard run reports zero
    /// windows.
    pub shard_stats: ShardStats,
    /// The network model the run used.
    pub model: Arc<RoutedModel>,
}

impl RunOutcome {
    /// Names the first field, in declaration order, on which two outcomes
    /// of the same scenario disagree, or `None` when they are
    /// byte-identical — the one determinism check behind every rerun,
    /// width, queue, sink, sweep and prepared-setup A/B in the workspace.
    ///
    /// Every field is compared except the five that legitimately vary
    /// with the engine choice or the sharing: `queue` (queue geometry,
    /// replicated fault pushes), `traffic_acc_peak` (the shard-merge
    /// working set), `traffic_folds` (the traffic log's fold work),
    /// `shard_stats` (window and lane counters) and `model` (a shared
    /// handle, built from the scenario's setup inputs).
    pub fn first_difference(&self, other: &RunOutcome) -> Option<&'static str> {
        // Destructuring without `..` makes a new field a compile error
        // here until it is classified as compared or engine-dependent.
        macro_rules! first_differing {
            ($($field:ident),* ; skip $($skip:ident),*) => {{
                let RunOutcome { $($field,)* $($skip: _,)* } = self;
                $(if *$field != other.$field {
                    return Some(stringify!($field));
                })*
                None
            }};
        }
        first_differing!(
            report, log, payload_links, payloads_per_node, victims, best_ids,
            reranked_best_ids, scheduler, events, timers_cancelled, stale_timer_drops,
            retired_messages, arena_high_water, payload_vec_growths, latency, steady;
            skip queue, traffic_acc_peak, traffic_folds, shard_stats, model
        )
    }
}

/// The deterministic pre-run state of a scenario: the routed model, the
/// ranked best set, the bootstrapped overlay views, and the harness RNG
/// positioned exactly where a cold run would leave it after view
/// bootstrap.
///
/// Build one with [`prepare`] and execute with [`run_prepared`]; the
/// outcome is byte-identical to [`Scenario::run`] because the setup is a
/// pure function of the scenario's setup inputs and each run works on a
/// clone. This is how the scale benches separate the *fixed per-run
/// cost* (ranking + construction, paid once here) from steady-state
/// event-loop throughput.
#[derive(Debug, Clone)]
pub struct RunSetup {
    model: Arc<RoutedModel>,
    best: Option<Arc<BestSet>>,
    views: Vec<PartialView>,
    rng: Rng,
    /// The sharing key of the scenario this setup was computed from; every
    /// run asserts it against the scenario it is handed, so a setup can
    /// never silently be replayed under a scenario whose setup inputs
    /// (topology, seed, view config, rank config) drifted.
    key: String,
}

impl RunSetup {
    /// The setup-sharing key: scenarios with equal keys produce
    /// bit-identical setups, so [`run_sweep`] computes the setup once per
    /// distinct key. Distinct `best_override` allocations hash by
    /// identity — equal-but-separate sets merely forgo sharing.
    fn key(scenario: &Scenario) -> String {
        use std::fmt::Write;
        let mut key = String::new();
        write!(
            key,
            "{:?}|{:?}|{}",
            scenario.topology, scenario.protocol.view, scenario.seed
        )
        .expect("write to String");
        match (&scenario.best_override, scenario.strategy.best_fraction()) {
            (Some(b), _) => write!(key, "|override:{:p}", Arc::as_ptr(b)).expect("write"),
            (None, Some(fraction)) => {
                write!(key, "|{:?}:{}", scenario.rank_source, fraction.to_bits()).expect("write")
            }
            (None, None) => key.push_str("|no-best"),
        }
        key
    }
}

/// Computes the deterministic pre-run state of `scenario` (see
/// [`RunSetup`]): topology, ranking, overlay views. `model` overrides
/// topology construction (it must match the scenario's node count).
///
/// # Panics
///
/// Panics if the scenario has fewer than two nodes, or a provided model
/// or best-set override mismatches the node count.
pub fn prepare(scenario: &Scenario, model: Option<Arc<RoutedModel>>) -> RunSetup {
    let n = scenario.node_count();
    assert!(n > 1, "need at least two nodes");
    let model = model.unwrap_or_else(|| Arc::new(scenario.build_model()));
    assert_eq!(model.client_count(), n, "model size must match scenario");

    let best = match &scenario.best_override {
        Some(b) => {
            assert_eq!(b.len(), n, "best-set override must cover all nodes");
            Some(b.clone())
        }
        None => scenario.strategy.best_fraction().map(|fraction| {
            scenario
                .rank_source
                .best_set(
                    &model,
                    fraction,
                    &scenario.protocol.view,
                    scenario.seed ^ RANK_SEED_SALT,
                )
                .shared()
        }),
    };

    // Harness randomness (views, victims, traffic plan) is forked from
    // the scenario seed, independent of the simulator's own streams —
    // and of the rank source's stream, see `RANK_SEED_SALT`.
    let mut rng = Rng::seed_from_u64(scenario.seed ^ 0xE1A7_BEEF);
    let views = egm_membership::bootstrap_views(n, &scenario.protocol.view, &mut rng);
    RunSetup {
        model,
        best,
        views,
        rng,
        key: RunSetup::key(scenario),
    }
}

/// Runs a scenario over a previously [`prepare`]d setup, skipping
/// topology construction, ranking and view bootstrap. Byte-identical to
/// [`Scenario::run`] on the same scenario.
///
/// The scenario may differ from the one the setup was prepared from only
/// in fields the setup does not depend on (strategy parameters that keep
/// the same rank configuration, traffic volume, faults, queue choice,
/// shard count…); any drift in the setup inputs — topology, seed, view
/// config, rank source — is rejected.
///
/// # Panics
///
/// Panics if `setup` was prepared for a scenario with different setup
/// inputs, or the scenario is inconsistent (zero messages).
pub fn run_prepared(scenario: &Scenario, setup: &RunSetup) -> RunOutcome {
    execute(scenario, setup.clone(), None)
}

/// [`run_prepared`] with an observe-only [`egm_simnet::ProgressSink`]
/// attached: the sink receives window plans from a multi-shard run,
/// deterministic chunk boundaries from a one-shard run, scheduled
/// fault activations, re-rank ticks, and a final summary. The sink never
/// feeds back into execution, so the outcome is byte-identical to
/// [`run_prepared`] (the `progress_determinism` test asserts it).
///
/// # Panics
///
/// See [`run_prepared`].
pub fn run_prepared_observed(
    scenario: &Scenario,
    setup: &RunSetup,
    sink: SharedSink,
) -> RunOutcome {
    execute(scenario, setup.clone(), Some(sink))
}

/// Runs a batch of independent scenarios across all available cores,
/// returning one [`RunOutcome`] per scenario **in input order**.
///
/// Every scenario forks its entire RNG tree (views, victims, traffic,
/// node and network streams) from its own seed and owns all of its
/// mutable state, so parallel execution is byte-identical to running the
/// scenarios sequentially — the `sweep_determinism` integration test
/// asserts this with [`RunOutcome::first_difference`]. Thread count
/// follows rayon (`RAYON_NUM_THREADS` to cap it).
///
/// `model` is the shared network topology, used by every run (the paper
/// holds the model fixed while sweeping strategy parameters); pass `None`
/// to let each scenario build its own from its seed.
///
/// This is the execution engine behind every figure experiment in
/// [`crate::experiments`] — a figure point sweep (e.g. the Fig. 5 π
/// sweep) fans one scenario per point and keeps each outcome's
/// [`RunOutcome::report`].
///
/// Scenarios whose setup inputs coincide — same topology source, seed,
/// view configuration and rank configuration — share one [`RunSetup`]:
/// the model, the ranked best set and the bootstrapped views are computed
/// once and cloned per run, so e.g. a strategy-parameter sweep over one
/// seed pays the oracle's O(n²) ranking once instead of per point. The
/// sharing is invisible in the results (the setup is a pure function of
/// those inputs; `sweep_determinism` asserts byte-identity against
/// sequential cold runs).
///
/// # Panics
///
/// Panics if any scenario is inconsistent (see [`prepare`] and
/// [`run_prepared`]).
pub fn run_sweep(scenarios: Vec<Scenario>, model: Option<Arc<RoutedModel>>) -> Vec<RunOutcome> {
    use rayon::prelude::*;
    let keys: Vec<String> = scenarios.iter().map(RunSetup::key).collect();
    // First occurrence of each distinct setup key, in input order.
    let mut seen: HashSet<&str> = HashSet::new();
    let mut distinct_keys: Vec<String> = Vec::new();
    let mut distinct_scenarios: Vec<Scenario> = Vec::new();
    for (key, scenario) in keys.iter().zip(&scenarios) {
        if seen.insert(key) {
            distinct_keys.push(key.clone());
            distinct_scenarios.push(scenario.clone());
        }
    }
    // Build the distinct setups in parallel (each can carry an O(n²)
    // oracle sweep), then fan the runs out with their shared setup.
    let built: Vec<Arc<RunSetup>> = distinct_scenarios
        .into_par_iter()
        .map(|scenario| Arc::new(prepare(&scenario, model.clone())))
        .collect();
    let setups: HashMap<String, Arc<RunSetup>> = distinct_keys.into_iter().zip(built).collect();
    let paired: Vec<(Scenario, Arc<RunSetup>)> = scenarios
        .into_iter()
        .zip(keys)
        .map(|(scenario, key)| {
            let setup = setups.get(&key).expect("setup built for every key").clone();
            (scenario, setup)
        })
        .collect();
    paired
        .into_par_iter()
        .map(|(scenario, setup)| execute(&scenario, (*setup).clone(), None))
        .collect()
}

/// Executes the post-setup phase of a run, consuming the setup — the one
/// body behind [`Scenario::run`], [`run_prepared`],
/// [`run_prepared_observed`] and [`run_sweep`]. With `sink: None` the
/// execution path is exactly the unobserved one; with a sink the only
/// deltas are (a) a multi-shard run reports its window plans and (b) a
/// one-shard run's single `run_until(end)` is advanced in fixed
/// [`PROGRESS_CHUNK_MS`] slices — both proven byte-identical by
/// `progress_determinism`.
///
/// # Panics
///
/// Panics if `setup` was prepared for a scenario with different setup
/// inputs, or the scenario is inconsistent (zero messages).
pub(crate) fn execute(
    scenario: &Scenario,
    setup: RunSetup,
    sink: Option<SharedSink>,
) -> RunOutcome {
    let outcome = collect(scenario, simulate(scenario, setup, sink.clone()));
    if let Some(sink) = &sink {
        sink.emit(ProgressEvent::Summary {
            events: outcome.events,
            delivery_fraction: outcome.report.mean_delivery_fraction,
            p50_ms: outcome.latency.p50_ms(),
            p99_ms: outcome.latency.p99_ms(),
            p999_ms: outcome.latency.p999_ms(),
        });
    }
    outcome
}

/// A finished simulation and the harness state [`collect`] reads.
struct Finished {
    sim: Sim<EgmNode>,
    model: Arc<RoutedModel>,
    victims: Vec<NodeId>,
    best_ids: Vec<NodeId>,
    reranked_best_ids: Option<Vec<NodeId>>,
}

/// Builds the engine over `setup` and runs the scenario to its end.
fn simulate(scenario: &Scenario, setup: RunSetup, sink: Option<SharedSink>) -> Finished {
    let n = scenario.node_count();
    assert!(scenario.messages > 0, "need at least one message");
    let RunSetup {
        model,
        best,
        mut views,
        mut rng,
        key,
    } = setup;
    assert_eq!(
        key,
        RunSetup::key(scenario),
        "setup was prepared for a different scenario configuration"
    );

    let best_ids = best.as_ref().map(|b| b.best_ids()).unwrap_or_default();

    // Build nodes over the bootstrapped overlay.
    if scenario.protocol.shuffle_interval.is_none() {
        for v in &mut views {
            v.set_static(true);
        }
    }
    let nodes: Vec<EgmNode> = views
        .into_iter()
        .enumerate()
        .map(|(i, view)| {
            let mut strategy = scenario.strategy.build(best.clone());
            if let Some(noise) = scenario.noise {
                strategy = strategy.with_noise(noise.c, noise.o);
            }
            let monitor = scenario.monitor.build(Some(&model));
            EgmNode::new(
                NodeId(i),
                scenario.protocol.clone(),
                view,
                strategy,
                monitor,
            )
        })
        .collect();

    let mut sim_config = SimConfig::from_model(Arc::clone(&model))
        .with_loss(scenario.loss)
        .with_jitter(scenario.jitter);
    if let Some(bw) = scenario.egress_bandwidth {
        sim_config = sim_config.with_egress_bandwidth(bw);
    }
    if let Some(links) = scenario.link_spill_threshold {
        sim_config = sim_config.with_link_spill_threshold(links);
    }
    if let Some(queue) = scenario.event_queue {
        sim_config = sim_config.with_event_queue(queue);
    }
    if let Some(shards) = scenario.shards {
        sim_config = sim_config.with_shards(shards);
    }
    if let Some(partition) = scenario.partition {
        sim_config = sim_config.with_partition(partition);
    }
    let shards = sim_config.shard_count();
    let mut sim = Sim::with_shards(sim_config, scenario.seed, nodes, shards);
    if let Some(sink) = &sink {
        sim.set_progress_sink(sink.clone());
    }

    // Fault injection at the end of warm-up, immediately before traffic
    // starts (§6.3).
    let warmup_end = SimTime::from_ms(scenario.warmup_ms);
    let victims = match &scenario.faults {
        Some(plan) => plan.choose_victims(n, best.as_deref(), &mut rng),
        None => Vec::new(),
    };
    let warmup_kills = FaultSchedule {
        events: victims
            .iter()
            .map(|&v| TimedFault {
                at_ms: scenario.warmup_ms,
                action: Fault::Silence(v),
            })
            .collect(),
    };
    inject(&mut sim, &warmup_kills, sink.as_ref());

    // Explicit fault trace (extension): replayed verbatim, in event
    // order. Draws no harness randomness, so a schedule never perturbs
    // victims, views or the traffic plan.
    if let Some(schedule) = &scenario.fault_schedule {
        inject(&mut sim, schedule, sink.as_ref());
    }

    // Traffic: live nodes multicast round-robin (§5.3), driven by the
    // scenario's arrival mode.
    let live = live_mask(n, &victims);
    let senders: Vec<NodeId> = (0..n).map(NodeId).filter(|id| live[id.index()]).collect();
    let schedule = match &scenario.arrival {
        Some(Arrival::Open(process)) => {
            arrival::plan(process, &senders, scenario.messages, warmup_end, &mut rng)
        }
        None => traffic::plan(
            &senders,
            scenario.messages,
            warmup_end,
            scenario.mean_interval_ms,
            &mut rng,
        ),
    };
    for p in &schedule {
        sim.schedule_command(p.at, p.source, p.seq);
    }
    let end =
        schedule.last().expect("non-empty schedule").at + SimDuration::from_ms(scenario.drain_ms);

    // Transient churn (extension): periodic silence + revive cycles
    // while traffic flows. Victims are drawn with bounded rejection
    // against permanent victims *and* nodes still down from an
    // earlier overlapping outage (see `ChurnPlan::schedule`), so a
    // churn event never lands as a no-op on a dead node.
    if let Some(churn) = scenario.churn {
        let window = (end - warmup_end).as_ms();
        let outages = churn.schedule(n, warmup_end, window, &victims, &mut rng);
        inject(&mut sim, &outages, sink.as_ref());
    }

    // Online re-ranking (extension): advance warm-up in global
    // barrier ticks, re-ranking the hubs at each one.
    let reranked_best_ids = scenario.rerank.and_then(|plan| {
        rerank_during_warmup(&mut sim, scenario, &model, plan, warmup_end, sink.as_ref())
    });

    // One shard has no window boundaries to report from, so an
    // observed run advances it in fixed virtual-time chunks —
    // deadlines are multiples of a constant, a pure function of
    // nothing, so the event schedule is exactly that of one
    // uninterrupted `run_until(end)`.
    match &sink {
        Some(sink) if sim.shard_count() == 1 => {
            let mut k = 1u64;
            loop {
                let deadline = SimTime::from_ms(k as f64 * PROGRESS_CHUNK_MS);
                if deadline >= end {
                    break;
                }
                sim.run_until(deadline);
                sink.emit(ProgressEvent::Chunk {
                    now_ms: deadline.as_ms(),
                    events: sim.events_processed(),
                });
                k += 1;
            }
            sim.run_until(end);
            sink.emit(ProgressEvent::Chunk {
                now_ms: end.as_ms(),
                events: sim.events_processed(),
            });
        }
        _ => sim.run_until(end),
    }

    Finished {
        sim,
        model,
        victims,
        best_ids,
        reranked_best_ids,
    }
}

/// Validates `schedule` against the engine's node count, then schedules
/// every action in trace order, reporting each to the sink.
fn inject(sim: &mut Sim<EgmNode>, schedule: &FaultSchedule, sink: Option<&SharedSink>) {
    schedule.validate(sim.node_count());
    for ev in &schedule.events {
        if let Some(sink) = sink {
            sink.emit(ProgressEvent::Fault {
                at_ms: ev.at_ms,
                fault: ev.action,
            });
        }
        sim.schedule_fault(SimTime::from_ms(ev.at_ms), ev.action);
    }
}

/// Runs the warm-up phase in re-rank ticks: every `plan.period_ms` the
/// engine stops at a global barrier, the best set is recomputed through
/// the scenario's rank source over the *live* population — nodes the
/// fault schedule has down at that instant are excluded — and every
/// node's strategy is rebound to the new set.
///
/// The tick times, the down mask and the per-tick rank seed are pure
/// functions of the scenario (never of live simulator state), so chunked
/// execution stays byte-identical across shard widths — the
/// `fault_determinism` suite pins this. Returns the final set's ids.
///
/// # Panics
///
/// Panics if the strategy carries no best set, or a best-set override is
/// installed (the override pins the ranking, re-ranking would fight it).
fn rerank_during_warmup(
    sim: &mut Sim<EgmNode>,
    scenario: &Scenario,
    model: &RoutedModel,
    plan: RerankPlan,
    warmup_end: SimTime,
    sink: Option<&SharedSink>,
) -> Option<Vec<NodeId>> {
    let fraction = scenario
        .strategy
        .best_fraction()
        .expect("online re-ranking requires a strategy with a best set");
    assert!(
        scenario.best_override.is_none(),
        "online re-ranking conflicts with a best-set override"
    );
    let n = scenario.node_count();
    let empty = FaultSchedule::empty();
    let schedule = scenario.fault_schedule.as_ref().unwrap_or(&empty);
    let mut last: Option<Arc<BestSet>> = None;
    for k in 1..=plan.ticks {
        let t_ms = k as f64 * plan.period_ms;
        let tick = SimTime::from_ms(t_ms);
        if tick > warmup_end {
            break;
        }
        sim.run_until(tick);
        let down = schedule.down_at(t_ms, n);
        // Each tick re-ranks on its own salted seed, so consecutive
        // decentralized rankings are independent measurements instead
        // of replays of the first.
        let tick_seed =
            scenario.seed ^ RANK_SEED_SALT ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let best = scenario
            .rank_source
            .best_set_excluding(model, fraction, &scenario.protocol.view, tick_seed, &down)
            .shared();
        for (_, node) in sim.nodes_mut() {
            node.rebind_best(best.clone());
        }
        if let Some(sink) = sink {
            sink.emit(ProgressEvent::Rerank {
                tick: k,
                at_ms: t_ms,
                best: best.best_ids().len(),
            });
        }
        last = Some(best);
    }
    last.map(|b| b.best_ids())
}

/// One flag per node: `false` for the permanent fault victims.
fn live_mask(n: usize, victims: &[NodeId]) -> Vec<bool> {
    let mut live = vec![true; n];
    for v in victims {
        live[v.index()] = false;
    }
    live
}

/// Gathers the engine's multicast/delivery log, the node counters and
/// the traffic table into the outcome.
fn collect(scenario: &Scenario, finished: Finished) -> RunOutcome {
    let Finished {
        mut sim,
        model,
        victims,
        best_ids,
        reranked_best_ids,
    } = finished;
    // The run is over: seal the traffic log so the per-link queries below
    // aggregate once instead of re-scanning the send log each.
    sim.seal_traffic();
    let n = sim.node_count();

    // Messages published near the end of the run can carry retire
    // horizons past the last event; sweep the remaining FIFOs so
    // `retired_messages` accounts for every retirable slot (a no-op when
    // retirement is off).
    for (_, node) in sim.nodes_mut() {
        node.sweep_retirements();
    }

    // Message `seq`'s (source, multicast time) from the engine's log.
    let mut sends: Vec<Option<(usize, f64)>> = vec![None; scenario.messages];
    for m in sim.multicasts() {
        sends[m.seq as usize] = Some((m.node().index(), m.time.as_ms()));
    }
    let sends: Vec<(usize, f64)> = sends
        .into_iter()
        .enumerate()
        .map(|(seq, send)| send.unwrap_or_else(|| panic!("message {seq} was never multicast")))
        .collect();

    // Tail-latency histogram over the steady-state window: publish →
    // delivery for every message published once traffic starts at the
    // end of warm-up. Pure counter accumulation, so the stream order
    // cannot perturb it.
    let window_start_ms = scenario.warmup_ms;
    let window_end_ms = sim.now().as_ms();
    let deliveries = sim.take_deliveries();
    let mut latency = LatencyHistogram::new();
    let mut window_deliveries = 0u64;
    for d in deliveries.iter() {
        let sent_ms = sends[d.seq as usize].1;
        if sent_ms >= window_start_ms {
            latency.record_ms(d.time.as_ms() - sent_ms);
            window_deliveries += 1;
        }
    }
    let window_published = sends
        .iter()
        .filter(|&&(_, sent_ms)| sent_ms >= window_start_ms)
        .count();
    // The log takes the stream over chunk by chunk, so the run's
    // deliveries are held once throughout.
    let log = DeliveryLog::from_deliveries(
        n,
        sends,
        deliveries.into_iter().map(|d| Delivery {
            msg: d.seq as usize,
            node: d.node().index(),
            time_ms: d.time.as_ms(),
            round: d.round,
        }),
    );
    let span_s = ((window_end_ms - window_start_ms) / 1000.0).max(f64::MIN_POSITIVE);
    let steady = SteadyState {
        window_start_ms,
        window_end_ms,
        published: window_published,
        delivered: window_deliveries,
        publishes_per_sec: window_published as f64 / span_s,
        deliveries_per_sec: window_deliveries as f64 / span_s,
    };

    let mut scheduler = SchedulerStats::default();
    let mut retired_messages = 0u64;
    let mut arena_high_water = 0usize;
    for (_, node) in sim.nodes() {
        let arena = node.arena_stats();
        retired_messages += arena.retired;
        arena_high_water = arena_high_water.max(arena.high_water);
        scheduler += node.scheduler_stats();
    }

    let traffic = sim.traffic();
    let payloads_per_node = traffic.payloads_sent_per_node(n);

    let eligible = live_mask(n, &victims);
    let total_deliveries = log.total_deliveries();

    let label = match scenario.noise {
        Some(noise) => format!("{} o={:.0}%", scenario.strategy.label(), noise.o * 100.0),
        None => scenario.strategy.label(),
    };
    let mut report = RunReport::empty(label, n, scenario.messages);
    report.latency = log.latency_summary();
    report.payloads_per_delivery = if total_deliveries == 0 {
        0.0
    } else {
        traffic.total_payloads() as f64 / total_deliveries as f64
    };
    // Per-group payload contribution: payload transmissions *sent by* the
    // group, per message and group member ("payload/message", §6.4).
    if !best_ids.is_empty() {
        let live_group = |ids: &[NodeId]| -> Option<f64> {
            let live: Vec<&NodeId> = ids.iter().filter(|id| eligible[id.index()]).collect();
            if live.is_empty() {
                return None;
            }
            let sent: u64 = live.iter().map(|id| payloads_per_node[id.index()]).sum();
            Some(sent as f64 / (scenario.messages as f64 * live.len() as f64))
        };
        let regular = BestSet::from_ids(n, &best_ids).regular_ids();
        report.payloads_per_delivery_low = live_group(&regular);
        report.payloads_per_delivery_best = live_group(&best_ids);
    }
    report.mean_delivery_fraction = log.mean_delivery_fraction(&eligible);
    report.atomic_delivery_fraction = log.atomic_delivery_fraction(&eligible);
    report.used_links = traffic.link_count();
    if report.used_links > 0 {
        // One buffer, sorted once, feeds both structure measures.
        let mut counts = traffic.map_links(|_, payloads| payloads);
        counts.sort_unstable();
        report.link_gini = link::gini_sorted(&counts);
        report.top5_link_share = link::top_fraction_share_mut(&mut counts, 0.05);
    }
    report.node_gini = link::gini(&payloads_per_node);
    report.mean_delivery_round = log.mean_delivery_round();
    report.total_messages = traffic.total_messages();
    report.total_payloads = traffic.total_payloads();
    report.total_bytes = traffic.total_bytes();
    report.sim_duration_ms = sim.now().as_ms();

    // Fields are evaluated in the order written: everything read from
    // `sim` comes before `payload_links`, which consumes it, so the
    // nodes are freed before the link list is built beside the table.
    RunOutcome {
        report,
        log,
        payloads_per_node,
        victims,
        best_ids,
        reranked_best_ids,
        scheduler,
        events: sim.events_processed(),
        timers_cancelled: sim.timers_cancelled(),
        stale_timer_drops: sim.stale_timer_drops(),
        queue: sim.queue_stats(),
        shard_stats: sim.shard_stats(),
        retired_messages,
        arena_high_water,
        payload_vec_growths: traffic.node_payload_growths(),
        latency,
        steady,
        traffic_acc_peak: traffic.shard_merge_acc_peak(),
        traffic_folds: traffic.fold_stats(),
        model,
        payload_links: sim.into_traffic().links(),
    }
}

#[cfg(test)]
mod tests {
    use super::{collect, prepare, run_prepared, run_sweep, simulate};
    use crate::scenario::Scenario;
    use crate::{FaultPlan, FaultSelection};
    use egm_core::StrategySpec;

    #[test]
    fn collect_maps_the_sealed_table_exactly() {
        for shards in [1, 2] {
            let scenario = Scenario::smoke_test()
                .with_strategy(StrategySpec::Flat { pi: 0.5 })
                .with_shards(Some(shards));
            let run = || simulate(&scenario, prepare(&scenario, None), None);
            let mut twin = run().sim;
            twin.seal_traffic();
            let untaken = twin.traffic().links();
            let outcome = collect(&scenario, run());
            assert_eq!(outcome.payload_links, untaken, "width {shards}");
            // Built at its length from the table, never grown past it.
            let links = outcome.payload_links.len();
            assert!(links > 3, "width {shards}: {links} links");
            assert_eq!(
                outcome.payload_links.capacity(),
                links,
                "width {shards}: payload_links over-allocated"
            );
        }
    }

    #[test]
    fn eager_smoke_run_delivers_everything() {
        let report = Scenario::smoke_test()
            .with_strategy(StrategySpec::Flat { pi: 1.0 })
            .run()
            .report;
        assert!(report.mean_delivery_fraction > 0.99, "{report}");
        assert!(report.payloads_per_delivery > 3.0, "{report}");
        assert_eq!(report.messages, 30);
        assert_eq!(report.nodes, 24);
    }

    #[test]
    fn lazy_smoke_run_is_near_optimal_bandwidth() {
        let report = Scenario::smoke_test()
            .with_strategy(StrategySpec::Flat { pi: 0.0 })
            .run()
            .report;
        assert!(report.mean_delivery_fraction > 0.99, "{report}");
        assert!(report.payloads_per_delivery < 1.3, "{report}");
    }

    #[test]
    fn lazy_is_slower_than_eager() {
        let eager = Scenario::smoke_test()
            .with_strategy(StrategySpec::Flat { pi: 1.0 })
            .run()
            .report;
        let lazy = Scenario::smoke_test()
            .with_strategy(StrategySpec::Flat { pi: 0.0 })
            .run()
            .report;
        assert!(
            lazy.mean_latency_ms() > 1.5 * eager.mean_latency_ms(),
            "lazy {} vs eager {}",
            lazy.mean_latency_ms(),
            eager.mean_latency_ms()
        );
    }

    #[test]
    fn same_seed_reproduces_report_exactly() {
        let scenario = Scenario::smoke_test().with_strategy(StrategySpec::Ttl { u: 2 });
        let a = scenario.run().report;
        let b = scenario.run().report;
        assert_eq!(a, b, "runs must be deterministic");
    }

    #[test]
    fn fault_injection_excludes_victims() {
        let scenario = Scenario::smoke_test()
            .with_strategy(StrategySpec::Flat { pi: 1.0 })
            .with_faults(Some(FaultPlan::new(0.25, FaultSelection::Random)));
        let outcome = scenario.run();
        assert_eq!(outcome.victims.len(), 6);
        // Victims never multicast.
        for m in 0..outcome.log.message_count() {
            assert!(outcome.log.delivery_count(m) > 0);
        }
        assert!(
            outcome.report.mean_delivery_fraction > 0.9,
            "{}",
            outcome.report
        );
    }

    #[test]
    fn prepared_runs_are_byte_identical_to_cold_runs() {
        let scenario = Scenario::smoke_test().with_strategy(StrategySpec::Ranked {
            best_fraction: 0.25,
        });
        let cold = scenario.run();
        let setup = prepare(&scenario, None);
        let warm_a = run_prepared(&scenario, &setup);
        let warm_b = run_prepared(&scenario, &setup);
        for warm in [&warm_a, &warm_b] {
            assert_eq!(cold.first_difference(warm), None);
        }
    }

    #[test]
    fn sweep_shares_setup_without_changing_results() {
        use egm_core::RankSource;
        // Three scenarios over the same (topology, seed, view, rank)
        // tuple — the sweep computes one setup — plus one with a different
        // rank source, which must not leak into the others.
        let base = Scenario::smoke_test().with_strategy(StrategySpec::Ranked {
            best_fraction: 0.25,
        });
        let scenarios = vec![
            base.clone(),
            base.clone().with_messages(10),
            base.clone(),
            base.clone()
                .with_rank_source(RankSource::GossipSorted { rounds: 3 }),
        ];
        let swept = run_sweep(scenarios.clone(), None);
        for (a, s) in swept.iter().zip(&scenarios) {
            assert_eq!(a.first_difference(&s.run()), None);
        }
        // The decentralized source really ranked differently from the
        // oracle here (otherwise this test pins nothing).
        assert_ne!(swept[0].best_ids, swept[3].best_ids);
        assert_eq!(swept[0].best_ids.len(), swept[3].best_ids.len());
    }

    #[test]
    fn rank_source_does_not_perturb_harness_randomness() {
        use egm_core::RankSource;
        // Same scenario, oracle vs gossip ranking: victims and the
        // traffic plan come from the harness stream and must be
        // identical; only the best set (and hence relaying) may differ.
        let base = Scenario::smoke_test()
            .with_strategy(StrategySpec::Ranked {
                best_fraction: 0.25,
            })
            .with_faults(Some(crate::FaultPlan::new(
                0.25,
                crate::FaultSelection::Random,
            )));
        let oracle = base.run();
        let gossip = base
            .clone()
            .with_rank_source(RankSource::GossipSorted { rounds: 3 })
            .run();
        assert_eq!(oracle.victims, gossip.victims, "victim draw perturbed");
        assert_ne!(oracle.best_ids, gossip.best_ids);
    }

    #[test]
    fn degradation_schedule_slows_delivery() {
        use crate::faults::FaultSchedule;
        // Uniform topologies have no domain structure, so every pair is
        // "cross-domain": a 3× latency multiplier over the whole run
        // must show up in the mean delivery latency.
        let base = Scenario::smoke_test().with_strategy(StrategySpec::Flat { pi: 1.0 });
        let healthy = base.run().report;
        let degraded = base
            .clone()
            .with_fault_schedule(Some(FaultSchedule::transit_degradation(0.0, 1e9, 3.0, 0.0)))
            .run()
            .report;
        assert!(
            degraded.mean_latency_ms() > 1.5 * healthy.mean_latency_ms(),
            "degraded {} vs healthy {}",
            degraded.mean_latency_ms(),
            healthy.mean_latency_ms()
        );
        assert!(degraded.mean_delivery_fraction > 0.99, "{degraded}");
    }

    #[test]
    fn slowdown_schedule_is_deterministic_and_slows_victims() {
        use crate::faults::FaultSchedule;
        let schedule = FaultSchedule::node_slowdown(24, 0.5, 0.0, 20.0, 1e9, 3);
        let scenario = Scenario::smoke_test()
            .with_strategy(StrategySpec::Flat { pi: 1.0 })
            .with_fault_schedule(Some(schedule));
        let healthy = Scenario::smoke_test()
            .with_strategy(StrategySpec::Flat { pi: 1.0 })
            .run()
            .report;
        let a = scenario.run().report;
        let b = scenario.run().report;
        assert_eq!(a, b, "slowdown runs must be deterministic");
        assert!(
            a.mean_latency_ms() > healthy.mean_latency_ms(),
            "slowed {} vs healthy {}",
            a.mean_latency_ms(),
            healthy.mean_latency_ms()
        );
    }

    #[test]
    fn online_rerank_replaces_downed_hubs() {
        use crate::{Fault, FaultSchedule, RerankPlan, TimedFault};
        let base = Scenario::smoke_test().with_strategy(StrategySpec::Ranked {
            best_fraction: 0.25,
        });
        let initial = base.run();
        assert_eq!(initial.best_ids.len(), 6);
        assert!(initial.reranked_best_ids.is_none());

        // Silence every initial hub mid-warm-up; the re-rank ticks at
        // 100 ms and 200 ms must rank replacement hubs from the live
        // population only.
        let schedule = FaultSchedule {
            events: initial
                .best_ids
                .iter()
                .map(|id| TimedFault {
                    at_ms: 50.0,
                    action: Fault::Silence(*id),
                })
                .collect(),
        };
        let scenario = base
            .with_fault_schedule(Some(schedule))
            .with_rerank(Some(RerankPlan::new(100.0, 2)));
        let reranked = scenario.run();
        assert_eq!(reranked.best_ids, initial.best_ids, "initial set kept");
        let final_ids = reranked.reranked_best_ids.as_ref().expect("reranked");
        // 18 live nodes × 0.25 → 4 or 5 hubs, none of them dead.
        assert!(!final_ids.is_empty());
        for id in final_ids {
            assert!(
                !initial.best_ids.contains(id),
                "downed hub {id:?} survived the re-rank"
            );
        }
        let again = scenario.run();
        assert_eq!(
            reranked.first_difference(&again),
            None,
            "re-rank runs deterministic"
        );
    }

    #[test]
    fn churned_victim_redraw_avoids_overlapping_outages() {
        use crate::faults::ChurnPlan;
        // Heavily overlapping outages (down 4× the period) on a small
        // population: before the bounded re-draw fix this scheduled
        // no-op silences + premature revives on already-down nodes.
        let scenario = Scenario::smoke_test()
            .with_strategy(StrategySpec::Flat { pi: 1.0 })
            .with_churn(Some(ChurnPlan::new(200.0, 800.0)))
            .with_faults(Some(FaultPlan::new(0.25, FaultSelection::Random)));
        let a = scenario.run();
        let b = scenario.run();
        assert_eq!(a.report, b.report, "churn runs must be deterministic");
        assert!(a.report.mean_delivery_fraction > 0.5, "{}", a.report);
    }

    #[test]
    fn ranked_outcome_exposes_best_ids() {
        let scenario = Scenario::smoke_test().with_strategy(StrategySpec::Ranked {
            best_fraction: 0.25,
        });
        let outcome = scenario.run();
        assert_eq!(outcome.best_ids.len(), 6);
        assert!(outcome.report.payloads_per_delivery_low.is_some());
        assert!(outcome.report.payloads_per_delivery_best.is_some());
        let low = outcome.report.payloads_per_delivery_low.expect("set");
        let best = outcome.report.payloads_per_delivery_best.expect("set");
        assert!(best > low, "hubs must carry more: best {best} vs low {low}");
    }

    /// A ranked smoke run with a fault trace and online re-ranking: the
    /// widest slice of the outcome a small scenario fills in.
    fn faulted_ranked(seed: u64) -> Scenario {
        use crate::faults::{FaultSchedule, RerankPlan};
        Scenario::smoke_test()
            .with_strategy(StrategySpec::Ranked {
                best_fraction: 0.25,
            })
            .with_fault_schedule(Some(FaultSchedule::node_slowdown(
                24, 0.25, 0.0, 20.0, 1e9, 3,
            )))
            .with_rerank(Some(RerankPlan::new(100.0, 2)))
            .with_seed(seed)
    }

    #[test]
    fn first_difference_is_none_on_rerun_and_across_widths() {
        let scenario = faulted_ranked(7).with_shards(Some(0));
        let seq = scenario.run();
        assert!(seq.reranked_best_ids.is_some(), "re-rank ticks must run");
        assert_eq!(seq.first_difference(&scenario.run()), None);

        let wide = scenario.clone().with_shards(Some(2)).run();
        assert_ne!(
            seq.shard_stats, wide.shard_stats,
            "the width must show in the skipped shard counters"
        );
        assert_eq!(seq.first_difference(&wide), None);
    }

    #[test]
    fn first_difference_names_the_first_differing_field() {
        let a = faulted_ranked(7).run();
        let b = faulted_ranked(8).run();
        assert_eq!(a.first_difference(&b), Some("report"));
    }

    #[test]
    fn first_difference_skips_queue_geometry() {
        use crate::experiments::scale::ScalePreset;
        use egm_simnet::QueueKind;
        let scenario = ScalePreset::N1k.scenario(4, 11);
        let setup = prepare(&scenario, None);
        let on = |queue| run_prepared(&scenario.clone().with_event_queue(Some(queue)), &setup);
        let heap = on(QueueKind::Heap);
        let calendar = on(QueueKind::Calendar);
        assert_ne!(heap.queue, calendar.queue);
        assert_eq!(heap.first_difference(&calendar), None);
    }
}
