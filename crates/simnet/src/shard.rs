//! Multi-shard execution of one run: the node partition and the
//! conservative-window loop that keeps shards in lockstep.
//!
//! [`Sim::with_shards`](crate::Sim::with_shards) splits the node id
//! space into `W` disjoint shards under a [`PartitionStrategy`] —
//! contiguous id ranges, or topology-aware domain-aligned cuts planned
//! from the routed model
//! ([`egm_topology::RoutedModel::partition_plan`]); each shard owns its
//! nodes, their RNG streams, an [`EventQueue`](crate::EventQueue), a
//! [`Traffic`] table and a copy of the fault view, and dispatches its
//! own events through the *same* per-event path as a one-shard run.
//! Shards synchronize at window boundaries: a window's length is the
//! **lookahead** — a conservative lower bound on the delivery delay of
//! any cross-shard message ([`SimConfig::conservative_lookahead`]),
//! derived from the minimum latency crossing the chosen partition.
//! Within a window `[T, T + L)`, no shard can receive an event it has
//! not already been handed (anything generated in the window arrives at
//! `>= T + L`), so every shard may run its window independently — in
//! parallel. Because the lookahead is the minimum *cross-shard* latency,
//! the partition directly sets the window economics: domain-aligned cuts
//! push the floor from the stub-access latency up to the inter-core
//! latency of the planned clusters, collapsing the window count.
//!
//! Cross-shard sends are buffered in per-`(source, destination)` *lanes*
//! and moved into the destination queue at the window boundary. Order
//! needs no repair at the merge: every event carries an intrinsic
//! `(time, origin, origin-seq)` key (see [`crate::sim`]), so the
//! destination queue interleaves merged and local events exactly where
//! one shard would have dispatched them. The outputs — delivery records,
//! sealed [`Traffic`] (including the first-appearance spill order,
//! reconstructed at merge time), scheduler counters, event counts — are
//! **byte-identical to the one-shard run for every `W`**, which the
//! `shard_equivalence` and `shard_determinism` suites assert on every
//! PR.
//!
//! With `W = 1` there are no cross-shard pairs and nothing here runs:
//! the one shard carries no route, no lanes and no windows.

use crate::event::{EventKind, Scheduled};
use crate::net::SimConfig;
use crate::progress::{ProgressEvent, SharedSink};
use crate::sim::{EngineState, Protocol, ShardRoute, SimCore};
use crate::stats::Traffic;
use crate::time::{SimDuration, SimTime};
use crate::wire::Wire;
use crate::NodeId;
use egm_rng::hash::FastHashMap;
use egm_rng::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Node count below which the size-based default is one shard: window
/// bookkeeping has nothing to amortize on runs whose whole working set
/// is cache-resident.
pub const SHARD_MIN_NODES: usize = 1000;

/// Cap on the size-based default shard count: beyond ~8 shards the
/// per-window barrier cost grows faster than the per-shard work shrinks
/// at the scales this simulator targets.
pub const MAX_AUTO_SHARDS: usize = 8;

/// The size-based default shard count: 1 below [`SHARD_MIN_NODES`] nodes,
/// otherwise the machine's available parallelism capped at
/// [`MAX_AUTO_SHARDS`]. Every choice produces byte-identical results, so
/// this only ever changes how fast a run completes.
pub fn auto_shards_for(nodes: usize) -> usize {
    if nodes < SHARD_MIN_NODES {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
        .clamp(1, MAX_AUTO_SHARDS)
        .min(nodes)
}

/// Reads the `EGM_SHARDS` override from the environment; `None` when
/// unset (the size-based default applies).
///
/// # Panics
///
/// Panics on an unparseable value — silently falling back would turn a
/// scaling A/B into two identical runs.
pub fn shards_from_env() -> Option<usize> {
    match std::env::var("EGM_SHARDS") {
        Err(_) => None,
        Ok(v) => Some(v.parse().unwrap_or_else(|_| {
            panic!("unrecognized EGM_SHARDS {v:?}: use a shard count (0 and 1 both mean one shard)")
        })),
    }
}

/// How nodes are mapped to shards (see [`Partition`]). Every strategy
/// produces byte-identical simulation outputs — the strategy only moves
/// the cross-shard latency floor (the window lookahead) and the lane
/// traffic volume, i.e. how fast the run completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Near-equal contiguous id ranges (the PR 5 baseline). Cuts slice
    /// through stub domains, so the lookahead collapses to the
    /// stub-access floor.
    #[default]
    Contiguous,
    /// Topology-aware cuts on stub-domain boundaries, planned by
    /// clustering populated core routers to maximize the inter-shard
    /// latency floor; shards balanced by node count.
    DomainAligned,
    /// Domain-aligned cuts balanced by the per-domain event-rate
    /// estimate (fanout × view degree × traffic share) instead of raw
    /// node count.
    RateBalanced,
}

impl PartitionStrategy {
    /// Parses a strategy name as used by `EGM_PARTITION`.
    pub fn parse(s: &str) -> Option<PartitionStrategy> {
        match s {
            "contiguous" => Some(PartitionStrategy::Contiguous),
            "domain-aligned" | "domain" => Some(PartitionStrategy::DomainAligned),
            "rate-balanced" | "rate" => Some(PartitionStrategy::RateBalanced),
            _ => None,
        }
    }

    /// The canonical name (inverse of [`PartitionStrategy::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Contiguous => "contiguous",
            PartitionStrategy::DomainAligned => "domain-aligned",
            PartitionStrategy::RateBalanced => "rate-balanced",
        }
    }
}

impl std::fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reads the `EGM_PARTITION` override from the environment; `None` when
/// unset (the scenario choice or the auto default applies).
///
/// # Panics
///
/// Panics on an unrecognized value — silently falling back would turn a
/// partitioning A/B into two identical runs.
pub fn partition_from_env() -> Option<PartitionStrategy> {
    match std::env::var("EGM_PARTITION") {
        Err(_) => None,
        Ok(v) => Some(PartitionStrategy::parse(&v).unwrap_or_else(|| {
            panic!(
                "unrecognized EGM_PARTITION {v:?}: use contiguous, domain-aligned or rate-balanced"
            )
        })),
    }
}

/// A partition of the node id space over worker shards: an arbitrary
/// node→shard map with O(1) shard and local-index lookup.
///
/// Shards are non-empty and cover every id exactly once (property-
/// tested in `shard_equivalence` and the partition proptests). Within a
/// shard, nodes are ordered by ascending global id — that invariant is
/// what lets the engine hand each shard its slice of the global RNG
/// stream vectors and run `on_start` callbacks in a per-shard order
/// consistent with the one-shard run.
///
/// The map itself comes from a [`PartitionStrategy`]:
/// [`Partition::contiguous`] builds the near-equal range baseline, and
/// [`Partition::from_assignment`] accepts the domain-aligned plans of
/// [`egm_topology::RoutedModel::partition_plan`].
#[derive(Debug, Clone)]
pub struct Partition {
    /// Shard per node — O(1) lookup on the per-send routing path.
    assign: Vec<u32>,
    /// Local index of each node within its shard (position in the
    /// shard's ascending-id member list) — O(1) lookup on the dispatch
    /// path.
    local: Vec<u32>,
    /// Global ids owned by each shard, ascending.
    members: Vec<Vec<u32>>,
}

impl Partition {
    /// Splits `0..n` into `shards` contiguous near-equal ranges: shard
    /// `s` owns `[floor(s·n/W), floor((s+1)·n/W))`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `n`.
    pub fn contiguous(n: usize, shards: usize) -> Partition {
        assert!(shards > 0, "need at least one shard");
        assert!(shards <= n, "more shards than nodes");
        let mut assign = vec![0u32; n];
        for (i, slot) in assign.iter_mut().enumerate() {
            *slot = ((i * shards) / n) as u32;
        }
        Partition::from_assignment(assign, shards)
    }

    /// Builds a partition from an explicit node→shard assignment.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the node count, if an
    /// assignment references a shard out of range, or if any shard would
    /// own no nodes.
    pub fn from_assignment(assign: Vec<u32>, shards: usize) -> Partition {
        assert!(shards > 0, "need at least one shard");
        assert!(shards <= assign.len(), "more shards than nodes");
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); shards];
        let mut local = vec![0u32; assign.len()];
        for (i, &s) in assign.iter().enumerate() {
            assert!(
                (s as usize) < shards,
                "assignment references shard {s} out of range"
            );
            local[i] = members[s as usize].len() as u32;
            members[s as usize].push(i as u32);
        }
        assert!(
            members.iter().all(|m| !m.is_empty()),
            "every shard must own at least one node"
        );
        Partition {
            assign,
            local,
            members,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.members.len()
    }

    /// Number of nodes partitioned.
    pub fn node_count(&self) -> usize {
        self.assign.len()
    }

    /// The shard owning `node`.
    #[inline]
    pub fn shard_of(&self, node: usize) -> usize {
        self.assign[node] as usize
    }

    /// The position of `node` in its shard's ascending member list.
    #[inline]
    pub fn local_of(&self, node: usize) -> usize {
        self.local[node] as usize
    }

    /// The global ids owned by `shard`, ascending.
    pub fn members(&self, shard: usize) -> &[u32] {
        &self.members[shard]
    }

    /// The id range owned by `shard` — contiguous partitions only.
    ///
    /// # Panics
    ///
    /// Panics if the shard's membership is not one contiguous id run.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        let m = &self.members[shard];
        let start = m[0] as usize;
        let end = m[m.len() - 1] as usize + 1;
        assert_eq!(end - start, m.len(), "range() requires a contiguous shard");
        start..end
    }

    /// The per-node shard assignment (for lookahead derivation).
    pub fn assignment(&self) -> &[u32] {
        &self.assign
    }
}

/// A destination shard's inbox for cross-shard events published by the
/// threaded window driver.
type Mailbox<M> = Mutex<Vec<Scheduled<EventKind<M>>>>;

/// Window-loop counters of a run (one shard reports only `shards: 1`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// The partition strategy that actually took effect (a planned
    /// strategy falls back to [`PartitionStrategy::Contiguous`] when the
    /// delay source yields no domain structure to align with).
    pub strategy: PartitionStrategy,
    /// Conservative window length in microseconds (0 on one shard, which
    /// runs windowless).
    pub lookahead_us: u64,
    /// Average virtual time advanced per executed window, in
    /// microseconds — the *realized* lookahead. At least `lookahead_us`
    /// (planning windows from the earliest pending event leaps over idle
    /// stretches); 0 before any window ran.
    pub realized_lookahead_us: u64,
    /// Windows executed (each is one parallel phase plus one barrier).
    pub windows: u64,
    /// Events that crossed shards through the lanes.
    pub lane_events: u64,
    /// Batched lane merges: one per (window, destination shard) that
    /// actually received events.
    pub lane_flushes: u64,
    /// Window boundaries at which the lane exchange was skipped because
    /// no shard had cross-shard sends pending.
    pub exchanges_skipped: u64,
    /// Events dispatched by each shard of a multi-shard run — the
    /// observable partition balance (sums to the run's event count).
    pub per_shard_events: Vec<u64>,
}

/// Everything a multi-shard [`Sim`](crate::Sim) holds beyond its
/// per-shard event loops: the partition, the window lookahead and the
/// window-loop counters. See the module documentation for the
/// synchronization scheme.
#[derive(Debug)]
pub(crate) struct WindowLoop<M> {
    partition: Arc<Partition>,
    /// The strategy the partition was actually built with.
    strategy: PartitionStrategy,
    /// Conservative window length.
    lookahead: SimDuration,
    spill_threshold: usize,
    /// The merged traffic view, once [`WindowLoop::merge_traffic`] ran.
    pub(crate) merged: Option<Traffic>,
    pub(crate) threaded: bool,
    windows: u64,
    lane_events: u64,
    lane_flushes: u64,
    exchanges_skipped: u64,
    /// Reusable scratch buffer for the per-destination lane merge of the
    /// single-threaded window driver.
    lane_gather: Vec<Scheduled<EventKind<M>>>,
    /// Observe-only progress sink; window plans are reported to it.
    /// `None` (the default) leaves the window loop exactly as it was —
    /// the sink is never consulted for decisions, so installing one
    /// cannot change any simulation output.
    pub(crate) progress: Option<SharedSink>,
}

impl<M: Wire + Send> WindowLoop<M> {
    /// Partitions `nodes` and their per-node RNG stream vectors (in
    /// global-id order) across `w > 1` shards, returning the per-shard
    /// event loops and the window-loop state that drives them.
    ///
    /// # Panics
    ///
    /// Panics if no latency floor separates the shards.
    pub(crate) fn split<P: Protocol<Msg = M>>(
        config: SimConfig,
        nodes: Vec<P>,
        node_rngs: Vec<Rng>,
        net_rngs: Vec<Rng>,
        w: usize,
    ) -> (Vec<EngineState<P>>, Self) {
        let (partition, strategy) = resolve_partition(&config, nodes.len(), w);
        let partition = Arc::new(partition);
        let lookahead = config
            .conservative_lookahead(partition.assignment())
            .expect("multi-shard runs must have a cross-shard latency floor");
        let spill_threshold = config.link_spill_threshold();
        let track_first_keys = spill_threshold != usize::MAX;
        // Distribute nodes and streams by *global* id: shard `s` gets,
        // in ascending id order, exactly the entries of its members —
        // for contiguous partitions this degenerates to slicing.
        let mut nodes: Vec<Option<P>> = nodes.into_iter().map(Some).collect();
        let mut node_rngs: Vec<Option<_>> = node_rngs.into_iter().map(Some).collect();
        let mut net_rngs: Vec<Option<_>> = net_rngs.into_iter().map(Some).collect();
        let mut states = Vec::with_capacity(w);
        for s in 0..w {
            let members = partition.members(s);
            let route = ShardRoute::new(
                partition.clone(),
                s,
                w,
                track_first_keys.then(FastHashMap::default),
            );
            let take = |v: &mut Vec<Option<_>>| -> Vec<_> {
                members
                    .iter()
                    .map(|&i| v[i as usize].take().expect("each node owned once"))
                    .collect()
            };
            let core = SimCore::new(
                config.clone(),
                take(&mut node_rngs),
                take(&mut net_rngs),
                Some(route),
            );
            let owned: Vec<P> = members
                .iter()
                .map(|&i| nodes[i as usize].take().expect("each node owned once"))
                .collect();
            states.push(EngineState::new(core, owned));
        }
        let windows = WindowLoop {
            partition,
            strategy,
            lookahead,
            spill_threshold,
            merged: None,
            threaded: shard_threads_enabled(),
            windows: 0,
            lane_events: 0,
            lane_flushes: 0,
            exchanges_skipped: 0,
            lane_gather: Vec::new(),
            progress: None,
        };
        (states, windows)
    }

    /// The shard owning `node` and the node's index within it.
    pub(crate) fn locate(&self, node: NodeId) -> (usize, usize) {
        let i = node.index();
        (self.partition.shard_of(i), self.partition.local_of(i))
    }

    /// The window-loop counters at virtual time `now`.
    pub(crate) fn stats(&self, now: SimTime, per_shard_events: Vec<u64>) -> ShardStats {
        ShardStats {
            shards: self.partition.shard_count(),
            strategy: self.strategy,
            lookahead_us: self.lookahead.as_micros(),
            realized_lookahead_us: now.as_micros().checked_div(self.windows).unwrap_or(0),
            windows: self.windows,
            lane_events: self.lane_events,
            lane_flushes: self.lane_flushes,
            exchanges_skipped: self.exchanges_skipped,
            per_shard_events,
        }
    }

    /// Merges the per-shard traffic tables into the sealed global view
    /// (idempotent).
    pub(crate) fn merge_traffic<P: Protocol<Msg = M>>(&mut self, shards: &mut [EngineState<P>]) {
        if self.merged.is_some() {
            return;
        }
        let parts: Vec<Traffic> = shards
            .iter_mut()
            .map(|sh| std::mem::take(&mut sh.core.traffic))
            .collect();
        let raw: Vec<_> = shards
            .iter_mut()
            .map(|sh| sh.core.take_first_keys())
            .collect();
        let keys = resolve_first_keys(raw);
        self.merged = Some(Traffic::merge_shards(parts, keys, self.spill_threshold));
    }

    /// The window loop. Windows are planned from the global minimum
    /// pending event time `M`: everything in `[M, M + L)` is safe to run
    /// in parallel, so the bound handed to each shard is `M + L - 1 µs`
    /// (inclusive). Planning from `M` rather than marching fixed windows
    /// lets the loop leap over idle stretches of virtual time.
    pub(crate) fn run<P: Protocol<Msg = M> + Send>(
        &mut self,
        shards: &mut [EngineState<P>],
        deadline: Option<SimTime>,
    ) {
        if self.threaded {
            self.run_windows_threaded(shards, deadline);
        } else {
            self.run_windows_sequential(shards, deadline);
        }
    }

    /// Single-threaded window driver: identical schedule to the threaded
    /// driver, useful on one core and as the determinism reference.
    fn run_windows_sequential<P: Protocol<Msg = M>>(
        &mut self,
        shards: &mut [EngineState<P>],
        deadline: Option<SimTime>,
    ) {
        for sh in shards.iter_mut() {
            sh.ensure_started();
        }
        loop {
            self.exchange_lanes(shards);
            let min_t = shards.iter().filter_map(|sh| sh.core.next_time()).min();
            let Some(min_t) = min_t else { break };
            if deadline.is_some_and(|d| min_t > d) {
                break;
            }
            let bound = window_bound(min_t, self.lookahead, deadline);
            if let Some(sink) = &self.progress {
                sink.emit(ProgressEvent::Window {
                    window: self.windows + 1,
                    now_us: min_t.as_micros(),
                    events: shards.iter().map(|sh| sh.events_processed).sum(),
                });
            }
            for sh in shards.iter_mut() {
                sh.run_bounded(Some(bound));
            }
            self.windows += 1;
        }
    }

    /// Moves every pending cross-shard lane into its destination queue.
    ///
    /// Adaptive: when no shard has cross-shard sends pending, the whole
    /// exchange is one boolean check. Otherwise the per-`(src, dst)`
    /// lanes are coalesced into **one sorted merge per destination**: all
    /// source lanes gather into a reusable scratch buffer, sort by the
    /// intrinsic `(time, seq)` key, and enter the destination queue in
    /// ascending order — one batched flush instead of `W - 1` per-lane
    /// event streams. Push order never affects dispatch order (the queue
    /// orders by key), so batching is purely a throughput change.
    fn exchange_lanes<P: Protocol<Msg = M>>(&mut self, shards: &mut [EngineState<P>]) {
        if !shards.iter().any(|sh| sh.core.lanes_pending()) {
            self.exchanges_skipped += 1;
            return;
        }
        let w = shards.len();
        let mut gather = std::mem::take(&mut self.lane_gather);
        for dst in 0..w {
            debug_assert!(gather.is_empty());
            for (src, sh) in shards.iter_mut().enumerate() {
                if dst == src {
                    continue;
                }
                let mut lane = sh.core.take_lane(dst);
                self.lane_events += lane.len() as u64;
                gather.append(&mut lane);
                sh.core.put_lane(dst, lane);
            }
            if gather.is_empty() {
                continue;
            }
            gather.sort_unstable_by_key(|ev| (ev.time, ev.seq));
            self.lane_flushes += 1;
            for ev in gather.drain(..) {
                shards[dst].core.enqueue(ev);
            }
        }
        self.lane_gather = gather;
    }

    /// Multi-threaded window driver: one persistent worker per shard,
    /// three barrier phases per window (publish lanes → merge + report →
    /// plan). Lane hand-off goes through per-destination mailboxes; a
    /// worker may publish into a mailbox while its owner still processes
    /// the previous window — merged-early events simply wait in the
    /// queue, which is harmless (only merging *late* would be a bug, and
    /// the publish-before-report barrier order rules it out).
    fn run_windows_threaded<P: Protocol<Msg = M> + Send>(
        &mut self,
        shards: &mut [EngineState<P>],
        deadline: Option<SimTime>,
    ) {
        /// Sentinel bound: stop the loop.
        const STOP: u64 = u64::MAX;
        let w = shards.len();
        let barrier = Barrier::new(w);
        let next_times: Vec<AtomicU64> = (0..w).map(|_| AtomicU64::new(0)).collect();
        // Per-shard dispatched-event counts, refreshed at each boundary
        // so the leader can report progress without touching peer state.
        let events_counts: Vec<AtomicU64> = shards
            .iter()
            .map(|sh| AtomicU64::new(sh.events_processed))
            .collect();
        let base_windows = self.windows;
        let progress = self.progress.clone();
        let bound_cell = AtomicU64::new(0);
        let windows = AtomicU64::new(0);
        let lane_events = AtomicU64::new(0);
        let lane_flushes = AtomicU64::new(0);
        let exchanges_skipped = AtomicU64::new(0);
        // Events published into mailboxes during the current boundary;
        // 0 lets every worker skip its mailbox entirely (adaptive
        // exchange). Reset by the leader while planning the window.
        let published = AtomicU64::new(0);
        let mailboxes: Vec<Mailbox<M>> = (0..w).map(|_| Mutex::new(Vec::new())).collect();
        let deadline_us = deadline.map(|d| d.as_micros());
        let lookahead_us = self.lookahead.as_micros();
        // `Barrier` does not poison: a worker that panicked and left the
        // protocol would deadlock its peers. Panics are therefore caught
        // per work segment; a poisoned worker keeps walking the barrier
        // sequence (doing no work, reporting "empty"), the abort flag
        // makes the leader plan a stop for everyone, and the payload is
        // re-raised once the scope is ready to join.
        let abort = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for (i, sh) in shards.iter_mut().enumerate() {
                let barrier = &barrier;
                let next_times = &next_times;
                let bound_cell = &bound_cell;
                let windows = &windows;
                let lane_events = &lane_events;
                let lane_flushes = &lane_flushes;
                let exchanges_skipped = &exchanges_skipped;
                let published = &published;
                let mailboxes = &mailboxes;
                let abort = &abort;
                let events_counts = &events_counts;
                let progress = &progress;
                scope.spawn(move || {
                    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
                    let mut poison = None;
                    let guard = |p: &mut Option<_>, f: &mut dyn FnMut()| {
                        if p.is_none() {
                            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                                *p = Some(payload);
                                abort.store(true, Ordering::SeqCst);
                            }
                        }
                    };
                    guard(&mut poison, &mut || sh.ensure_started());
                    loop {
                        // Phase 1: publish this shard's outgoing lanes
                        // (skipped outright when it has none pending).
                        guard(&mut poison, &mut || {
                            if !sh.core.lanes_pending() {
                                return;
                            }
                            for (dst, mailbox) in mailboxes.iter().enumerate() {
                                if dst == i {
                                    continue;
                                }
                                let mut lane = sh.core.take_lane(dst);
                                if !lane.is_empty() {
                                    lane_events.fetch_add(lane.len() as u64, Ordering::Relaxed);
                                    published.fetch_add(lane.len() as u64, Ordering::SeqCst);
                                    mailbox.lock().unwrap().append(&mut lane);
                                }
                                sh.core.put_lane(dst, lane);
                            }
                        });
                        barrier.wait();
                        // Phase 2: merge incoming events (one sorted
                        // batch per window — sources appended, the drain
                        // sorts by intrinsic key and pushes ascending),
                        // then report the earliest pending time. When
                        // nothing was published anywhere, every mailbox
                        // is known empty and the exchange is skipped.
                        let mut t = u64::MAX;
                        guard(&mut poison, &mut || {
                            if published.load(Ordering::SeqCst) > 0 {
                                let mut incoming =
                                    std::mem::take(&mut *mailboxes[i].lock().unwrap());
                                if !incoming.is_empty() {
                                    incoming.sort_unstable_by_key(|ev| (ev.time, ev.seq));
                                    lane_flushes.fetch_add(1, Ordering::Relaxed);
                                    for ev in incoming.drain(..) {
                                        sh.core.enqueue(ev);
                                    }
                                    // Hand the buffer back so its
                                    // capacity is reused next window.
                                    *mailboxes[i].lock().unwrap() = incoming;
                                }
                            }
                            t = sh.core.next_time().map_or(u64::MAX, |t| t.as_micros());
                        });
                        next_times[i].store(t, Ordering::SeqCst);
                        events_counts[i].store(sh.events_processed, Ordering::SeqCst);
                        let turn = barrier.wait();
                        // Phase 3: one leader plans the window for all.
                        if turn.is_leader() {
                            // Reset the publish counter for the next
                            // boundary (every phase-2 read is behind the
                            // previous barrier; the next phase-1 adds are
                            // behind the following one).
                            if published.swap(0, Ordering::SeqCst) == 0 {
                                exchanges_skipped.fetch_add(1, Ordering::Relaxed);
                            }
                            let min_t = next_times
                                .iter()
                                .map(|t| t.load(Ordering::SeqCst))
                                .min()
                                .expect("at least one shard");
                            let stop = abort.load(Ordering::SeqCst)
                                || min_t == u64::MAX
                                || deadline_us.is_some_and(|d| min_t > d);
                            let plan = if stop {
                                STOP
                            } else {
                                let local = windows.fetch_add(1, Ordering::Relaxed) + 1;
                                // Observe-only: the sink sees the plan
                                // the leader just made, it cannot
                                // change it.
                                if let Some(sink) = progress {
                                    sink.emit(ProgressEvent::Window {
                                        window: base_windows + local,
                                        now_us: min_t,
                                        events: events_counts
                                            .iter()
                                            .map(|c| c.load(Ordering::SeqCst))
                                            .sum(),
                                    });
                                }
                                let mut b = min_t + lookahead_us - 1;
                                if let Some(d) = deadline_us {
                                    b = b.min(d);
                                }
                                b
                            };
                            bound_cell.store(plan, Ordering::SeqCst);
                        }
                        barrier.wait();
                        let bound = bound_cell.load(Ordering::SeqCst);
                        if bound == STOP {
                            break;
                        }
                        guard(&mut poison, &mut || {
                            sh.run_bounded(Some(SimTime::from_micros(bound)));
                        });
                    }
                    if let Some(payload) = poison {
                        resume_unwind(payload);
                    }
                });
            }
        });
        self.windows += windows.into_inner();
        self.lane_events += lane_events.into_inner();
        self.lane_flushes += lane_flushes.into_inner();
        self.exchanges_skipped += exchanges_skipped.into_inner();
    }
}

/// Rewrites per-shard first-appearance keys into one globally comparable
/// order, reproducing the *sequential execution* order of the record
/// stream.
///
/// Pre-run and `on_start` keys are already global (harness counter /
/// node id). Dispatch-phase keys rank by `(tick, local execution
/// position)`, which is only comparable within one shard: when several
/// shards hold first appearances in the *same* microsecond tick, their
/// interleaving must be replayed. The sequential engine's within-tick
/// order is the greedy head-merge of the shards' local execution
/// sequences by intrinsic event key — at every step the event the
/// sequential queue would pop next is the smallest-keyed *head* (local
/// predecessors must dispatch first, because a same-tick child only
/// enters the queue when its parent runs; shards not holding first
/// appearances in the tick cannot reorder the others and are skipped).
/// The replay assigns each involved event its cross-shard slot, and the
/// keys are rewritten to `(tick, slot)`.
#[allow(clippy::type_complexity)]
fn resolve_first_keys(
    raw: Vec<Option<(FastHashMap<u64, u128>, FastHashMap<u64, Vec<u64>>)>>,
) -> Vec<Option<FastHashMap<u64, u128>>> {
    use crate::sim::{key_mid, key_phase, key_tick, key_with_mid, PHASE_DISPATCH};
    // Ticks holding dispatch-phase first appearances, per shard.
    let mut tick_shards: FastHashMap<u64, Vec<usize>> = FastHashMap::default();
    for (s, entry) in raw.iter().enumerate() {
        if let Some((keys, _)) = entry {
            for &key in keys.values() {
                if key_phase(key) == PHASE_DISPATCH {
                    let shards = tick_shards.entry(key_tick(key)).or_default();
                    if shards.last() != Some(&s) && !shards.contains(&s) {
                        shards.push(s);
                    }
                }
            }
        }
    }
    // Replay every contended tick: cross-shard slot per (tick, shard,
    // local position).
    let mut slots: FastHashMap<(u64, usize, u64), u64> = FastHashMap::default();
    for (&tick, shards) in &tick_shards {
        if shards.len() < 2 {
            continue;
        }
        let seqs: Vec<&[u64]> = shards
            .iter()
            .map(|&s| {
                raw[s]
                    .as_ref()
                    .and_then(|(_, log)| log.get(&tick))
                    .expect("a shard with first appearances retained the tick")
                    .as_slice()
            })
            .collect();
        let mut heads = vec![0usize; seqs.len()];
        let mut slot = 0u64;
        loop {
            let next = (0..seqs.len())
                .filter(|&i| heads[i] < seqs[i].len())
                .min_by_key(|&i| seqs[i][heads[i]]);
            let Some(i) = next else { break };
            slots.insert((tick, shards[i], heads[i] as u64), slot);
            heads[i] += 1;
            slot += 1;
        }
    }
    raw.into_iter()
        .enumerate()
        .map(|(s, entry)| {
            entry.map(|(mut keys, _)| {
                for key in keys.values_mut() {
                    if key_phase(*key) == PHASE_DISPATCH {
                        let tick = key_tick(*key);
                        if tick_shards.get(&tick).is_some_and(|v| v.len() >= 2) {
                            // The mid field holds the local execution
                            // position (the record index lives in the
                            // low bits, untouched by the rewrite).
                            let pos = key_mid(*key);
                            let slot = slots[&(tick, s, pos)];
                            *key = key_with_mid(*key, slot);
                        }
                    }
                }
                keys
            })
        })
        .collect()
}

/// Builds the node partition for a `w`-shard run of `n` nodes, applying
/// the strategy resolution of [`SimConfig::partition_strategy`] and
/// returning the partition together with the strategy that actually
/// took effect: a planned strategy (domain-aligned or rate-balanced)
/// falls back to contiguous when the delay source yields no plan —
/// uniform delays, a dense model, or fewer populated domains than
/// shards.
fn resolve_partition(config: &SimConfig, n: usize, w: usize) -> (Partition, PartitionStrategy) {
    let requested = config.partition_strategy();
    if requested != Some(PartitionStrategy::Contiguous) {
        let rate = requested == Some(PartitionStrategy::RateBalanced);
        if let Some(assign) = config.planned_assignment(w, rate) {
            let effective = if rate {
                PartitionStrategy::RateBalanced
            } else {
                PartitionStrategy::DomainAligned
            };
            return (Partition::from_assignment(assign, w), effective);
        }
    }
    (Partition::contiguous(n, w), PartitionStrategy::Contiguous)
}

/// The inclusive bound of the window starting at the earliest pending
/// event: everything strictly earlier than `min_t + lookahead` may run,
/// clamped to the deadline.
fn window_bound(min_t: SimTime, lookahead: SimDuration, deadline: Option<SimTime>) -> SimTime {
    let b = SimTime::from_micros(min_t.as_micros() + lookahead.as_micros() - 1);
    match deadline {
        Some(d) => b.min(d),
        None => b,
    }
}

/// Whether the window driver should use worker threads: yes when the
/// machine has more than one core, overridable with `EGM_SHARD_THREADS`
/// (`0` forces the single-threaded driver, anything else forces
/// threads).
fn shard_threads_enabled() -> bool {
    match std::env::var("EGM_SHARD_THREADS") {
        Ok(v) => v != "0",
        Err(_) => std::thread::available_parallelism()
            .map(|c| c.get() > 1)
            .unwrap_or(false),
    }
}

#[cfg(test)]
mod tests {
    use super::{auto_shards_for, Partition};

    #[test]
    fn contiguous_partition_covers_every_node_once() {
        for (n, w) in [(1, 1), (7, 3), (10, 4), (1000, 8), (17, 17)] {
            let p = Partition::contiguous(n, w);
            assert_eq!(p.shard_count(), w);
            assert_eq!(p.node_count(), n);
            let mut seen = 0usize;
            for s in 0..w {
                let r = p.range(s);
                assert!(!r.is_empty(), "shard {s} empty for n={n}, w={w}");
                for i in r {
                    assert_eq!(p.shard_of(i), s);
                    seen += 1;
                }
            }
            assert_eq!(seen, n, "ranges must cover 0..n exactly once");
        }
    }

    #[test]
    fn partition_ranges_are_near_equal() {
        let p = Partition::contiguous(10, 3);
        let sizes: Vec<usize> = (0..3).map(|s| p.range(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)), "{sizes:?}");
    }

    #[test]
    #[should_panic(expected = "more shards than nodes")]
    fn partition_rejects_oversharding() {
        let _ = Partition::contiguous(3, 4);
    }

    #[test]
    fn auto_default_is_sequential_below_the_floor() {
        assert_eq!(auto_shards_for(100), 1);
        assert_eq!(auto_shards_for(999), 1);
        assert!(auto_shards_for(1000) >= 1);
        assert!(auto_shards_for(10_000) <= super::MAX_AUTO_SHARDS);
    }
}
