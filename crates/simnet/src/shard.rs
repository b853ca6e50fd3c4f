//! Multi-shard execution of one run: the node partition and the
//! conservative-window loop that keeps shards in lockstep.
//!
//! [`Sim::with_shards`](crate::Sim::with_shards) splits the node id
//! space into `W` disjoint shards under a [`PartitionStrategy`] —
//! contiguous id ranges, or topology-aware domain-aligned cuts planned
//! from the routed model
//! ([`egm_topology::RoutedModel::partition_plan`]); each shard owns its
//! nodes, their RNG streams, an [`EventQueue`](crate::EventQueue), a
//! [`Traffic`] table, a multicast/delivery log
//! ([`crate::record`]) and a copy of the fault view, and dispatches its
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
//! one shard would have dispatched them. The outputs — the set of
//! delivery records (each shard logs its own nodes' in dispatch order),
//! sealed [`Traffic`] (including which links spill: the rule depends on
//! the link alone, so shards cap locally and merge), scheduler counters,
//! event counts — are
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
use crate::NodeId;
use egm_rng::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Node count below which the size-based default is one shard: the
/// smallest scale preset at which two shards beat one by ≥ 1.1× on two
/// cores. Measured with this PR's engine (`shard_events_per_sec`, best
/// of 5–10 warm runs, planning included, `available_parallelism` = 2):
/// 1k 52–58 ms against 80–84 ms on one shard (1.38–1.53×), 4k 246–271
/// against 437–460 ms (1.66–1.78×), 10k 732 against 1 202 ms (1.64×).
/// Nothing smaller than the 1k preset has been measured, and a 1k
/// window already holds only ~600 events, so the floor stays here.
pub const SHARD_MIN_NODES: usize = 1000;

/// Cap on the size-based default shard count: the widest width measured
/// as a win over the next narrower one. On two cores four shards read
/// 0.74× of one shard at 1k, 1.40× at 4k and 1.49× at 10k — behind two
/// shards everywhere (four workers on two cores park at every barrier,
/// and the presets' ten transit domains split 3 / 3 / 3 / 1). Wider
/// runs stay an explicit choice (`Scenario::with_shards`,
/// [`SimConfig::with_shards`]) until there is a measurement on ≥ 8 cores.
pub const MAX_AUTO_SHARDS: usize = 2;

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
    /// A second name for [`PartitionStrategy::DomainAligned`]: the same
    /// planned cut, reported under this name in [`ShardStats::strategy`].
    /// Kept because the repository's benchmark constructs it.
    RateBalanced,
}

impl PartitionStrategy {
    /// The canonical name, as reports and bench records print it.
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
/// window driver.
type Mailbox<M> = Mutex<Vec<Scheduled<EventKind<M>>>>;

/// What a poisoned mailbox or barrier lock means. Work segments run
/// under `catch_unwind` *outside* these locks, which only ever guard a
/// `Vec` append/swap or a counter bump, so this is unreachable short of
/// a failed allocation.
const LOCK_POISONED: &str = "a window-driver lock is held only across infallible moves";

/// How long a [`WindowBarrier`] waiter polls for the release before it
/// parks, in [`std::hint::spin_loop`] iterations. Measured on this PR's
/// two-core box (one iteration ≈ 20 ns), W = 2 on the 10k preset: a run
/// makes 1 770 waits (590 windows × 3 phases) averaging ≈ 2 500
/// iterations (50 µs — about what one futex sleep and wake-up costs on
/// top); 62–67 % of them end within 2¹⁰ iterations, 81 % within 2¹²,
/// 90–94 % within 2¹³ and 99.5 % within 2¹⁵. The budget is set where
/// parking has become the exception, and caps what a waiter can burn on
/// a peer that lost its core at ≈ 0.65 ms — half of one 10k window.
const BARRIER_SPIN_ITERS: u32 = 1 << 15;

/// The window driver's reusable barrier: the last of `parties` arrivers
/// releases the others by bumping a generation counter. A waiter first
/// polls that counter for up to `spin` iterations and only then parks on
/// the condvar; `spin = 0` parks at once, which is what a machine with
/// fewer cores than shards wants (a spinning waiter would be burning the
/// time slice its peer needs to arrive).
#[derive(Debug)]
struct WindowBarrier {
    parties: usize,
    spin: u32,
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Held by the releaser while it bumps `generation` and by a parking
    /// waiter while it re-checks it, so a wake-up cannot fall between a
    /// waiter's check and its sleep.
    parking: Mutex<()>,
    released: Condvar,
}

impl WindowBarrier {
    fn new(parties: usize, spin: u32) -> Self {
        WindowBarrier {
            parties,
            spin,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            parking: Mutex::new(()),
            released: Condvar::new(),
        }
    }

    /// Blocks until all parties have arrived; `true` for exactly one of
    /// them (the last to arrive), which the driver makes its leader.
    fn wait(&self) -> bool {
        match self.arrive() {
            None => true,
            Some(generation) => {
                if !self.spin(generation) {
                    self.park(generation);
                }
                false
            }
        }
    }

    /// Registers one arrival. The last arriver resets the count, releases
    /// the generation and gets `None`; every other gets the generation
    /// whose end it has to wait for.
    fn arrive(&self) -> Option<u64> {
        // Cannot move between this load and the increment below: the
        // generation only advances once this thread, too, has arrived.
        let generation = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 < self.parties {
            return Some(generation);
        }
        // Reset before the release: a released peer may re-arrive (for
        // the next phase) the moment it sees the new generation.
        self.arrived.store(0, Ordering::SeqCst);
        let parking = self.parking.lock().expect(LOCK_POISONED);
        self.generation.store(generation + 1, Ordering::SeqCst);
        drop(parking);
        self.released.notify_all();
        None
    }

    /// Polls for the end of `generation` within the spin budget; `false`
    /// when the budget ran out first.
    fn spin(&self, generation: u64) -> bool {
        for _ in 0..self.spin {
            if self.generation.load(Ordering::SeqCst) != generation {
                return true;
            }
            std::hint::spin_loop();
        }
        false
    }

    /// Sleeps until `generation` has ended.
    fn park(&self, generation: u64) {
        let mut parking = self.parking.lock().expect(LOCK_POISONED);
        while self.generation.load(Ordering::SeqCst) == generation {
            parking = self.released.wait(parking).expect(LOCK_POISONED);
        }
    }
}

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
pub(crate) struct WindowLoop {
    partition: Arc<Partition>,
    /// The strategy the partition was actually built with.
    strategy: PartitionStrategy,
    /// Conservative window length.
    lookahead: SimDuration,
    /// The merged traffic view, once [`WindowLoop::merge_traffic`] ran.
    pub(crate) merged: Option<Traffic>,
    /// Spin budget of the driver's barrier: [`BARRIER_SPIN_ITERS`] when
    /// every shard can have a core to itself, else 0 (park at once).
    barrier_spin: u32,
    windows: u64,
    lane_events: u64,
    lane_flushes: u64,
    exchanges_skipped: u64,
    /// Observe-only progress sink; window plans are reported to it.
    /// `None` (the default) leaves the window loop exactly as it was —
    /// the sink is never consulted for decisions, so installing one
    /// cannot change any simulation output.
    pub(crate) progress: Option<SharedSink>,
}

impl WindowLoop {
    /// Partitions `nodes` and their per-node RNG stream vectors (in
    /// global-id order) across `w > 1` shards, returning the per-shard
    /// event loops and the window-loop state that drives them.
    ///
    /// # Panics
    ///
    /// Panics if no latency floor separates the shards.
    pub(crate) fn split<P: Protocol>(
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
        // Distribute nodes and streams by *global* id: shard `s` gets,
        // in ascending id order, exactly the entries of its members —
        // for contiguous partitions this degenerates to slicing.
        let mut nodes: Vec<Option<P>> = nodes.into_iter().map(Some).collect();
        let mut node_rngs: Vec<Option<_>> = node_rngs.into_iter().map(Some).collect();
        let mut net_rngs: Vec<Option<_>> = net_rngs.into_iter().map(Some).collect();
        let mut states = Vec::with_capacity(w);
        for s in 0..w {
            let members = partition.members(s);
            let route = ShardRoute::new(partition.clone(), s, w);
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
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let windows = WindowLoop {
            partition,
            strategy,
            lookahead,
            merged: None,
            barrier_spin: if cores >= w { BARRIER_SPIN_ITERS } else { 0 },
            windows: 0,
            lane_events: 0,
            lane_flushes: 0,
            exchanges_skipped: 0,
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
    pub(crate) fn merge_traffic<P: Protocol>(&mut self, shards: &mut [EngineState<P>]) {
        if self.merged.is_some() {
            return;
        }
        let parts: Vec<Traffic> = shards
            .iter_mut()
            .map(|sh| std::mem::take(&mut sh.core.traffic))
            .collect();
        self.merged = Some(Traffic::merge_shards(parts));
    }

    /// The window loop. Windows are planned from the global minimum
    /// pending event time `M`: everything in `[M, M + L)` is safe to run
    /// in parallel, so the bound handed to each shard is `M + L - 1 µs`
    /// (inclusive). Planning from `M` rather than marching fixed windows
    /// lets the loop leap over idle stretches of virtual time.
    ///
    /// One persistent worker thread per shard, three barrier phases per
    /// window (publish lanes → merge + report → plan). Lane hand-off goes
    /// through per-destination mailboxes; a worker may publish into a
    /// mailbox while its owner still processes the previous window —
    /// merged-early events simply wait in the queue, which is harmless
    /// (only merging *late* would be a bug, and the publish-before-report
    /// barrier order rules it out). Push order never affects dispatch
    /// order (the queue orders by the intrinsic key), so the schedule is
    /// the same on any number of cores.
    pub(crate) fn run<P: Protocol + Send>(
        &mut self,
        shards: &mut [EngineState<P>],
        deadline: Option<SimTime>,
    ) where
        P::Msg: Send,
    {
        /// Sentinel bound: stop the loop.
        const STOP: u64 = u64::MAX;
        let w = shards.len();
        let barrier = WindowBarrier::new(w, self.barrier_spin);
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
        let mailboxes: Vec<Mailbox<P::Msg>> = (0..w).map(|_| Mutex::new(Vec::new())).collect();
        let deadline_us = deadline.map(|d| d.as_micros());
        let lookahead_us = self.lookahead.as_micros();
        // A worker that panicked and left the protocol would strand its
        // peers at the barrier. Panics are therefore caught per work
        // segment; a poisoned worker keeps walking the barrier sequence
        // (doing no work, reporting "empty"), the abort flag makes the
        // leader plan a stop for everyone, and the payload is re-raised
        // once the scope is ready to join.
        let abort = AtomicBool::new(false);
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
                                    mailbox.lock().expect(LOCK_POISONED).append(&mut lane);
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
                                    std::mem::take(&mut *mailboxes[i].lock().expect(LOCK_POISONED));
                                if !incoming.is_empty() {
                                    incoming.sort_unstable_by_key(|ev| (ev.time, ev.seq));
                                    lane_flushes.fetch_add(1, Ordering::Relaxed);
                                    for ev in incoming.drain(..) {
                                        sh.core.enqueue(ev);
                                    }
                                    // Hand the buffer back so its
                                    // capacity is reused next window.
                                    *mailboxes[i].lock().expect(LOCK_POISONED) = incoming;
                                }
                            }
                            t = sh.core.next_time().map_or(u64::MAX, |t| t.as_micros());
                        });
                        next_times[i].store(t, Ordering::SeqCst);
                        events_counts[i].store(sh.events_processed, Ordering::SeqCst);
                        // Phase 3: one leader plans the window for all.
                        if barrier.wait() {
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

/// Builds the node partition for a `w`-shard run of `n` nodes: the
/// planned domain-aligned cut unless [`SimConfig::partition_strategy`]
/// asks for contiguous ranges, falling back to contiguous when the delay
/// source yields no plan — uniform delays, a dense model, or fewer
/// populated domains than shards. Returns the partition with the
/// strategy name that took effect (a planned cut echoes `RateBalanced`
/// when that is the name it was requested under).
fn resolve_partition(config: &SimConfig, n: usize, w: usize) -> (Partition, PartitionStrategy) {
    let requested = config.partition_strategy();
    if requested != Some(PartitionStrategy::Contiguous) {
        if let Some(assign) = config.planned_assignment(w) {
            let effective = requested.unwrap_or(PartitionStrategy::DomainAligned);
            return (Partition::from_assignment(assign, w), effective);
        }
    }
    (Partition::contiguous(n, w), PartitionStrategy::Contiguous)
}

#[cfg(test)]
mod tests {
    use super::{auto_shards_for, Partition, WindowBarrier};
    use std::sync::mpsc;

    /// Runs one generation of a 3-party barrier with the interleaving
    /// forced by a channel: both waiters have arrived — and have gone
    /// through `before_report` — before the main thread arrives, so it is
    /// the last arriver by construction. After reporting, a waiter takes
    /// the path `wait()` would: park unless the spin saw the release.
    fn release_two_waiters(spin: u32, before_report: fn(&WindowBarrier, u64)) {
        let barrier = WindowBarrier::new(3, spin);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (barrier, tx) = (&barrier, tx.clone());
                scope.spawn(move || {
                    let generation = barrier.arrive().expect("the main thread arrives last");
                    before_report(barrier, generation);
                    tx.send(generation).expect("main thread is listening");
                    if !barrier.spin(generation) {
                        barrier.park(generation);
                    }
                });
            }
            assert_eq!(rx.recv(), Ok(0));
            assert_eq!(rx.recv(), Ok(0));
            assert_eq!(barrier.arrive(), None, "last arriver releases");
        });
        // The scope joined: both waiters woke. The barrier is reusable.
        assert_eq!(barrier.arrive(), Some(1));
    }

    #[test]
    fn last_arriver_releases_spinning_waiters() {
        // A budget no test outlives: the waiters are released while
        // polling and never touch the condvar.
        release_two_waiters(u32::MAX, |_, _| {});
    }

    #[test]
    fn last_arriver_releases_parking_waiters() {
        // No budget: `spin` gives up at once and the waiters park —
        // before or after the release, which is the race the parking
        // lock closes.
        release_two_waiters(0, |barrier, generation| {
            assert!(!barrier.spin(generation), "nothing to poll with");
        });
    }

    #[test]
    fn waiter_that_exhausts_its_spin_budget_still_wakes() {
        // The release cannot come before the report, so this spin runs
        // its whole budget out; the waiter then parks and must be woken.
        release_two_waiters(64, |barrier, generation| {
            assert!(
                !barrier.spin(generation),
                "released before the last arrival"
            );
        });
    }

    #[test]
    fn every_generation_has_exactly_one_leader() {
        // `wait()` end to end over many generations, with a budget small
        // enough that spinning and parking both occur.
        let rounds = 500;
        let barrier = WindowBarrier::new(3, 32);
        let leaders: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| (0..rounds).filter(|_| barrier.wait()).count()))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker finished"))
                .sum()
        });
        assert_eq!(leaders, rounds);
    }

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
        assert_eq!(auto_shards_for(super::SHARD_MIN_NODES - 1), 1);
        // From the floor up: one shard per core, never more than the
        // widest width measured as a win.
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let expect = cores.min(super::MAX_AUTO_SHARDS);
        assert_eq!(auto_shards_for(super::SHARD_MIN_NODES), expect);
        assert_eq!(auto_shards_for(100_000), expect);
        assert_eq!(super::MAX_AUTO_SHARDS, 2);
    }
}
