//! The Payload Scheduler's Lazy Point-to-Point module — Fig. 3 of the
//! paper.
//!
//! Sits between the gossip layer and the transport: every `L-Send` is
//! either materialized as a full `MSG` (eager push) or replaced by an
//! `IHAVE` advertisement with the payload cached for later `IWANT`
//! requests (lazy push). The receiving side queues advertised-but-missing
//! messages and schedules `IWANT`s according to the Transmission Strategy:
//! first request after [`Strategy::first_request_delay`], then
//! periodically every `T` while sources are known, rotating through
//! sources so that *"a queue eventually clears itself as requests on all
//! known sources for a given message identifier are scheduled"*.
//!
//! All per-message state — the received set `R`, payload cache `C`,
//! missing-message queue and holder lists — lives in the node's
//! [`MsgArena`], so the scheduler itself is just the policy plus its
//! counters: an event pays one arena slot access instead of several hash
//! probes.

use crate::arena::MsgArena;
use crate::config::ProtocolConfig;
use crate::id::MsgId;
use crate::msg::{EgmMessage, Payload};
use crate::strategy::{Strategy, StrategyCtx};
use egm_simnet::{NodeId, SimDuration};

/// Per-node scheduler counters, exposed for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Payloads pushed eagerly.
    pub eager_sends: u64,
    /// `IHAVE` advertisements sent instead of payload.
    pub lazy_advertisements: u64,
    /// `IWANT` requests issued.
    pub requests_sent: u64,
    /// Payload transmissions answering `IWANT`s.
    pub request_replies: u64,
    /// `IWANT`s that missed the cache (payload already evicted).
    pub request_misses: u64,
    /// Payloads received more than once.
    pub duplicate_payloads: u64,
    /// Transmissions skipped because the target was already known to hold
    /// the message (NeEM-style suppression, off by default).
    pub suppressed_sends: u64,
    /// Request-timer expiries that found the message already resolved
    /// (payload arrived or entry vanished). With index-free timer
    /// cancellation in the embedding node these pops should never happen:
    /// the node cancels the retry timer the moment the payload resolves,
    /// so the stale heap event is dropped before dispatch. A non-zero
    /// count means dead timer events are reaching the scheduler again.
    pub resolved_timer_pops: u64,
}

/// Sums per-node counters into a run total. The pattern lists every
/// field, so a new counter that is not summed here fails to compile.
impl std::ops::AddAssign for SchedulerStats {
    fn add_assign(&mut self, other: SchedulerStats) {
        let SchedulerStats {
            eager_sends,
            lazy_advertisements,
            requests_sent,
            request_replies,
            request_misses,
            duplicate_payloads,
            suppressed_sends,
            resolved_timer_pops,
        } = other;
        self.eager_sends += eager_sends;
        self.lazy_advertisements += lazy_advertisements;
        self.requests_sent += requests_sent;
        self.request_replies += request_replies;
        self.request_misses += request_misses;
        self.duplicate_payloads += duplicate_payloads;
        self.suppressed_sends += suppressed_sends;
        self.resolved_timer_pops += resolved_timer_pops;
    }
}

/// Outcome of a request-timer expiry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestAction {
    /// Payload arrived meanwhile (or the entry vanished): stop requesting.
    Resolved,
    /// Send `IWANT(id)` to the node and re-check after the retry interval.
    Request(NodeId, SimDuration),
}

/// The Lazy Point-to-Point module (Fig. 3).
///
/// A pure state machine over the node's [`MsgArena`]: the embedding node
/// owns the timers and the transport, and translates the returned values
/// into sends and timer arms. See `egm-core`'s `node` module for the full
/// wiring.
#[derive(Debug)]
pub struct PayloadScheduler {
    suppress_known: bool,
    retry_interval: SimDuration,
    stats: SchedulerStats,
    /// Scratch for [`MsgArena::missing_candidates_into`], reused across
    /// request-timer expiries to keep the retry path allocation-free.
    scratch_idx: Vec<usize>,
    /// Scratch candidate sources handed to the strategy's `pick_source`.
    scratch_sources: Vec<NodeId>,
}

impl PayloadScheduler {
    /// Creates the scheduler from the node configuration.
    pub fn new(config: &ProtocolConfig) -> Self {
        PayloadScheduler {
            suppress_known: config.suppress_known,
            retry_interval: config.retry_interval,
            stats: SchedulerStats::default(),
            scratch_idx: Vec::new(),
            scratch_sources: Vec::new(),
        }
    }

    /// Scheduler counters.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// `L-Send(i, d, r, p)` (line 19): consult `Eager?` and produce either
    /// the full `MSG` or an `IHAVE` (caching the payload for later
    /// requests). Returns `None` when NeEM-style suppression is enabled
    /// and the target is already known to hold the message.
    #[allow(clippy::too_many_arguments)]
    pub fn l_send(
        &mut self,
        ctx: &mut StrategyCtx<'_>,
        strategy: &Strategy,
        arena: &mut MsgArena,
        slot: u32,
        id: MsgId,
        payload: Payload,
        round: u32,
        to: NodeId,
    ) -> Option<EgmMessage> {
        if self.suppress_known && arena.is_holder(slot, to) {
            self.stats.suppressed_sends += 1;
            return None;
        }
        if strategy.eager(ctx, to, round) {
            self.stats.eager_sends += 1;
            Some(EgmMessage::Msg { id, payload, round })
        } else {
            arena.cache_put(slot, payload, round); // line 23: C[i] = (d, r)
            self.stats.lazy_advertisements += 1;
            Some(EgmMessage::IHave { id })
        }
    }

    /// `Receive(MSG(i, d, r), s)` (line 28): returns the payload to hand
    /// to the gossip layer (`L-Receive`), or `None` for duplicates.
    pub fn on_msg(
        &mut self,
        arena: &mut MsgArena,
        slot: u32,
        payload: Payload,
        round: u32,
    ) -> Option<(Payload, u32)> {
        if !arena.mark_received(slot) {
            self.stats.duplicate_payloads += 1;
            return None; // line 29: i ∈ R
        }
        arena.missing_clear(slot); // line 31: Clear(i)
        Some((payload, round))
    }

    /// `Receive(IHAVE(i), s)` (line 25): queue the source; returns the
    /// delay after which the *first* request should fire when this is a
    /// newly missing message (the caller arms a timer), or `None` when a
    /// timer is already pending or the payload is already here.
    pub fn on_ihave(
        &mut self,
        strategy: &Strategy,
        arena: &mut MsgArena,
        slot: u32,
        from: NodeId,
    ) -> Option<SimDuration> {
        if arena.is_received(slot) {
            return None; // line 26: i ∈ R
        }
        if arena.is_missing(slot) {
            arena.missing_add_source(slot, from); // Queue(i, s), timer armed
            None
        } else {
            arena.missing_start(slot, from);
            Some(strategy.first_request_delay())
        }
    }

    /// `Receive(IWANT(i), s)` (line 33): answer from the cache.
    ///
    /// The paper notes a request can only follow our own advertisement, so
    /// the payload "is guaranteed to be locally known" — with a bounded
    /// cache an eviction can break that guarantee, which is counted in
    /// [`SchedulerStats::request_misses`].
    pub fn on_iwant(&mut self, arena: &MsgArena, id: MsgId) -> Option<EgmMessage> {
        match arena.lookup(&id).and_then(|slot| arena.cache_get(slot)) {
            Some((payload, round)) => {
                self.stats.request_replies += 1;
                Some(EgmMessage::Msg { id, payload, round })
            }
            None => {
                self.stats.request_misses += 1;
                None
            }
        }
    }

    /// Request-timer expiry for the message in `slot` — the body of Task
    /// 2's `ScheduleNext()` loop (line 38): pick a source via the
    /// strategy, emit `IWANT`, and reschedule.
    pub fn on_request_timer(
        &mut self,
        ctx: &StrategyCtx<'_>,
        strategy: &Strategy,
        arena: &mut MsgArena,
        slot: u32,
    ) -> RequestAction {
        if arena.is_received(slot) {
            arena.missing_clear(slot);
            self.stats.resolved_timer_pops += 1;
            return RequestAction::Resolved;
        }
        if !arena.is_missing(slot) {
            self.stats.resolved_timer_pops += 1;
            return RequestAction::Resolved;
        }
        arena.missing_candidates_into(slot, &mut self.scratch_idx, &mut self.scratch_sources);
        debug_assert!(
            !self.scratch_idx.is_empty(),
            "missing entries always have a source"
        );
        let choice = strategy.pick_source(ctx, &self.scratch_sources);
        let source_idx = self.scratch_idx[choice.min(self.scratch_idx.len() - 1)];
        let source = arena.missing_mark_requested(slot, source_idx);
        self.stats.requests_sent += 1;
        RequestAction::Request(source, self.retry_interval)
    }
}

#[cfg(test)]
mod tests {
    use super::{PayloadScheduler, RequestAction};
    use crate::arena::MsgArena;
    use crate::config::ProtocolConfig;
    use crate::id::MsgId;
    use crate::monitor::NullMonitor;
    use crate::msg::{EgmMessage, Payload};
    use crate::strategy::{StrategyCtx, StrategySpec};
    use egm_rng::Rng;
    use egm_simnet::{NodeId, SimDuration};

    fn scheduler() -> (PayloadScheduler, MsgArena) {
        let config = ProtocolConfig::default();
        (
            PayloadScheduler::new(&config),
            MsgArena::new(
                config.known_capacity,
                config.cache_capacity,
                config.suppress_known,
            ),
        )
    }

    fn payload() -> Payload {
        Payload { seq: 1, bytes: 256 }
    }

    fn with_ctx<R>(f: impl FnOnce(&mut StrategyCtx<'_>) -> R) -> R {
        let mut rng = Rng::seed_from_u64(4);
        let monitor = NullMonitor;
        let mut ctx = StrategyCtx {
            me: NodeId(0),
            rng: &mut rng,
            monitor: &monitor,
        };
        f(&mut ctx)
    }

    #[test]
    fn eager_strategy_sends_full_message() {
        let (mut sched, mut arena) = scheduler();
        let eager = StrategySpec::Flat { pi: 1.0 }.build(None);
        let id = MsgId::from_raw(1);
        let slot = arena.intern(id);
        let out = with_ctx(|ctx| {
            sched.l_send(ctx, &eager, &mut arena, slot, id, payload(), 1, NodeId(2))
        })
        .expect("not suppressed");
        assert!(matches!(out, EgmMessage::Msg { round: 1, .. }));
        assert_eq!(sched.stats().eager_sends, 1);
        assert_eq!(sched.stats().lazy_advertisements, 0);
    }

    #[test]
    fn lazy_strategy_advertises_and_caches() {
        let (mut sched, mut arena) = scheduler();
        let lazy = StrategySpec::Flat { pi: 0.0 }.build(None);
        let id = MsgId::from_raw(2);
        let slot = arena.intern(id);
        let out =
            with_ctx(|ctx| sched.l_send(ctx, &lazy, &mut arena, slot, id, payload(), 2, NodeId(3)))
                .expect("not suppressed");
        assert_eq!(out, EgmMessage::IHave { id });
        assert_eq!(sched.stats().lazy_advertisements, 1);
        // the cached payload answers IWANT with the original round
        let reply = sched.on_iwant(&arena, id).expect("cache hit");
        assert!(matches!(reply, EgmMessage::Msg { round: 2, .. }));
        assert_eq!(sched.stats().request_replies, 1);
    }

    #[test]
    fn iwant_miss_is_counted_not_fatal() {
        let (mut sched, arena) = scheduler();
        assert!(sched.on_iwant(&arena, MsgId::from_raw(99)).is_none());
        assert_eq!(sched.stats().request_misses, 1);
    }

    #[test]
    fn duplicate_payloads_are_dropped() {
        let (mut sched, mut arena) = scheduler();
        let id = MsgId::from_raw(3);
        let slot = arena.intern(id);
        assert!(sched.on_msg(&mut arena, slot, payload(), 1).is_some());
        assert!(sched.on_msg(&mut arena, slot, payload(), 2).is_none());
        assert_eq!(sched.stats().duplicate_payloads, 1);
        assert!(arena.has_received(&id));
    }

    #[test]
    fn first_ihave_arms_timer_with_strategy_delay() {
        let (mut sched, mut arena) = scheduler();
        let lazy = StrategySpec::Flat { pi: 0.0 }.build(None);
        let id = MsgId::from_raw(4);
        let slot = arena.intern(id);
        let delay = sched.on_ihave(&lazy, &mut arena, slot, NodeId(5));
        assert_eq!(delay, Some(SimDuration::ZERO), "flat requests immediately");
        // second advertisement only queues the source, no new timer
        assert_eq!(sched.on_ihave(&lazy, &mut arena, slot, NodeId(6)), None);
        assert_eq!(arena.missing_count(), 1);
    }

    #[test]
    fn ihave_after_payload_is_ignored() {
        let (mut sched, mut arena) = scheduler();
        let lazy = StrategySpec::Flat { pi: 0.0 }.build(None);
        let id = MsgId::from_raw(5);
        let slot = arena.intern(id);
        sched.on_msg(&mut arena, slot, payload(), 1);
        assert_eq!(sched.on_ihave(&lazy, &mut arena, slot, NodeId(5)), None);
        assert_eq!(arena.missing_count(), 0);
    }

    #[test]
    fn request_timer_rotates_through_sources() {
        let (mut sched, mut arena) = scheduler();
        let lazy = StrategySpec::Flat { pi: 0.0 }.build(None);
        let id = MsgId::from_raw(6);
        let slot = arena.intern(id);
        sched.on_ihave(&lazy, &mut arena, slot, NodeId(10));
        sched.on_ihave(&lazy, &mut arena, slot, NodeId(11));
        let first = with_ctx(|ctx| sched.on_request_timer(ctx, &lazy, &mut arena, slot));
        let RequestAction::Request(s1, t) = first else {
            panic!("expected a request");
        };
        assert_eq!(t, SimDuration::from_ms(400.0));
        let second = with_ctx(|ctx| sched.on_request_timer(ctx, &lazy, &mut arena, slot));
        let RequestAction::Request(s2, _) = second else {
            panic!("expected a request");
        };
        assert_ne!(s1, s2, "rotation must try the other source");
        // Third request wraps around the rotation.
        let third = with_ctx(|ctx| sched.on_request_timer(ctx, &lazy, &mut arena, slot));
        assert!(matches!(third, RequestAction::Request(_, _)));
        assert_eq!(sched.stats().requests_sent, 3);
    }

    #[test]
    fn request_timer_resolves_after_payload_arrives() {
        let (mut sched, mut arena) = scheduler();
        let lazy = StrategySpec::Flat { pi: 0.0 }.build(None);
        let id = MsgId::from_raw(7);
        let slot = arena.intern(id);
        sched.on_ihave(&lazy, &mut arena, slot, NodeId(10));
        sched.on_msg(&mut arena, slot, payload(), 1);
        let action = with_ctx(|ctx| sched.on_request_timer(ctx, &lazy, &mut arena, slot));
        assert_eq!(action, RequestAction::Resolved);
        assert_eq!(arena.missing_count(), 0);
        assert_eq!(sched.stats().requests_sent, 0);
    }

    #[test]
    fn suppression_skips_known_holders() {
        let config = ProtocolConfig {
            suppress_known: true,
            ..ProtocolConfig::default()
        };
        let mut sched = PayloadScheduler::new(&config);
        let mut arena = MsgArena::new(
            config.known_capacity,
            config.cache_capacity,
            config.suppress_known,
        );
        let eager = StrategySpec::Flat { pi: 1.0 }.build(None);
        let id = MsgId::from_raw(50);
        let slot = arena.intern(id);
        arena.note_holder(slot, NodeId(7));
        assert!(arena.is_holder(slot, NodeId(7)));
        assert!(!arena.is_holder(slot, NodeId(8)));
        let to_holder = with_ctx(|ctx| {
            sched.l_send(ctx, &eager, &mut arena, slot, id, payload(), 1, NodeId(7))
        });
        assert!(
            to_holder.is_none(),
            "send to a known holder must be suppressed"
        );
        assert_eq!(sched.stats().suppressed_sends, 1);
        let to_other = with_ctx(|ctx| {
            sched.l_send(ctx, &eager, &mut arena, slot, id, payload(), 1, NodeId(8))
        });
        assert!(to_other.is_some());
    }

    #[test]
    fn suppression_is_off_by_default() {
        let (mut sched, mut arena) = scheduler();
        let eager = StrategySpec::Flat { pi: 1.0 }.build(None);
        let id = MsgId::from_raw(51);
        let slot = arena.intern(id);
        arena.note_holder(slot, NodeId(7));
        let out = with_ctx(|ctx| {
            sched.l_send(ctx, &eager, &mut arena, slot, id, payload(), 1, NodeId(7))
        });
        assert!(out.is_some(), "pseudocode-faithful mode pushes regardless");
        assert_eq!(sched.stats().suppressed_sends, 0);
    }

    #[test]
    fn unknown_timer_is_resolved_quietly() {
        let (mut sched, mut arena) = scheduler();
        let lazy = StrategySpec::Flat { pi: 0.0 }.build(None);
        let slot = arena.intern(MsgId::from_raw(77));
        let action = with_ctx(|ctx| sched.on_request_timer(ctx, &lazy, &mut arena, slot));
        assert_eq!(action, RequestAction::Resolved);
    }
}
