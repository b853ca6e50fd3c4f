//! Arena-backed per-message node state.
//!
//! Before the 10k-scale work, every node kept its per-message state in
//! half a dozen hash structures — the gossip known-set `K`, the
//! scheduler's received-set `R`, payload cache `C`, missing-message queue
//! and holder map, plus two timer maps in the node itself. One delivered
//! message meant five or six independent hash probes into cold tables,
//! and at 10 000 nodes every probe is a cache miss.
//!
//! [`MsgArena`] collapses all of it into one structure: a single
//! interning map (`MsgId` → dense slot index) and a slab of
//! [`MsgState`] records holding every per-message flag, the cached
//! payload and the retry-timer handle in one cache line. A message event
//! costs one hash probe to find the slot; everything else is field
//! access on that one record. The variable-length state lives outside the
//! slab: request sources of every advertised-but-missing message share
//! one per-node list (a node has few such messages at a time, so there is
//! no per-slot list to keep warm or clear), and holder lists exist only
//! when NeEM-style suppression is on. Slots are
//! generation-stamped and recycled through a free list; a FIFO eviction
//! queue bounds live slots to the configured `known_capacity` (mirroring
//! the old bounded sets — far above any experiment's live message count),
//! and a second FIFO bounds cached payloads to `cache_capacity`.
//!
//! The generation stamp also replaces the node's timer maps: a request
//! timer tag encodes `(slot, generation)`, so a firing timer re-finds its
//! message in O(1) and a timer for an evicted (recycled) slot is
//! recognized as stale without any bookkeeping.

use crate::id::MsgId;
use crate::msg::Payload;
use egm_rng::hash::FastHashMap;
use egm_simnet::{NodeId, SimTime, TimerToken};
use std::collections::VecDeque;

/// Stale entries the intern-order fifo may hold beyond twice the live
/// count before it is compacted (see `MsgArena::free_slot`).
const FIFO_SLACK: usize = 32;

/// Occupancy counters of one [`MsgArena`], for steady-state accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Slots freed by horizon-based retirement (not FIFO eviction).
    pub retired: u64,
    /// Live slots right now.
    pub live: usize,
    /// Maximum live slots ever held — the arena's working-set size.
    pub high_water: usize,
}

/// The per-message state every message event reads, in one cache line
/// (pinned by a size test). The variable-length lists live in the arena's
/// `pending` and `holders` tables.
#[derive(Debug, Default)]
pub struct MsgState {
    /// The interned message id.
    id: MsgId,
    /// Cached payload and round for answering `IWANT`s.
    cache: (Payload, u32),
    /// Bumped whenever the slot is evicted and recycled; stale handles
    /// (timer tags) carry the generation they were minted with.
    gen: u32,
    /// Gossip known-set `K` membership (Fig. 2, line 2).
    known: bool,
    /// Scheduler received-set `R` membership (Fig. 3, line 17).
    received: bool,
    /// Whether `cache` holds a payload (`C`, Fig. 3, line 16).
    cached: bool,
    /// Whether the message is advertised-but-missing with a live request
    /// rotation.
    missing: bool,
    /// Pending retry timer, so a resolving payload can cancel it
    /// index-free instead of letting the dead event pop. Its tag is a
    /// function of the slot and `gen`, so only the token is kept.
    timer: Option<TimerToken>,
}

/// One known source of an advertised-but-missing message.
#[derive(Debug, Clone, Copy)]
struct Pending {
    slot: u32,
    source: u32,
    /// Whether `source` has been asked in the current rotation.
    requested: bool,
}

impl Pending {
    fn new(slot: u32, source: NodeId) -> Self {
        debug_assert!(source.index() < u32::MAX as usize);
        Pending {
            slot,
            source: source.index() as u32,
            requested: false,
        }
    }
}

/// Dense, generation-checked arena of per-message state for one node.
///
/// # Examples
///
/// ```
/// use egm_core::arena::MsgArena;
/// use egm_core::MsgId;
///
/// let mut arena = MsgArena::new(64, 32, false);
/// let slot = arena.intern(MsgId::from_raw(7));
/// assert!(arena.mark_received(slot));
/// assert!(!arena.mark_received(slot), "second delivery is a duplicate");
/// assert!(arena.has_received(&MsgId::from_raw(7)));
/// ```
#[derive(Debug)]
pub struct MsgArena {
    /// Horizon of the retire queue's front entry (`None` when the queue
    /// is empty), kept in the arena header so the per-event
    /// [`MsgArena::retire_expired`] is one compare on a line the node has
    /// already loaded rather than a read of the queue's heap buffer.
    next_retire: Option<SimTime>,
    index: FastHashMap<MsgId, u32>,
    slots: Vec<MsgState>,
    /// Sources of every missing message, in advertisement order; a
    /// message's entries, read in order, are its request rotation.
    pending: Vec<Pending>,
    /// Peers known to hold each slot's message, parallel to `slots` when
    /// holder tracking is on and empty otherwise.
    holders: Vec<Vec<NodeId>>,
    free: Vec<u32>,
    /// Slot insertion order (with mint generation) for FIFO eviction;
    /// at most `2 × live + FIFO_SLACK` entries.
    fifo: VecDeque<(u32, u32)>,
    /// Cache insertion order (with generation) for FIFO payload eviction.
    cache_fifo: VecDeque<(u32, u32)>,
    /// Delivered slots awaiting horizon-based retirement, in delivery
    /// order with their mint generation and retirement time. Delivery
    /// times are monotone within a node, so the front entry always has
    /// the earliest horizon.
    retire_fifo: VecDeque<(u32, u32, SimTime)>,
    capacity: usize,
    cache_capacity: usize,
    live: usize,
    cached: usize,
    known: usize,
    missing: usize,
    /// Slots freed by [`MsgArena::retire_expired`].
    retired: u64,
    /// Maximum `live` ever observed.
    high_water: usize,
    track_holders: bool,
}

impl MsgArena {
    /// Creates an arena bounded to `capacity` live messages and
    /// `cache_capacity` cached payloads. `track_holders` enables the
    /// holder lists consulted by NeEM-style suppression.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero or `capacity` exceeds `2^31`
    /// (slot indices are packed into timer tags).
    pub fn new(capacity: usize, cache_capacity: usize, track_holders: bool) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(cache_capacity > 0, "cache capacity must be positive");
        assert!(capacity <= 1 << 31, "capacity must fit a packed tag");
        MsgArena {
            next_retire: None,
            index: FastHashMap::default(),
            slots: Vec::new(),
            pending: Vec::new(),
            holders: Vec::new(),
            free: Vec::new(),
            fifo: VecDeque::new(),
            cache_fifo: VecDeque::new(),
            retire_fifo: VecDeque::new(),
            capacity,
            cache_capacity,
            live: 0,
            cached: 0,
            known: 0,
            missing: 0,
            retired: 0,
            high_water: 0,
            track_holders,
        }
    }

    /// Returns the slot for `id`, creating (and possibly evicting the
    /// oldest message) if unseen. This is the single hash probe a message
    /// event pays; all further state access is by slot.
    pub fn intern(&mut self, id: MsgId) -> u32 {
        if let Some(&slot) = self.index.get(&id) {
            return slot;
        }
        if self.live >= self.capacity {
            self.evict_oldest();
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].id = id;
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(MsgState {
                    id,
                    ..MsgState::default()
                });
                if self.track_holders {
                    self.holders.push(Vec::new());
                }
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.index.insert(id, slot);
        self.fifo.push_back((slot, gen));
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        slot
    }

    /// Looks up the slot for `id` without creating one.
    pub fn lookup(&self, id: &MsgId) -> Option<u32> {
        self.index.get(id).copied()
    }

    /// Evicts the oldest live slot (FIFO over interning order).
    fn evict_oldest(&mut self) {
        while let Some((slot, gen)) = self.fifo.pop_front() {
            if self.slots[slot as usize].gen != gen {
                continue; // stale fifo entry of a recycled slot
            }
            self.free_slot(slot);
            return;
        }
        unreachable!("live slots imply a fifo entry");
    }

    /// Frees one live slot: drops its flags from the counters, removes it
    /// from the interning map, resets its state, bumps the generation
    /// (invalidating every outstanding handle) and returns it to the free
    /// list. Shared by FIFO eviction and horizon retirement.
    fn free_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        if s.known {
            self.known -= 1;
        }
        if s.cached {
            self.cached -= 1;
        }
        if s.missing {
            self.missing -= 1;
            self.pending.retain(|p| p.slot != slot);
        }
        self.index.remove(&s.id);
        if let Some(holders) = self.holders.get_mut(slot as usize) {
            holders.clear();
        }
        s.known = false;
        s.received = false;
        s.cached = false;
        s.missing = false;
        s.timer = None;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        // Freeing may have stranded this slot's cache_fifo entry; drain
        // stale front entries so the fifo stays bounded even when the
        // cache itself never overflows.
        self.drain_stale_cache_fifo();
        // The intern-order entry is stranded too, and retirement frees in
        // delivery order, so stale entries need not reach the front where
        // eviction (which retirement keeps from running) would pop them.
        // Once they outnumber the live ones, drop them all: order is kept,
        // the fifo stays O(live), and each pass removes over half of what
        // it scans (amortised O(1) per interned message).
        if self.fifo.len() > 2 * self.live + FIFO_SLACK {
            let slots = &self.slots;
            self.fifo.retain(|&(s, g)| slots[s as usize].gen == g);
        }
    }

    // --- horizon-based retirement ---------------------------------------

    /// Schedules the delivered message in `slot` for retirement at `at`.
    ///
    /// Called once per delivery when retirement is enabled; delivery
    /// times are monotone, so the queue stays sorted by horizon. The slot
    /// is freed by a later [`MsgArena::retire_expired`] sweep unless FIFO
    /// eviction recycled it first (detected by the generation stamp).
    pub fn schedule_retire(&mut self, slot: u32, at: SimTime) {
        let gen = self.slots[slot as usize].gen;
        self.retire_fifo.push_back((slot, gen, at));
        self.next_retire.get_or_insert(at);
    }

    /// Frees every scheduled slot whose retirement horizon has passed,
    /// returning how many were retired.
    ///
    /// Retirement never touches the event queue, the RNGs or any timer:
    /// a run with retirement enabled processes the *identical* event
    /// stream as one without, provided the horizon exceeds the time
    /// between a message's delivery and the last protocol event anywhere
    /// that still references it (late duplicates, `IHAVE`s and `IWANT`s).
    /// After the horizon a late `IWANT` would be answered with a cache
    /// miss, so the configured horizon must cover the worst-case quiesce
    /// time (gossip depth × (link delay + retry interval) under the run's
    /// loss rate).
    #[inline]
    pub fn retire_expired(&mut self, now: SimTime) -> usize {
        match self.next_retire {
            Some(at) if at <= now => self.retire_until(Some(now)),
            _ => 0,
        }
    }

    /// Pops the retire queue up to and including horizon `until` (all of
    /// it for `None`), freeing every slot FIFO eviction has not already
    /// recycled, and re-caches the new front's horizon.
    fn retire_until(&mut self, until: Option<SimTime>) -> usize {
        let mut freed = 0;
        while let Some(&(slot, gen, at)) = self.retire_fifo.front() {
            if until.is_some_and(|now| at > now) {
                break;
            }
            self.retire_fifo.pop_front();
            if self.slots[slot as usize].gen != gen {
                continue; // FIFO eviction already recycled the slot
            }
            debug_assert!(
                self.slots[slot as usize].received && self.slots[slot as usize].timer.is_none(),
                "retire queue must only hold delivered, timer-free slots"
            );
            self.free_slot(slot);
            self.retired += 1;
            freed += 1;
        }
        self.next_retire = self.retire_fifo.front().map(|&(_, _, at)| at);
        freed
    }

    /// Frees every scheduled slot regardless of horizon, returning how
    /// many were retired.
    ///
    /// Run-end sweep: a message published near the end of a long
    /// open-loop run can have its retirement horizon land *after* the
    /// last simulated event, so no [`MsgArena::retire_expired`] sweep
    /// ever reaches it and the slot sits unretired in the end-of-run
    /// accounting. The harness calls this once after the event loop
    /// finishes; it can never affect the event stream (retirement frees
    /// state only) and `high_water` is unaffected because no new slots
    /// are interned afterwards.
    pub fn retire_all(&mut self) -> usize {
        self.retire_until(None)
    }

    /// Occupancy counters: retired slots, live slots, live high-water.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            retired: self.retired,
            live: self.live,
            high_water: self.high_water,
        }
    }

    /// Pops cache-fifo front entries whose slot was evicted (generation
    /// mismatch) or un-cached meanwhile. Amortized O(1): every entry is
    /// pushed once and popped once. Slot eviction is FIFO over intern
    /// order and caching follows interning, so stranded entries surface
    /// at the front and the fifo length tracks the live cache.
    fn drain_stale_cache_fifo(&mut self) {
        while let Some(&(slot, gen)) = self.cache_fifo.front() {
            let s = &self.slots[slot as usize];
            if s.gen == gen && s.cached {
                break;
            }
            self.cache_fifo.pop_front();
        }
    }

    /// The generation currently minted for `slot`.
    pub fn generation(&self, slot: u32) -> u32 {
        self.slots[slot as usize].gen
    }

    /// The message id interned in `slot`.
    pub fn slot_id(&self, slot: u32) -> MsgId {
        self.slots[slot as usize].id
    }

    /// Whether `slot` still carries the generation a handle was minted
    /// with (i.e. the handle's message was not evicted meanwhile).
    pub fn check_generation(&self, slot: u32, gen: u32) -> bool {
        (slot as usize) < self.slots.len() && self.slots[slot as usize].gen == gen
    }

    // --- gossip known-set `K` -------------------------------------------

    /// Marks `slot` known; `true` when newly known (Fig. 2's `i ∉ K`).
    pub fn mark_known(&mut self, slot: u32) -> bool {
        let s = &mut self.slots[slot as usize];
        if s.known {
            return false;
        }
        s.known = true;
        self.known += 1;
        true
    }

    /// Whether the message is in `K`.
    pub fn knows(&self, id: &MsgId) -> bool {
        self.lookup(id)
            .is_some_and(|slot| self.slots[slot as usize].known)
    }

    /// Number of messages currently in `K`.
    pub fn known_count(&self) -> usize {
        self.known
    }

    // --- scheduler received-set `R` -------------------------------------

    /// Marks `slot` received; `true` when newly received (Fig. 3's
    /// `i ∉ R`).
    pub fn mark_received(&mut self, slot: u32) -> bool {
        let s = &mut self.slots[slot as usize];
        if s.received {
            return false;
        }
        s.received = true;
        true
    }

    /// Whether the payload for `slot` has been received.
    pub fn is_received(&self, slot: u32) -> bool {
        self.slots[slot as usize].received
    }

    /// Whether the payload of `id` has been received.
    pub fn has_received(&self, id: &MsgId) -> bool {
        self.lookup(id)
            .is_some_and(|slot| self.slots[slot as usize].received)
    }

    // --- payload cache `C` ----------------------------------------------

    /// Caches the payload for `slot` (Fig. 3, line 23: `C[i] = (d, r)`),
    /// evicting the oldest cached payload beyond the cache capacity.
    /// Re-caching an existing entry replaces it without changing its age.
    pub fn cache_put(&mut self, slot: u32, payload: Payload, round: u32) {
        let gen = {
            let s = &mut self.slots[slot as usize];
            s.cache = (payload, round);
            if s.cached {
                return;
            }
            s.cached = true;
            s.gen
        };
        self.cached += 1;
        self.cache_fifo.push_back((slot, gen));
        self.drain_stale_cache_fifo();
        while self.cached > self.cache_capacity {
            match self.cache_fifo.pop_front() {
                Some((old, old_gen)) => {
                    let s = &mut self.slots[old as usize];
                    if s.gen == old_gen && s.cached {
                        s.cached = false;
                        self.cached -= 1;
                    }
                }
                None => break,
            }
        }
    }

    /// The cached payload for `slot`, if still cached.
    pub fn cache_get(&self, slot: u32) -> Option<(Payload, u32)> {
        let s = &self.slots[slot as usize];
        s.cached.then_some(s.cache)
    }

    // --- holder tracking (NeEM-style suppression) -----------------------

    /// Notes that `peer` holds the message (no-op unless holder tracking
    /// is enabled — holders are only consulted by suppression).
    pub fn note_holder(&mut self, slot: u32, peer: NodeId) {
        if !self.track_holders {
            return;
        }
        let holders = &mut self.holders[slot as usize];
        if !holders.contains(&peer) {
            holders.push(peer);
        }
    }

    /// Whether `peer` is known to hold the message.
    pub fn is_holder(&self, slot: u32, peer: NodeId) -> bool {
        self.holders
            .get(slot as usize)
            .is_some_and(|h| h.contains(&peer))
    }

    // --- missing-message queue ------------------------------------------

    /// Whether `slot` is advertised-but-missing.
    pub fn is_missing(&self, slot: u32) -> bool {
        self.slots[slot as usize].missing
    }

    /// Number of advertised-but-missing messages currently queued.
    pub fn missing_count(&self) -> usize {
        self.missing
    }

    /// Starts the missing-message queue for `slot` with its first source.
    pub fn missing_start(&mut self, slot: u32, source: NodeId) {
        let s = &mut self.slots[slot as usize];
        debug_assert!(!s.missing);
        debug_assert!(self.pending.iter().all(|p| p.slot != slot));
        s.missing = true;
        self.pending.push(Pending::new(slot, source));
        self.missing += 1;
    }

    /// Queues another source for a missing message (`Queue(i, s)`).
    pub fn missing_add_source(&mut self, slot: u32, source: NodeId) {
        debug_assert!(self.slots[slot as usize].missing);
        let entry = Pending::new(slot, source);
        if !self
            .pending
            .iter()
            .any(|p| (p.slot, p.source) == (slot, entry.source))
        {
            self.pending.push(entry);
        }
    }

    /// Clears the missing state (`Clear(i)`), e.g. when the payload
    /// arrives. Returns whether it was set.
    pub fn missing_clear(&mut self, slot: u32) -> bool {
        let s = &mut self.slots[slot as usize];
        if !s.missing {
            return false;
        }
        s.missing = false;
        self.pending.retain(|p| p.slot != slot);
        self.missing -= 1;
        true
    }

    /// Fills `idx`/`sources` with the positions and ids of sources not
    /// yet requested this rotation, resetting the rotation when exhausted
    /// (requests cycle through all known sources). A position is valid
    /// for [`MsgArena::missing_mark_requested`] until the missing state of
    /// any message next changes. Writes into caller-owned scratch buffers:
    /// this runs on every request-timer expiry, so it must not allocate.
    pub fn missing_candidates_into(
        &mut self,
        slot: u32,
        idx: &mut Vec<usize>,
        sources: &mut Vec<NodeId>,
    ) {
        debug_assert!(self.slots[slot as usize].missing);
        let mine = |p: &&mut Pending| p.slot == slot;
        if self.pending.iter_mut().filter(mine).all(|p| p.requested) {
            for p in self.pending.iter_mut().filter(mine) {
                p.requested = false;
            }
        }
        idx.clear();
        sources.clear();
        for (i, p) in self.pending.iter().enumerate() {
            if p.slot == slot && !p.requested {
                idx.push(i);
                sources.push(NodeId(p.source as usize));
            }
        }
    }

    /// Marks rotation position `source_idx` as requested and returns its
    /// source id.
    pub fn missing_mark_requested(&mut self, slot: u32, source_idx: usize) -> NodeId {
        let p = &mut self.pending[source_idx];
        debug_assert_eq!(p.slot, slot, "position from another message's rotation");
        p.requested = true;
        NodeId(p.source as usize)
    }

    // --- request-timer handle -------------------------------------------

    /// Stores the pending retry timer for `slot`.
    pub fn set_timer(&mut self, slot: u32, token: TimerToken) {
        self.slots[slot as usize].timer = Some(token);
    }

    /// Takes the pending retry timer for `slot`, if any.
    pub fn take_timer(&mut self, slot: u32) -> Option<TimerToken> {
        self.slots[slot as usize].timer.take()
    }
}

#[cfg(test)]
mod tests {
    use super::{MsgArena, MsgState};
    use crate::id::MsgId;
    use crate::msg::Payload;
    use egm_simnet::{NodeId, SimTime};

    fn payload() -> Payload {
        Payload { seq: 1, bytes: 64 }
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut a = MsgArena::new(8, 8, false);
        let s0 = a.intern(MsgId::from_raw(10));
        let s1 = a.intern(MsgId::from_raw(11));
        assert_ne!(s0, s1);
        assert_eq!(a.intern(MsgId::from_raw(10)), s0);
        assert_eq!(a.lookup(&MsgId::from_raw(11)), Some(s1));
        assert_eq!(a.lookup(&MsgId::from_raw(12)), None);
    }

    #[test]
    fn flags_cover_known_received_cache_missing() {
        let mut a = MsgArena::new(8, 8, false);
        let s = a.intern(MsgId::from_raw(1));
        assert!(a.mark_known(s));
        assert!(!a.mark_known(s));
        assert_eq!(a.known_count(), 1);
        assert!(a.knows(&MsgId::from_raw(1)));

        assert!(a.mark_received(s));
        assert!(!a.mark_received(s));
        assert!(a.is_received(s));

        assert_eq!(a.cache_get(s), None);
        a.cache_put(s, payload(), 3);
        assert_eq!(a.cache_get(s), Some((payload(), 3)));

        assert!(!a.is_missing(s));
        a.missing_start(s, NodeId(4));
        assert!(a.is_missing(s));
        assert_eq!(a.missing_count(), 1);
        assert!(a.missing_clear(s));
        assert!(!a.missing_clear(s));
        assert_eq!(a.missing_count(), 0);
    }

    #[test]
    fn fifo_eviction_recycles_slots_and_bumps_generation() {
        let mut a = MsgArena::new(2, 2, false);
        let s0 = a.intern(MsgId::from_raw(0));
        let gen0 = a.generation(s0);
        a.mark_known(s0);
        let _s1 = a.intern(MsgId::from_raw(1));
        // Third message evicts message 0 (oldest).
        let s2 = a.intern(MsgId::from_raw(2));
        assert_eq!(s2, s0, "slot is recycled");
        assert!(!a.check_generation(s0, gen0), "stale handle is detected");
        assert_eq!(a.lookup(&MsgId::from_raw(0)), None);
        assert!(!a.knows(&MsgId::from_raw(0)));
        assert_eq!(a.known_count(), 0, "eviction drops the known flag");
    }

    #[test]
    fn cache_eviction_is_fifo_and_bounded() {
        let mut a = MsgArena::new(8, 2, false);
        let s0 = a.intern(MsgId::from_raw(0));
        let s1 = a.intern(MsgId::from_raw(1));
        let s2 = a.intern(MsgId::from_raw(2));
        a.cache_put(s0, payload(), 0);
        a.cache_put(s1, payload(), 1);
        // Replacing does not change the age.
        a.cache_put(s0, payload(), 9);
        a.cache_put(s2, payload(), 2);
        assert_eq!(a.cache_get(s0), None, "oldest payload evicted");
        assert_eq!(a.cache_get(s1), Some((payload(), 1)));
        assert_eq!(a.cache_get(s2), Some((payload(), 2)));
    }

    #[test]
    fn holder_tracking_is_gated() {
        let mut off = MsgArena::new(4, 4, false);
        let s = off.intern(MsgId::from_raw(1));
        off.note_holder(s, NodeId(7));
        assert!(!off.is_holder(s, NodeId(7)), "disabled tracking is a no-op");

        let mut on = MsgArena::new(4, 4, true);
        let s = on.intern(MsgId::from_raw(1));
        on.note_holder(s, NodeId(7));
        on.note_holder(s, NodeId(7));
        assert!(on.is_holder(s, NodeId(7)));
        assert!(!on.is_holder(s, NodeId(8)));
    }

    #[test]
    fn rotation_cycles_through_sources() {
        let mut a = MsgArena::new(4, 4, false);
        let s = a.intern(MsgId::from_raw(1));
        a.missing_start(s, NodeId(1));
        a.missing_add_source(s, NodeId(2));
        a.missing_add_source(s, NodeId(2)); // duplicate ignored
        let (mut idx, mut sources) = (Vec::new(), Vec::new());
        a.missing_candidates_into(s, &mut idx, &mut sources);
        assert_eq!(sources, vec![NodeId(1), NodeId(2)]);
        assert_eq!(a.missing_mark_requested(s, 0), NodeId(1));
        a.missing_candidates_into(s, &mut idx, &mut sources);
        assert_eq!(sources, vec![NodeId(2)]);
        assert_eq!(a.missing_mark_requested(s, idx[0]), NodeId(2));
        // Exhausted: the rotation resets and offers everyone again.
        a.missing_candidates_into(s, &mut idx, &mut sources);
        assert_eq!(sources, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn cache_fifo_does_not_leak_across_slot_eviction() {
        // Two live slots, cache capacity far above what is ever cached:
        // the cache never overflows, yet slot eviction keeps un-caching
        // entries. Stranded fifo entries must be drained, not hoarded.
        let mut a = MsgArena::new(2, 64, false);
        for k in 0..1_000u128 {
            let s = a.intern(MsgId::from_raw(k));
            a.cache_put(s, payload(), 0);
        }
        assert!(
            a.cache_fifo.len() <= 4,
            "cache fifo leaked: {} entries for 2 live slots",
            a.cache_fifo.len()
        );
        assert_eq!(a.cached, 2);
    }

    #[test]
    fn intern_fifo_stays_bounded_under_retirement() {
        // Capacity is never reached, so eviction never pops the fifo;
        // retirement alone frees slots, one horizon behind delivery.
        let mut a = MsgArena::new(64, 64, false);
        for k in 0..10_000u64 {
            let s = a.intern(MsgId::from_raw(u128::from(k)));
            a.mark_received(s);
            a.schedule_retire(s, SimTime::from_ms(k as f64 + 4.0));
            a.retire_expired(SimTime::from_ms(k as f64));
            let live = a.stats().live;
            assert!(
                a.fifo.len() <= 2 * live + super::FIFO_SLACK,
                "fifo holds {} entries for {live} live slots",
                a.fifo.len()
            );
        }
        // Compaction kept intern order: filling the arena evicts the
        // oldest live message first.
        let oldest = (0..10_000u128)
            .find(|&k| a.lookup(&MsgId::from_raw(k)).is_some())
            .expect("some message is live");
        for k in 10_000..10_000 + 64 - a.stats().live as u128 {
            a.intern(MsgId::from_raw(k));
        }
        assert!(a.lookup(&MsgId::from_raw(oldest)).is_some());
        a.intern(MsgId::from_raw(20_000));
        assert_eq!(a.lookup(&MsgId::from_raw(oldest)), None, "oldest evicted");
        assert!(a.lookup(&MsgId::from_raw(oldest + 1)).is_some());
    }

    #[test]
    fn timer_handles_are_single_use() {
        let mut a = MsgArena::new(4, 4, false);
        let s = a.intern(MsgId::from_raw(1));
        assert!(a.take_timer(s).is_none());
    }

    #[test]
    fn retirement_frees_slots_for_reuse() {
        let mut a = MsgArena::new(64, 64, false);
        let s = a.intern(MsgId::from_raw(1));
        a.mark_known(s);
        a.mark_received(s);
        let gen = a.generation(s);
        a.schedule_retire(s, SimTime::from_ms(100.0));
        assert_eq!(
            a.retire_expired(SimTime::from_ms(99.0)),
            0,
            "horizon not reached"
        );
        assert_eq!(a.retire_expired(SimTime::from_ms(100.0)), 1);
        assert!(!a.check_generation(s, gen), "stale handles are detected");
        assert_eq!(a.lookup(&MsgId::from_raw(1)), None);
        assert_eq!(a.known_count(), 0, "retirement drops the known flag");
        let stats = a.stats();
        assert_eq!((stats.retired, stats.live), (1, 0));
        // The freed slot is recycled by the next intern; the working set
        // never grew beyond one slot.
        assert_eq!(a.intern(MsgId::from_raw(2)), s);
        assert_eq!(a.stats().high_water, 1);
    }

    #[test]
    fn retire_all_sweeps_past_the_horizon() {
        let mut a = MsgArena::new(64, 64, false);
        let s0 = a.intern(MsgId::from_raw(1));
        a.mark_received(s0);
        a.schedule_retire(s0, SimTime::from_ms(100.0));
        let s1 = a.intern(MsgId::from_raw(2));
        a.mark_received(s1);
        a.schedule_retire(s1, SimTime::from_ms(10_000.0));
        // A time-driven sweep at run end misses the late horizon...
        assert_eq!(a.retire_expired(SimTime::from_ms(200.0)), 1);
        assert_eq!(a.stats().live, 1);
        // ...but the final sweep frees it regardless.
        assert_eq!(a.retire_all(), 1);
        let stats = a.stats();
        assert_eq!((stats.retired, stats.live), (2, 0));
        assert_eq!(a.lookup(&MsgId::from_raw(2)), None);
    }

    #[test]
    fn eviction_before_retirement_is_skipped_by_generation() {
        let mut a = MsgArena::new(2, 2, false);
        let s0 = a.intern(MsgId::from_raw(0));
        a.mark_received(s0);
        a.schedule_retire(s0, SimTime::from_ms(10.0));
        let _ = a.intern(MsgId::from_raw(1));
        let s2 = a.intern(MsgId::from_raw(2)); // capacity evicts message 0
        assert_eq!(s2, s0, "slot recycled by FIFO eviction");
        a.mark_received(s2);
        // The sweep must skip the recycled slot: message 2 lives on.
        assert_eq!(a.retire_expired(SimTime::from_ms(10.0)), 0);
        assert!(a.lookup(&MsgId::from_raw(2)).is_some());
        assert!(a.is_received(s2));
        assert_eq!(a.stats().retired, 0);
    }

    #[test]
    fn cached_horizon_tracks_the_retire_queue_front() {
        let mut a = MsgArena::new(2, 2, false);
        assert_eq!(a.next_retire, None);
        assert_eq!(a.retire_expired(SimTime::from_ms(1e6)), 0, "empty queue");
        let s0 = a.intern(MsgId::from_raw(0));
        a.mark_received(s0);
        a.schedule_retire(s0, SimTime::from_ms(10.0));
        let s1 = a.intern(MsgId::from_raw(1));
        a.mark_received(s1);
        a.schedule_retire(s1, SimTime::from_ms(20.0));
        assert_eq!(
            a.next_retire,
            Some(SimTime::from_ms(10.0)),
            "front, not back"
        );
        // FIFO eviction recycles the front slot before its horizon: the
        // queue entry (and the cached horizon) outlive the message, and
        // the sweep that reaches it frees nothing in its place.
        let s2 = a.intern(MsgId::from_raw(2));
        assert_eq!(s2, s0, "capacity evicted message 0");
        a.mark_received(s2);
        assert_eq!(a.next_retire, Some(SimTime::from_ms(10.0)));
        assert_eq!(a.retire_expired(SimTime::from_ms(9.0)), 0);
        assert_eq!(a.retire_expired(SimTime::from_ms(10.0)), 0, "stale entry");
        assert!(a.is_received(s2), "the slot's new message lives on");
        assert_eq!(a.next_retire, Some(SimTime::from_ms(20.0)), "advanced");
        assert_eq!(a.retire_expired(SimTime::from_ms(20.0)), 1);
        assert_eq!(a.next_retire, None, "drained");
        // A drained queue re-arms on the next delivery.
        a.schedule_retire(s2, SimTime::from_ms(30.0));
        assert_eq!(a.next_retire, Some(SimTime::from_ms(30.0)));
    }

    #[test]
    fn retire_all_resets_the_cached_horizon() {
        let mut a = MsgArena::new(8, 8, false);
        for k in 0..3u64 {
            let s = a.intern(MsgId::from_raw(u128::from(k)));
            a.mark_received(s);
            a.schedule_retire(s, SimTime::from_ms(1000.0 * (k + 1) as f64));
        }
        assert_eq!(a.retire_all(), 3);
        assert_eq!(a.next_retire, None);
        assert_eq!(a.retire_expired(SimTime::from_ms(1e9)), 0);
        assert_eq!(a.stats().live, 0);
    }

    #[test]
    fn missing_state_does_not_survive_slot_reuse() {
        // Eviction drops the slot's queued sources and holders; a recycled
        // slot must start its rotation from the new message's sources alone.
        let mut a = MsgArena::new(1, 1, true);
        let s = a.intern(MsgId::from_raw(1));
        a.note_holder(s, NodeId(9));
        a.missing_start(s, NodeId(1));
        a.missing_add_source(s, NodeId(2));
        let s2 = a.intern(MsgId::from_raw(2)); // evicts message 1 mid-rotation
        assert_eq!(s2, s);
        assert!(!a.is_missing(s2));
        assert_eq!(a.missing_count(), 0);
        assert!(!a.is_holder(s2, NodeId(9)));
        a.missing_start(s2, NodeId(5));
        let (mut idx, mut sources) = (Vec::new(), Vec::new());
        a.missing_candidates_into(s2, &mut idx, &mut sources);
        assert_eq!(sources, vec![NodeId(5)]);
    }

    /// The unrequested sources of `slot`, in rotation order.
    fn candidates(a: &mut MsgArena, slot: u32) -> (Vec<usize>, Vec<NodeId>) {
        let (mut idx, mut sources) = (Vec::new(), Vec::new());
        a.missing_candidates_into(slot, &mut idx, &mut sources);
        (idx, sources)
    }

    #[test]
    fn interleaved_missing_messages_keep_separate_rotations() {
        // Three messages go missing at once, their IHAVEs interleaved.
        let mut a = MsgArena::new(3, 3, false);
        let s1 = a.intern(MsgId::from_raw(1));
        let s2 = a.intern(MsgId::from_raw(2));
        let s3 = a.intern(MsgId::from_raw(3));
        a.missing_start(s1, NodeId(1));
        a.missing_start(s2, NodeId(2));
        a.missing_add_source(s1, NodeId(3));
        a.missing_start(s3, NodeId(4));
        a.missing_add_source(s2, NodeId(1));
        a.missing_add_source(s3, NodeId(5));
        a.missing_add_source(s1, NodeId(2));
        a.missing_add_source(s1, NodeId(3)); // duplicate ignored
        assert_eq!(a.missing_count(), 3);
        assert_eq!(candidates(&mut a, s1).1, [NodeId(1), NodeId(3), NodeId(2)]);
        assert_eq!(candidates(&mut a, s2).1, [NodeId(2), NodeId(1)]);
        assert_eq!(candidates(&mut a, s3).1, [NodeId(4), NodeId(5)]);

        // Requesting from one message's rotation leaves the others whole.
        let (idx, _) = candidates(&mut a, s1);
        assert_eq!(a.missing_mark_requested(s1, idx[1]), NodeId(3));
        assert_eq!(candidates(&mut a, s1).1, [NodeId(1), NodeId(2)]);
        assert_eq!(candidates(&mut a, s2).1, [NodeId(2), NodeId(1)]);
        let (idx, _) = candidates(&mut a, s3);
        assert_eq!(a.missing_mark_requested(s3, idx[0]), NodeId(4));

        // Clearing s2 and evicting s1 mid-rotation leave s3's rotation
        // exactly where it was.
        assert!(a.missing_clear(s2));
        assert_eq!(a.missing_count(), 2);
        let s4 = a.intern(MsgId::from_raw(4)); // capacity evicts message 1
        assert_eq!(s4, s1, "slot recycled");
        assert_eq!(a.missing_count(), 1);
        assert!(a.is_missing(s3));
        let (idx, sources) = candidates(&mut a, s3);
        assert_eq!(sources, [NodeId(5)]);
        assert_eq!(a.missing_mark_requested(s3, idx[0]), NodeId(5));
        // Exhausted: s3's rotation resets to all of its sources.
        assert_eq!(candidates(&mut a, s3).1, [NodeId(4), NodeId(5)]);

        // The recycled slot starts with no sources of its predecessor.
        assert!(!a.is_missing(s4));
        a.missing_start(s4, NodeId(7));
        a.missing_add_source(s4, NodeId(1));
        assert_eq!(candidates(&mut a, s4).1, [NodeId(7), NodeId(1)]);
        assert_eq!(candidates(&mut a, s3).1, [NodeId(4), NodeId(5)]);
        // A cleared message can go missing again from scratch.
        a.missing_start(s2, NodeId(9));
        assert_eq!(candidates(&mut a, s2).1, [NodeId(9)]);
        assert_eq!(a.missing_count(), 3);
    }

    #[test]
    fn hot_record_fits_one_cache_line() {
        assert!(
            std::mem::size_of::<MsgState>() <= 64,
            "MsgState grew to {} bytes",
            std::mem::size_of::<MsgState>()
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = MsgArena::new(0, 4, false);
    }
}
