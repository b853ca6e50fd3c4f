//! Event-queue implementations: binary heap and calendar queue.
//!
//! The simulator dispatches events in `(time, seq)` order — time first,
//! schedule sequence as the tie-breaker — which makes runs fully
//! deterministic. Two interchangeable priority queues provide that order
//! behind the [`EventQueue`] trait:
//!
//! * [`HeapQueue`] — the classic `BinaryHeap`, `O(log n)` per operation.
//!   Simple and branch-predictable, but at 10k-node scale the heap array
//!   spans megabytes and every sift touches `log n` random cache lines.
//! * [`CalendarQueue`] — a calendar queue (Brown 1988): events hash into
//!   time buckets of an auto-tuned width, giving `O(1)` amortized
//!   enqueue/dequeue with mostly-sequential memory access. Bucket width
//!   and count re-tune from the observed event-time deltas whenever the
//!   queue resizes.
//!
//! Both implementations pop in **bit-identical order**: within a bucket
//! the calendar queue selects the minimum `(time, seq)` pair, so same-tick
//! ties dispatch in schedule order exactly like the heap. The
//! `queue_equivalence` integration test drives both with arbitrary
//! interleaved push/pop sequences and asserts identical pop streams; the
//! simulator exposes the choice through
//! [`SimConfig::with_event_queue`](crate::SimConfig::with_event_queue).

use crate::sim::TimerToken;
use crate::time::{SimDuration, SimTime};
use crate::NodeId;
use std::cmp::Ordering;

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver a message that survived the network.
    Deliver { to: NodeId, from: NodeId, msg: M },
    /// Fire a protocol timer.
    Timer { node: NodeId, tag: u64 },
    /// Fire a cancellable protocol timer; the token is checked against the
    /// live generation at pop time and stale events are dropped before
    /// dispatch.
    CancellableTimer {
        node: NodeId,
        tag: u64,
        token: TimerToken,
    },
    /// Deliver a harness command to a protocol node.
    Command { node: NodeId, value: u64 },
    /// Apply a fault to the network.
    Fault(Fault),
}

/// A fault-injection action, scheduled with
/// [`Sim::schedule_fault`](crate::Sim::schedule_fault).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The node stops sending and receiving (fail-by-firewall, §6.3).
    Silence(NodeId),
    /// The node comes back online, its protocol state intact.
    Revive(NodeId),
    /// Cross-domain (transit) links degrade: latencies multiply by
    /// `latency_mult` and each message is additionally lost with
    /// probability `extra_loss`. `1.0` / `0.0` restores the healthy
    /// network. Intra-domain traffic is unaffected.
    Degrade {
        /// Latency multiplier on cross-domain links (`≥ 1.0`).
        latency_mult: f64,
        /// Extra loss probability on cross-domain links (`[0, 1]`).
        extra_loss: f64,
    },
    /// Every message into `node` is delayed by an extra `delay`
    /// (`ZERO` restores full speed).
    Slowdown {
        /// Slowed node.
        node: NodeId,
        /// Additive receive-side delay per message.
        delay: SimDuration,
    },
}

impl Fault {
    /// The node this fault targets, if any (degradation is global).
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            Fault::Silence(node) | Fault::Revive(node) | Fault::Slowdown { node, .. } => Some(node),
            Fault::Degrade { .. } => None,
        }
    }

    /// Checks the fault's parameters. Degradation may only *lengthen*
    /// delays, so the conservative window lookahead computed from the
    /// healthy network remains a valid lower bound.
    ///
    /// # Panics
    ///
    /// Panics if a degradation has `latency_mult < 1.0` (or non-finite)
    /// or `extra_loss` outside `[0, 1]`.
    pub fn check(&self) {
        if let Fault::Degrade {
            latency_mult,
            extra_loss,
        } = *self
        {
            assert!(
                latency_mult.is_finite() && latency_mult >= 1.0,
                "degradation may only lengthen delays"
            );
            assert!(
                (0.0..=1.0).contains(&extra_loss),
                "extra loss must be a probability"
            );
        }
    }
}

/// A scheduled item; ordering is by `(time, seq)`, making the simulation
/// fully deterministic. `T` is the event payload (the simulator uses its
/// internal event kind; tests can use anything).
#[derive(Debug, Clone)]
pub struct Scheduled<T> {
    /// Dispatch time.
    pub time: SimTime,
    /// Schedule sequence number — unique, assigned in push order; breaks
    /// same-tick ties.
    pub seq: u64,
    /// The event payload.
    pub item: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Counters shared by every [`EventQueue`] implementation.
///
/// `pushes`, `pops` and `max_len` are implementation-independent (the
/// equivalence suite asserts they match across queues); the bucket fields
/// describe the calendar queue's current geometry and are zero for the
/// heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events enqueued over the queue's lifetime.
    pub pushes: u64,
    /// Events dequeued over the queue's lifetime.
    pub pops: u64,
    /// High-water mark of queued events.
    pub max_len: usize,
    /// Calendar only: bucket-array rebuilds (grow, shrink, or re-tune).
    pub resizes: u64,
    /// Calendar only: current number of buckets.
    pub bucket_count: usize,
    /// Calendar only: current bucket width in microseconds (a power of
    /// two, auto-tuned from observed event-time deltas at each resize).
    pub bucket_width_us: u64,
    /// Calendar only: pops that scanned a whole calendar year without
    /// finding an event and fell back to a direct minimum search (the
    /// sparse-queue slow path; frequent hits mean the width is mistuned).
    pub year_scans: u64,
}

/// A deterministic priority queue over [`Scheduled`] items.
///
/// Implementations must pop in strictly increasing `(time, seq)` order.
/// Pushed times must be monotone with respect to pops: an item may never
/// be pushed with a time earlier than the last popped time (the simulator
/// guarantees this — events are always scheduled at or after *now*).
pub trait EventQueue<T> {
    /// Enqueues an item.
    fn push(&mut self, ev: Scheduled<T>);

    /// Pops the earliest item by `(time, seq)`.
    ///
    /// With `bound` set, the pop only happens if the earliest item's time
    /// is `<= bound`; otherwise the queue is left untouched and `None` is
    /// returned — this is how the simulator runs up to a deadline without
    /// a separate peek.
    fn pop_next(&mut self, bound: Option<SimTime>) -> Option<Scheduled<T>>;

    /// Time of the earliest queued item without popping it (the sharded
    /// engine's window planner uses this to size conservative windows).
    fn next_time(&self) -> Option<SimTime>;

    /// Number of queued items.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters.
    fn stats(&self) -> QueueStats;
}

/// The reference implementation: a binary max-heap over reversed
/// `(time, seq)` order.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: std::collections::BinaryHeap<Scheduled<T>>,
    stats: QueueStats,
}

impl<T> HeapQueue<T> {
    /// Creates an empty heap with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapQueue {
            heap: std::collections::BinaryHeap::with_capacity(capacity),
            stats: QueueStats::default(),
        }
    }
}

impl<T> EventQueue<T> for HeapQueue<T> {
    fn push(&mut self, ev: Scheduled<T>) {
        self.heap.push(ev);
        self.stats.pushes += 1;
        self.stats.max_len = self.stats.max_len.max(self.heap.len());
    }

    fn pop_next(&mut self, bound: Option<SimTime>) -> Option<Scheduled<T>> {
        if let Some(bound) = bound {
            match self.heap.peek() {
                Some(ev) if ev.time <= bound => {}
                _ => return None,
            }
        }
        let ev = self.heap.pop()?;
        self.stats.pops += 1;
        Some(ev)
    }

    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|ev| ev.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Smallest bucket array (power of two).
const MIN_BUCKETS: usize = 16;
/// Largest bucket array — caps the bucket directory at a few MB.
const MAX_BUCKETS: usize = 1 << 20;
/// Events sampled when re-tuning the bucket width at a resize.
const TUNE_SAMPLES: usize = 64;

/// A calendar queue: `O(1)` amortized push/pop with cache-friendly,
/// fragmentation-free storage.
///
/// Time is divided into *days* (buckets) of `2^shift` microseconds; the
/// bucket directory of `2^k` entries covers one *year*, and later years
/// wrap around. Events live in a single slab (`Vec` of nodes recycled
/// through an intrusive freelist); each bucket is a singly-linked list of
/// slab indices, so a push is one slab write plus one head link — no
/// per-bucket allocations, and a resize merely relinks the slab without
/// moving events.
///
/// A pop scans forward from the current day for the bucket holding the
/// earliest events of the current year, extracts that day's events into
/// the sorted `today` buffer, and drains them back-to-front, which keeps
/// dispatch order bit-identical to the heap's `(time, seq)` order even
/// across massive same-tick ties (the sort pays `O(b log b)` once per day
/// instead of a min-scan per pop). Same-day arrivals while the buffer
/// drains merge in by binary insertion. When a whole year passes without
/// a hit (sparse queue), a direct minimum search over the slab
/// re-synchronizes the calendar.
///
/// The bucket count doubles/halves with occupancy, and each resize
/// re-tunes the bucket width from the observed deltas between queued
/// event times, targeting about one event per day of the current year.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Per-bucket list heads (slab indices; `NIL` for empty).
    heads: Vec<u32>,
    /// Backing storage for queued events; free slots have `ev: None` and
    /// chain through `next` into the freelist.
    slab: Vec<SlabNode<T>>,
    /// Freelist head.
    free: u32,
    /// Events of the active day, sorted by *descending* `(time, seq)` so
    /// the next event to dispatch is `today.last()`. While a day is
    /// active no event inside its window lives in a bucket.
    today: Vec<Scheduled<T>>,
    /// Active day window `[today_start, today_end)`; empty (0, 0) until
    /// the first day is entered.
    today_start: u64,
    today_end: u64,
    /// Bucket width is `1 << shift` microseconds.
    shift: u32,
    /// Bucket index of the current day.
    cur_bucket: usize,
    /// Start time (µs) of the current day's window; all queued events are
    /// at or after this instant.
    cur_day_start: u64,
    len: usize,
    /// Peak occupancy since the last resize — the width re-tune divides
    /// the event-time span by this, not the instantaneous length, so a
    /// resize triggered at a burst trough does not lock in a bucket
    /// width sized for a near-empty queue.
    tune_max_len: usize,
    /// Double the bucket directory above this occupancy.
    grow_at: usize,
    /// Halve the bucket directory below this occupancy.
    shrink_at: usize,
    /// One-entry memo of the last [`CalendarQueue::earliest_day`] scan —
    /// the sharded window planner reads `next_time` and then `pop_next`
    /// repeats the identical search, so caching halves the per-window
    /// scan cost. Invalidated by every mutation that can change the
    /// earliest event (push, entering a day, resize); debug builds
    /// re-verify every hit against a fresh scan.
    earliest_memo: std::cell::Cell<Option<(u64, usize, u64, bool)>>,
    stats: QueueStats,
}

/// Slab entry: a queued event plus the intrusive list link (bucket list
/// when live, freelist when free).
#[derive(Debug)]
struct SlabNode<T> {
    ev: Option<Scheduled<T>>,
    next: u32,
}

/// Null slab index.
const NIL: u32 = u32::MAX;

impl<T> CalendarQueue<T> {
    /// Creates an empty calendar starting at `MIN_BUCKETS` buckets of
    /// ~1 ms; the geometry re-tunes itself as events arrive.
    pub fn new() -> Self {
        let mut q = CalendarQueue {
            heads: vec![NIL; MIN_BUCKETS],
            slab: Vec::new(),
            free: NIL,
            today: Vec::new(),
            today_start: 0,
            today_end: 0,
            shift: 10, // 1.024 ms — retuned at the first resize
            cur_bucket: 0,
            cur_day_start: 0,
            len: 0,
            tune_max_len: 0,
            grow_at: 0,
            shrink_at: 0,
            earliest_memo: std::cell::Cell::new(None),
            stats: QueueStats::default(),
        };
        q.set_thresholds();
        q.stats.bucket_count = q.heads.len();
        q.stats.bucket_width_us = 1 << q.shift;
        q
    }

    fn set_thresholds(&mut self) {
        let nb = self.heads.len();
        self.grow_at = if nb >= MAX_BUCKETS {
            usize::MAX
        } else {
            nb * 2
        };
        // Shrink at a quarter, not half: a half/double band thrashes on
        // bursty workloads whose queue depth oscillates ~2× around a
        // resize boundary (each resize relinks the whole slab).
        self.shrink_at = if nb <= MIN_BUCKETS { 0 } else { nb / 4 };
    }

    #[inline]
    fn bucket_of(&self, time_us: u64) -> usize {
        ((time_us >> self.shift) as usize) & (self.heads.len() - 1)
    }

    /// Allocates a slab slot for `ev`, linking it in front of `next`.
    fn alloc(&mut self, ev: Scheduled<T>, next: u32) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let node = &mut self.slab[i as usize];
            self.free = node.next;
            node.ev = Some(ev);
            node.next = next;
            i
        } else {
            debug_assert!(self.slab.len() < u32::MAX as usize);
            let i = self.slab.len() as u32;
            self.slab.push(SlabNode { ev: Some(ev), next });
            i
        }
    }

    /// Earliest event time in bucket `b` among events earlier than
    /// `day_end`, if any.
    fn window_min_time(&self, b: usize, day_end: u64) -> Option<u64> {
        let mut best = u64::MAX;
        let mut i = self.heads[b];
        while i != NIL {
            let node = &self.slab[i as usize];
            let t = node
                .ev
                .as_ref()
                .expect("linked slots are live")
                .time
                .as_micros();
            if t < day_end && t < best {
                best = t;
            }
            i = node.next;
        }
        (best != u64::MAX).then_some(best)
    }

    /// Time of the earliest queued event (the sparse-queue slow path; a
    /// linear sweep of the slab, cache-sequential). Ties by `seq` are
    /// irrelevant here because the whole day is extracted and sorted
    /// afterwards.
    fn global_min_time(&self) -> Option<u64> {
        let mut best = u64::MAX;
        for node in &self.slab {
            if let Some(ev) = &node.ev {
                let t = ev.time.as_micros();
                if t < best {
                    best = t;
                }
            }
        }
        (best != u64::MAX).then_some(best)
    }

    /// Moves every event of the day starting at `day_start` from bucket
    /// `b` into the sorted `today` buffer and commits the calendar
    /// position to that day.
    fn enter_day(&mut self, b: usize, day_start: u64) {
        self.earliest_memo.set(None);
        let day_end = day_start + (1u64 << self.shift);
        debug_assert!(self.today.is_empty());
        let mut i = self.heads[b];
        let mut prev = NIL;
        while i != NIL {
            let next = self.slab[i as usize].next;
            let t = self.slab[i as usize]
                .ev
                .as_ref()
                .expect("linked slots are live")
                .time
                .as_micros();
            if t < day_end {
                let ev = self.slab[i as usize].ev.take().expect("checked live");
                if prev == NIL {
                    self.heads[b] = next;
                } else {
                    self.slab[prev as usize].next = next;
                }
                self.slab[i as usize].next = self.free;
                self.free = i;
                self.today.push(ev);
            } else {
                prev = i;
            }
            i = next;
        }
        // Descending order: the next event to dispatch sits at the back.
        self.today
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        self.today_start = day_start;
        self.today_end = day_end;
        self.cur_bucket = b;
        self.cur_day_start = day_start;
    }

    /// The earliest queued event's `(time, bucket, day_start)` — the
    /// active day's buffer is assumed empty — walking one year of days
    /// from the committed position and falling back to the direct
    /// minimum scan. Commits nothing: `pop_next` enters the returned day
    /// (and counts the year scan), `next_time` merely reads the time, so
    /// the two can never disagree on the search. Memoized until the next
    /// mutation, since the window planner asks and the following pop
    /// repeats the question.
    ///
    /// The `bool` reports whether the year-scan fallback was needed.
    fn earliest_day(&self) -> Option<(u64, usize, u64, bool)> {
        if let Some(hit) = self.earliest_memo.get() {
            debug_assert_eq!(Some(hit), self.scan_earliest_day(), "stale earliest memo");
            return Some(hit);
        }
        let found = self.scan_earliest_day();
        self.earliest_memo.set(found);
        found
    }

    /// The uncached scan behind [`CalendarQueue::earliest_day`].
    fn scan_earliest_day(&self) -> Option<(u64, usize, u64, bool)> {
        if self.len == 0 {
            return None;
        }
        debug_assert!(self.today.is_empty());
        let nb = self.heads.len();
        let width = 1u64 << self.shift;
        let mut bucket = self.cur_bucket;
        let mut day_start = self.cur_day_start;
        for _ in 0..nb {
            let day_end = day_start + width;
            if let Some(min_t) = self.window_min_time(bucket, day_end) {
                return Some((min_t, bucket, day_start, false));
            }
            bucket = (bucket + 1) & (nb - 1);
            day_start += width;
        }
        // A whole year without a hit: the queue is sparse relative to
        // the bucket width. Find the global minimum directly.
        let t = self.global_min_time().expect("len > 0");
        let day = (t >> self.shift) << self.shift;
        Some((t, self.bucket_of(t), day, true))
    }

    /// Pops the next event off the `today` buffer.
    fn pop_from_today(&mut self) -> Scheduled<T> {
        let ev = self.today.pop().expect("today is non-empty");
        self.len -= 1;
        self.stats.pops += 1;
        if self.len < self.shrink_at {
            let half = self.heads.len() / 2;
            self.resize(half);
        }
        ev
    }

    /// Rebuilds the bucket directory at `new_nb` buckets (clamped to the
    /// power-of-two range), re-tuning the bucket width from the deltas
    /// between queued event times. Events never move — the slab is simply
    /// relinked.
    fn resize(&mut self, new_nb: usize) {
        self.earliest_memo.set(None);
        let new_nb = new_nb.clamp(MIN_BUCKETS, MAX_BUCKETS);
        if let Some(shift) = self.tune_shift() {
            self.shift = shift;
        }
        self.heads = vec![NIL; new_nb];
        // Keep the old position, re-aligned downward for the new width.
        // The position must stay at or before every event *and* every
        // legal future push (anything at or after `now`), so jumping
        // forward to the minimum queued event would be wrong: pre-run
        // scheduling can queue far-future traffic before the time-zero
        // timers are pushed. A position behind is always safe — the next
        // pop re-synchronizes via the day scan or the direct search.
        let anchor = self.cur_day_start;
        self.cur_day_start = (anchor >> self.shift) << self.shift;
        self.cur_bucket = ((anchor >> self.shift) as usize) & (new_nb - 1);
        // Relink every live slab slot under the new geometry (free slots
        // keep their freelist chaining — the loop never touches them).
        for i in 0..self.slab.len() {
            if let Some(ev) = &self.slab[i].ev {
                let b = ((ev.time.as_micros() >> self.shift) as usize) & (new_nb - 1);
                self.slab[i].next = self.heads[b];
                self.heads[b] = i as u32;
            }
        }
        // The active day (if any) is folded back in and re-entered by the
        // next pop.
        let today = std::mem::take(&mut self.today);
        self.today_start = 0;
        self.today_end = 0;
        for ev in today {
            let b = self.bucket_of(ev.time.as_micros());
            let head = self.heads[b];
            let slot = self.alloc(ev, head);
            self.heads[b] = slot;
        }
        self.set_thresholds();
        self.tune_max_len = self.len;
        self.stats.resizes += 1;
        self.stats.bucket_count = new_nb;
        self.stats.bucket_width_us = 1 << self.shift;
    }

    /// Picks a power-of-two bucket width ≈ 3× the mean gap between
    /// queued event times — the span of the queued events divided by the
    /// *peak* occupancy since the last resize — so roughly one to three
    /// events share a day at peak and the live window spans about a
    /// year. Dividing by the instantaneous length instead would size the
    /// buckets for whatever trough or spike happened to trigger the
    /// resize. The span is estimated from an evenly-spaced sample over
    /// the slab plus the active day's bounds. `None` when there are too
    /// few distinct times to measure.
    fn tune_shift(&self) -> Option<u32> {
        if self.len < 2 {
            return None;
        }
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let step = (self.slab.len() / TUNE_SAMPLES).max(1);
        let mut i = 0;
        while i < self.slab.len() {
            if let Some(ev) = &self.slab[i].ev {
                let t = ev.time.as_micros();
                lo = lo.min(t);
                hi = hi.max(t);
            }
            i += step;
        }
        // `today` is sorted descending: front is the max, back the min.
        if let (Some(first), Some(last)) = (self.today.first(), self.today.last()) {
            hi = hi.max(first.time.as_micros());
            lo = lo.min(last.time.as_micros());
        }
        if lo >= hi {
            return None;
        }
        let span = hi - lo;
        let count = self.tune_max_len.max(self.len).max(2) as u64;
        let mean_gap = (span / (count - 1)).max(1);
        let width = (mean_gap.saturating_mul(3)).max(1);
        // Round up to the next power of two; clamp to sane shifts
        // (1 µs .. ~17 min per bucket).
        let shift = (64 - (width - 1).leading_zeros()).clamp(0, 30);
        Some(shift)
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> EventQueue<T> for CalendarQueue<T> {
    fn push(&mut self, ev: Scheduled<T>) {
        self.earliest_memo.set(None);
        let t = ev.time.as_micros();
        debug_assert!(
            t >= self.cur_day_start,
            "event pushed before the calendar's current day"
        );
        if t >= self.today_start && t < self.today_end {
            // The event belongs to the day being drained: merge it into
            // the sorted buffer so it dispatches in exact (time, seq)
            // order among its same-day peers.
            let key = (ev.time, ev.seq);
            let idx = self.today.partition_point(|e| (e.time, e.seq) > key);
            self.today.insert(idx, ev);
        } else {
            let b = self.bucket_of(t);
            let head = self.heads[b];
            let slot = self.alloc(ev, head);
            self.heads[b] = slot;
        }
        self.len += 1;
        self.stats.pushes += 1;
        self.stats.max_len = self.stats.max_len.max(self.len);
        self.tune_max_len = self.tune_max_len.max(self.len);
        if self.len > self.grow_at {
            let doubled = self.heads.len() * 2;
            self.resize(doubled);
        }
    }

    fn pop_next(&mut self, bound: Option<SimTime>) -> Option<Scheduled<T>> {
        // Fast path: the active day still has events.
        if let Some(last) = self.today.last() {
            if bound.is_some_and(|b| last.time > b) {
                return None;
            }
            return Some(self.pop_from_today());
        }
        // The search never commits the calendar position — only entering
        // a day (which always pops) does — so a bounded miss never
        // advances the calendar past a (future) push.
        let (min_t, bucket, day_start, year_scanned) = self.earliest_day()?;
        if year_scanned {
            self.stats.year_scans += 1;
        }
        if bound.is_some_and(|b| min_t > b.as_micros()) {
            return None;
        }
        self.enter_day(bucket, day_start);
        Some(self.pop_from_today())
    }

    fn next_time(&self) -> Option<SimTime> {
        if let Some(last) = self.today.last() {
            return Some(last.time);
        }
        self.earliest_day()
            .map(|(t, _, _, _)| SimTime::from_micros(t))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Which [`EventQueue`] implementation a simulation uses.
///
/// Both produce bit-identical dispatch order (asserted by the
/// `queue_equivalence` suite), so the choice is purely a performance
/// knob: the calendar queue stays O(1) and cache-warm at 1k–10k-node
/// scale (~1.6× the heap's event rate at 10k), while a small simulation's
/// heap fits in cache and wins on constant factors. Unless the scenario
/// forces a choice, the simulator picks by size
/// ([`QueueKind::auto_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Binary heap (`O(log n)`, reference implementation).
    Heap,
    /// Calendar queue (`O(1)` amortized, auto-tuned buckets).
    Calendar,
}

/// Node count at which the size-based default switches to the calendar
/// queue: at a few hundred nodes the heap still fits in L2 and its
/// constant factors win; from ~512 on, queue depth scales with nodes and
/// the heap's `log n` random touches go cache-cold.
pub const CALENDAR_MIN_NODES: usize = 512;

impl QueueKind {
    /// The size-based default: heap below [`CALENDAR_MIN_NODES`] nodes,
    /// calendar from there on.
    pub fn auto_for(nodes: usize) -> Self {
        if nodes >= CALENDAR_MIN_NODES {
            QueueKind::Calendar
        } else {
            QueueKind::Heap
        }
    }

    /// Builds the queue behind the enum dispatcher.
    pub(crate) fn build<T>(self, capacity: usize) -> QueueImpl<T> {
        match self {
            QueueKind::Heap => QueueImpl::Heap(HeapQueue::with_capacity(capacity)),
            QueueKind::Calendar => QueueImpl::Calendar(CalendarQueue::new()),
        }
    }
}

/// Enum dispatcher so the simulator pays a predictable branch instead of
/// a virtual call on the hottest path.
#[derive(Debug)]
pub(crate) enum QueueImpl<T> {
    Heap(HeapQueue<T>),
    Calendar(CalendarQueue<T>),
}

impl<T> QueueImpl<T> {
    #[inline]
    pub(crate) fn push(&mut self, ev: Scheduled<T>) {
        match self {
            QueueImpl::Heap(q) => q.push(ev),
            QueueImpl::Calendar(q) => q.push(ev),
        }
    }

    #[inline]
    pub(crate) fn pop_next(&mut self, bound: Option<SimTime>) -> Option<Scheduled<T>> {
        match self {
            QueueImpl::Heap(q) => q.pop_next(bound),
            QueueImpl::Calendar(q) => q.pop_next(bound),
        }
    }

    pub(crate) fn stats(&self) -> QueueStats {
        match self {
            QueueImpl::Heap(q) => q.stats(),
            QueueImpl::Calendar(q) => q.stats(),
        }
    }

    pub(crate) fn next_time(&self) -> Option<SimTime> {
        match self {
            QueueImpl::Heap(q) => q.next_time(),
            QueueImpl::Calendar(q) => q.next_time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{CalendarQueue, EventKind, EventQueue, HeapQueue, QueueKind, Scheduled};
    use crate::SimTime;

    #[test]
    fn a_queued_event_stays_48_bytes() {
        // The hot queue entry: time, seq and the largest event kind.
        assert_eq!(std::mem::size_of::<Scheduled<EventKind<u32>>>(), 48);
    }

    fn ev(ms: f64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time: SimTime::from_ms(ms),
            seq,
            item: seq,
        }
    }

    fn drain<Q: EventQueue<u64>>(q: &mut Q) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop_next(None) {
            out.push((ev.time.as_micros(), ev.seq));
        }
        out
    }

    #[test]
    fn both_queues_pop_earliest_first() {
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let mut q = kind.build(16);
            q.push(ev(5.0, 0));
            q.push(ev(1.0, 1));
            q.push(ev(3.0, 2));
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop_next(None))
                .map(|e| e.seq)
                .collect();
            assert_eq!(seqs, vec![1, 2, 0], "{kind:?}");
        }
    }

    #[test]
    fn both_queues_break_ties_by_sequence() {
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let mut q = kind.build(16);
            q.push(ev(2.0, 7));
            q.push(ev(2.0, 3));
            q.push(ev(2.0, 5));
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop_next(None))
                .map(|e| e.seq)
                .collect();
            assert_eq!(seqs, vec![3, 5, 7], "{kind:?}");
        }
    }

    #[test]
    fn bounded_pop_respects_the_deadline() {
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let mut q = kind.build(16);
            q.push(ev(10.0, 0));
            q.push(ev(30.0, 1));
            assert!(q.pop_next(Some(SimTime::from_ms(5.0))).is_none());
            assert_eq!(q.pop_next(Some(SimTime::from_ms(10.0))).unwrap().seq, 0);
            assert!(q.pop_next(Some(SimTime::from_ms(20.0))).is_none());
            assert_eq!(q.pop_next(None).unwrap().seq, 1);
            assert!(q.pop_next(None).is_none());
        }
    }

    #[test]
    fn calendar_matches_heap_on_a_large_interleaved_run() {
        // Deterministic pseudo-random schedule: pushes at clustered and
        // spread-out times, interleaved with pops (monotone push times
        // with respect to pops, as the simulator guarantees).
        let mut heap: HeapQueue<u64> = HeapQueue::with_capacity(16);
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut state = 0x9E37_79B9u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now_us = 0u64;
        let mut seq = 0u64;
        for round in 0..5_000u64 {
            let op = next() % 3;
            if op < 2 {
                // Mix of tight ties and far-future events.
                let delta = match next() % 4 {
                    0 => 0,
                    1 => next() % 50,
                    2 => next() % 5_000,
                    _ => next() % 500_000,
                };
                let e = Scheduled {
                    time: SimTime::from_micros(now_us + delta),
                    seq,
                    item: round,
                };
                seq += 1;
                heap.push(e.clone());
                cal.push(e);
            } else {
                let a = heap.pop_next(None);
                let b = cal.pop_next(None);
                match (&a, &b) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.seq, x.item), (y.time, y.seq, y.item));
                        now_us = x.time.as_micros();
                    }
                    (None, None) => {}
                    _ => panic!("queues disagree on emptiness"),
                }
            }
        }
        assert_eq!(drain(&mut heap), drain(&mut cal));
        let (hs, cs) = (heap.stats(), cal.stats());
        assert_eq!(hs.pushes, cs.pushes);
        assert_eq!(hs.pops, cs.pops);
        assert_eq!(hs.max_len, cs.max_len);
        assert!(cs.resizes > 0, "a 5k-op run must have re-tuned");
    }

    #[test]
    fn calendar_resizes_and_retunes() {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        for i in 0..1_000u64 {
            cal.push(Scheduled {
                time: SimTime::from_micros(i * 700),
                seq: i,
                item: i,
            });
        }
        let stats = cal.stats();
        assert!(stats.resizes > 0);
        assert!(stats.bucket_count > super::MIN_BUCKETS);
        assert_eq!(stats.max_len, 1_000);
        let popped = drain(&mut cal);
        assert_eq!(popped.len(), 1_000);
        assert!(popped.windows(2).all(|w| w[0] < w[1]), "sorted order");
    }

    #[test]
    fn calendar_handles_sparse_far_future_events() {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        // One event far beyond the initial year forces the direct-search
        // fallback.
        cal.push(ev(1e7, 0));
        cal.push(ev(2e7, 1));
        assert_eq!(cal.pop_next(None).unwrap().seq, 0);
        assert_eq!(cal.pop_next(None).unwrap().seq, 1);
        assert!(cal.stats().year_scans > 0, "sparse pops take the slow path");
    }

    #[test]
    fn bounded_miss_does_not_lose_later_pushes() {
        // A bounded pop that scans past empty days must not commit the
        // position: a subsequent push at an earlier (but >= now) time
        // still pops first.
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        cal.push(ev(1000.0, 0));
        assert!(cal.pop_next(Some(SimTime::from_ms(50.0))).is_none());
        cal.push(ev(10.0, 1));
        assert_eq!(cal.pop_next(None).unwrap().seq, 1);
        assert_eq!(cal.pop_next(None).unwrap().seq, 0);
    }
}
