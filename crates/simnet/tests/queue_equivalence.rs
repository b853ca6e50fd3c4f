//! Equivalence suite for the two event-queue implementations.
//!
//! The calendar queue is only allowed to exist because it is
//! indistinguishable from the binary heap: same pop order (bit-identical
//! `(time, seq)` dispatch, including same-tick ties), same counters, same
//! simulation results. Two layers of property tests pin that down:
//!
//! 1. **Raw queues** — arbitrary interleaved push/pop/bounded-pop
//!    sequences (clustered ties, far-future gaps, resize-sized bursts)
//!    driven against [`HeapQueue`] and [`CalendarQueue`] in lockstep.
//! 2. **Full simulations** — a protocol that schedules, re-arms and
//!    cancels generation-stamped timers (plus same-tick zero-delay
//!    sends) from its deterministic RNG stream, run once per queue
//!    implementation with identical seeds; the complete dispatch trace
//!    and every simulator counter must match.
//!
//! The CI `queue-equivalence` job runs this suite with a fixed case
//! count (`PROPTEST_CASES`); the vendored proptest stand-in derives its
//! case stream from the test name, so failures reproduce exactly.

use egm_simnet::event::{CalendarQueue, EventQueue, HeapQueue, Scheduled};
use egm_simnet::{
    Context, NodeId, Protocol, QueueKind, Sim, SimConfig, SimDuration, SimTime, TimerToken, Wire,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

// --- layer 1: raw queue lockstep -----------------------------------------

/// One scripted queue operation derived from a `(op, a, b)` triple.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at `now + delta` (delta picked from tie-prone distributions).
    Push { delta: u64 },
    /// Unbounded pop.
    Pop,
    /// Pop bounded at `now + bound`.
    PopBounded { bound: u64 },
}

fn decode(op: u32, a: u64, b: u64) -> Op {
    match op % 4 {
        // Two pushes per pop keeps the queues growing through resizes.
        0 | 1 => Op::Push {
            delta: match a % 4 {
                0 => 0,             // same-tick tie with the last pop
                1 => b % 64,        // sub-day cluster
                2 => b % 20_000,    // typical event horizon
                _ => b % 3_000_000, // beyond a calendar year
            },
        },
        2 => Op::Pop,
        _ => Op::PopBounded { bound: b % 50_000 },
    }
}

fn drive_lockstep(ops: &[(u32, u64, u64)]) -> Result<(), TestCaseError> {
    let mut heap: HeapQueue<u64> = HeapQueue::with_capacity(8);
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut now = 0u64;
    let mut seq = 0u64;
    for &(op, a, b) in ops {
        match decode(op, a, b) {
            Op::Push { delta } => {
                let ev = Scheduled {
                    time: SimTime::from_micros(now + delta),
                    seq,
                    item: seq,
                };
                seq += 1;
                heap.push(ev.clone());
                cal.push(ev);
            }
            Op::Pop => {
                let (x, y) = (heap.pop_next(None), cal.pop_next(None));
                match (&x, &y) {
                    (Some(h), Some(c)) => {
                        prop_assert_eq!((h.time, h.seq, h.item), (c.time, c.seq, c.item));
                        now = h.time.as_micros();
                    }
                    (None, None) => {}
                    _ => return Err(TestCaseError::fail("queues disagree on emptiness")),
                }
            }
            Op::PopBounded { bound } => {
                let b = SimTime::from_micros(now + bound);
                let (x, y) = (heap.pop_next(Some(b)), cal.pop_next(Some(b)));
                match (&x, &y) {
                    (Some(h), Some(c)) => {
                        prop_assert_eq!((h.time, h.seq, h.item), (c.time, c.seq, c.item));
                        prop_assert!(h.time <= b, "bound violated");
                        now = h.time.as_micros();
                    }
                    (None, None) => {}
                    _ => return Err(TestCaseError::fail("bounded pops disagree")),
                }
            }
        }
        prop_assert_eq!(heap.len(), cal.len());
    }
    // Drain both completely: the tails must agree too.
    loop {
        match (heap.pop_next(None), cal.pop_next(None)) {
            (Some(h), Some(c)) => {
                prop_assert_eq!((h.time, h.seq, h.item), (c.time, c.seq, c.item));
            }
            (None, None) => break,
            _ => return Err(TestCaseError::fail("drain tails disagree")),
        }
    }
    let (hs, cs) = (heap.stats(), cal.stats());
    prop_assert_eq!(hs.pushes, cs.pushes);
    prop_assert_eq!(hs.pops, cs.pops);
    prop_assert_eq!(hs.max_len, cs.max_len);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleaved schedule/pop sequences (with same-tick ties
    /// and year-crossing gaps) pop identically from both queues.
    #[test]
    fn raw_queues_pop_identically(
        ops in proptest::collection::vec((0u32..4, 0u64..u64::MAX, 0u64..u64::MAX), 1..600),
    ) {
        drive_lockstep(&ops)?;
    }
}

// --- layer 2: full simulations with cancellable timers -------------------

#[derive(Clone, Debug)]
struct Probe(#[allow(dead_code)] u64);

impl Wire for Probe {
    fn wire_bytes(&self) -> u32 {
        24
    }
    fn is_payload(&self) -> bool {
        true
    }
}

/// A global dispatch trace shared by all nodes of one simulation.
type Trace = Arc<Mutex<Vec<(u64, usize, u8, u64)>>>;

/// Drives schedule/cancel/send decisions from the node's deterministic
/// RNG stream: both runs see identical streams, so any divergence in the
/// trace is the queue's fault.
struct Chaos {
    trace: Trace,
    tokens: Vec<TimerToken>,
    budget: u32,
}

impl Chaos {
    fn act(&mut self, ctx: &mut Context<'_, Probe>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let n = ctx.node_count();
        for _ in 0..2 {
            match ctx.rng().range_usize(0, 6) {
                0 => {
                    let delay = SimDuration::from_micros(ctx.rng().range_usize(0, 5_000) as u64);
                    ctx.set_timer(delay, 1);
                }
                1 | 2 => {
                    let delay = SimDuration::from_micros(ctx.rng().range_usize(0, 9_000) as u64);
                    let token = ctx.set_cancellable_timer(delay, 2);
                    self.tokens.push(token);
                }
                3 => {
                    if !self.tokens.is_empty() {
                        let i = ctx.rng().range_usize(0, self.tokens.len());
                        let token = self.tokens.swap_remove(i);
                        ctx.cancel_timer(token);
                    }
                }
                4 => {
                    let to = NodeId(ctx.rng().range_usize(0, n));
                    ctx.send(to, Probe(ctx.now().as_micros()));
                }
                _ => {
                    // Same-tick tie: a zero-delay self-timer.
                    ctx.set_timer(SimDuration::ZERO, 3);
                }
            }
        }
    }
}

impl Protocol for Chaos {
    type Msg = Probe;

    fn on_start(&mut self, ctx: &mut Context<'_, Probe>) {
        ctx.set_timer(SimDuration::from_micros(ctx.id().index() as u64 % 7), 0);
    }

    fn on_receive(&mut self, ctx: &mut Context<'_, Probe>, from: NodeId, msg: Probe) {
        self.trace.lock().unwrap().push((
            ctx.now().as_micros(),
            ctx.id().index(),
            0,
            from.index() as u64,
        ));
        let _ = msg;
        self.act(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Probe>, tag: u64) {
        self.trace
            .lock()
            .unwrap()
            .push((ctx.now().as_micros(), ctx.id().index(), 1, tag));
        self.act(ctx);
    }

    fn on_command(&mut self, ctx: &mut Context<'_, Probe>, value: u64) {
        self.trace
            .lock()
            .unwrap()
            .push((ctx.now().as_micros(), ctx.id().index(), 2, value));
        self.act(ctx);
    }
}

/// Runs the chaos protocol on one queue kind; returns the trace and the
/// simulator counters.
#[allow(clippy::type_complexity)]
fn chaos_run(
    kind: QueueKind,
    seed: u64,
    nodes: usize,
    budget: u32,
) -> (Vec<(u64, usize, u8, u64)>, (u64, u64, u64), Vec<u64>) {
    let trace: Trace = Arc::new(Mutex::new(Vec::new()));
    let protos: Vec<Chaos> = (0..nodes)
        .map(|_| Chaos {
            trace: trace.clone(),
            tokens: Vec::new(),
            budget,
        })
        .collect();
    let config = SimConfig::uniform(nodes, 1.5)
        .with_jitter(0.3)
        .with_loss(0.05)
        .with_event_queue(kind);
    let mut sim = Sim::new(config, seed, protos);
    for k in 0..4u64 {
        sim.schedule_command(SimTime::from_micros(k * 700), NodeId(k as usize % nodes), k);
    }
    sim.run_for(SimDuration::from_ms(200.0));
    let counters = (
        sim.events_processed(),
        sim.timers_cancelled(),
        sim.stale_timer_drops(),
    );
    let traffic = (
        sim.traffic().total_messages(),
        sim.traffic().total_bytes(),
        sim.traffic().total_payloads(),
    );
    drop(sim);
    let trace = Arc::try_unwrap(trace)
        .expect("sim dropped")
        .into_inner()
        .unwrap();
    (trace, counters, vec![traffic.0, traffic.1, traffic.2])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A full simulation with interleaved schedule/cancel/same-tick
    /// activity produces an identical dispatch trace and identical
    /// counters under either queue.
    #[test]
    fn simulations_are_queue_invariant(
        seed in 0u64..10_000,
        nodes in 2usize..10,
        budget in 1u32..40,
    ) {
        let heap = chaos_run(QueueKind::Heap, seed, nodes, budget);
        let calendar = chaos_run(QueueKind::Calendar, seed, nodes, budget);
        prop_assert_eq!(&heap.0, &calendar.0);
        prop_assert_eq!(heap.1, calendar.1);
        prop_assert_eq!(&heap.2, &calendar.2);
    }
}
