//! Observe-only progress reporting for long runs.
//!
//! A [`ProgressSink`] receives [`ProgressEvent`]s at *coarse* execution
//! boundaries — conservative window plans of a multi-shard
//! [`crate::Sim`], and chunk/tick/summary boundaries in the workload
//! runner that drives it. The sink is strictly an observer: it is handed copies of
//! counters the engine already maintains, it is never consulted for
//! decisions, and no event is emitted from the per-event hot path. A run
//! with a sink installed is therefore byte-identical to the same run
//! without one (the workload `progress_determinism` test pins this).
//!
//! Implementations must be cheap and non-blocking: window events fire
//! once per planned window, which on a large multi-shard run can be
//! thousands of times per wall-clock second.

use crate::Fault;
use std::sync::Arc;

/// A coarse progress notification from an engine or the runner.
///
/// Variants carry only plain counters; anything wall-clock (rates,
/// timestamps) is for the *consumer* to add, so emission never reads
/// the system clock and runs stay reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A conservative window was planned by a multi-shard run. Emitted
    /// by the window driver at plan time, before the window executes.
    Window {
        /// Windows planned so far in this engine (1-based, cumulative).
        window: u64,
        /// The earliest pending event time the window was planned from,
        /// in microseconds of virtual time.
        now_us: u64,
        /// Events dispatched across all shards *before* this window.
        events: u64,
    },
    /// The runner advanced a one-shard run by one fixed virtual-time
    /// chunk (one shard has no windows, so the runner chunks `run_until`
    /// into deterministic slices instead).
    Chunk {
        /// Virtual time reached, in milliseconds.
        now_ms: f64,
        /// Events dispatched so far.
        events: u64,
    },
    /// A fault was scheduled onto the engine (every fault is laid out
    /// before the run starts, so activation times are known at
    /// submission; emitted once per fault action at schedule time).
    Fault {
        /// Virtual activation time, in milliseconds.
        at_ms: f64,
        /// The scheduled action.
        fault: Fault,
    },
    /// An online re-rank tick completed: the hub ranking re-ran over
    /// the live population and every node was rebound to the new set.
    Rerank {
        /// Tick index (1-based).
        tick: u32,
        /// Virtual time of the tick, in milliseconds.
        at_ms: f64,
        /// Size of the newly ranked best set.
        best: usize,
    },
    /// The run finished and its outcome was collected.
    Summary {
        /// Total simulator events dispatched by the run.
        events: u64,
        /// Mean fraction of eligible nodes that delivered each message.
        delivery_fraction: f64,
        /// Steady-state publish→delivery latency percentiles, ms.
        p50_ms: f64,
        /// 99th percentile latency, ms.
        p99_ms: f64,
        /// 99.9th percentile latency, ms.
        p999_ms: f64,
    },
}

/// Receiver for [`ProgressEvent`]s.
///
/// `Send + Sync` because the window driver emits from its
/// leader worker thread; `Debug` so engines holding a sink can keep
/// deriving `Debug`.
pub trait ProgressSink: Send + Sync + std::fmt::Debug {
    /// Delivers one event. Called from engine/runner threads; must not
    /// block for long and must not panic.
    fn emit(&self, event: ProgressEvent);
}

/// A sink that drops every event — the explicit spelling of "no
/// observer". Installing it is indistinguishable from installing none.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl ProgressSink for NoopSink {
    fn emit(&self, _event: ProgressEvent) {}
}

/// Convenience alias for the shared-ownership form every API accepts.
pub type SharedSink = Arc<dyn ProgressSink>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Debug, Default)]
    struct Collecting(Mutex<Vec<ProgressEvent>>);

    impl ProgressSink for Collecting {
        fn emit(&self, event: ProgressEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    #[test]
    fn noop_sink_accepts_everything() {
        let sink = NoopSink;
        sink.emit(ProgressEvent::Chunk {
            now_ms: 1.0,
            events: 2,
        });
    }

    #[test]
    fn events_round_trip_through_a_collecting_sink() {
        let sink = Collecting::default();
        let ev = ProgressEvent::Window {
            window: 1,
            now_us: 500,
            events: 0,
        };
        sink.emit(ev.clone());
        assert_eq!(sink.0.lock().unwrap().as_slice(), &[ev]);
    }
}
