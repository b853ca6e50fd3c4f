//! Transmission strategies (§4): the policy deciding, per gossip exchange,
//! whether to push the payload eagerly or advertise it lazily.
//!
//! A strategy answers the two questions of the Payload Scheduler:
//!
//! 1. `Eager?(i, d, r, p)` — should this `L-Send` carry the payload now?
//! 2. scheduling of lazy requests — how long to wait before the first
//!    `IWANT`, and which known source to ask.
//!
//! Any strategy is *safe*: it only shifts the latency/bandwidth tradeoff,
//! never correctness (§6.4: *"one can easily try new strategies without
//! endangering the correctness of the protocol"*). The paper's strategies
//! are [`Flat`], [`Ttl`], [`Radius`], [`Ranked`] and the hybrid
//! [`Combined`]; [`Noisy`] degrades any of them in a traffic-preserving
//! way (§4.3).

mod adaptive;
mod flat;
mod hybrid;
mod noise;
mod radius;
mod ranked;
mod ttl;

pub use adaptive::Adaptive;
pub use flat::Flat;
pub use hybrid::Combined;
pub use noise::Noisy;
pub use radius::Radius;
pub use ranked::Ranked;
pub use ttl::Ttl;

use crate::id::MsgId;
use crate::monitor::PerformanceMonitor;
use crate::rank::BestSet;
use egm_rng::Rng;
use egm_simnet::{NodeId, SimDuration};
use std::sync::Arc;

/// Everything a strategy may consult while deciding.
///
/// Borrowed for the duration of one decision; the monitor is the node's
/// [`PerformanceMonitor`] (§3.2).
pub struct StrategyCtx<'a> {
    /// The deciding node.
    pub me: NodeId,
    /// The node's private RNG stream.
    pub rng: &'a mut Rng,
    /// The node's performance monitor.
    pub monitor: &'a dyn PerformanceMonitor,
}

impl std::fmt::Debug for StrategyCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategyCtx")
            .field("me", &self.me)
            .finish_non_exhaustive()
    }
}

/// A payload transmission strategy (the Transmission Strategy module of
/// Fig. 1).
///
/// `Send` is required so nodes — and the strategies they own — can be
/// partitioned across the sharded simulator's worker threads.
pub trait TransmissionStrategy: std::fmt::Debug + Send {
    /// `Eager?(i, d, r, p)`: whether to send the payload of message `id`
    /// at round `round` to peer `to` eagerly (`true`) or advertise it
    /// lazily (`false`).
    fn eager(&mut self, ctx: &mut StrategyCtx<'_>, to: NodeId, id: MsgId, round: u32) -> bool;

    /// Delay between the first `IHAVE` for a missing message and the first
    /// `IWANT`. `ZERO` (the Flat/TTL/Ranked behaviour) requests
    /// immediately; Radius-style strategies wait `T0`, the latency to
    /// nodes within the radius, hoping an eager copy arrives first.
    fn first_request_delay(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// Picks which known source to request a missing payload from:
    /// returns an index into `sources` (non-empty). The default takes the
    /// oldest advertisement (FIFO); environment-aware strategies pick the
    /// nearest source.
    fn pick_source(&mut self, ctx: &mut StrategyCtx<'_>, sources: &[NodeId]) -> usize {
        let _ = ctx;
        debug_assert!(!sources.is_empty());
        0
    }

    /// Feedback: the node received the payload of a message for the
    /// first time from `from`. Default: ignored. Adaptive strategies use
    /// this together with [`TransmissionStrategy::on_duplicate`] to
    /// estimate redundancy.
    fn on_payload(&mut self, from: NodeId) {
        let _ = from;
    }

    /// Feedback: the node received a *redundant* payload copy from
    /// `from`. Default: ignored.
    fn on_duplicate(&mut self, from: NodeId) {
        let _ = from;
    }

    /// Replaces the strategy's shared [`BestSet`], if it holds one — the
    /// online re-ranking hook: when hubs are re-ranked mid-run (e.g.
    /// under churn) every node is handed the fresh set through this
    /// method. Strategies without rank state (Flat, TTL, Radius,
    /// Adaptive) ignore it.
    fn rebind_best(&mut self, best: Arc<BestSet>) {
        let _ = best;
    }

    /// Human-readable label for reports.
    fn label(&self) -> String;
}

/// Picks the source with the smallest monitor metric (ties to the first).
pub(crate) fn nearest_source(ctx: &mut StrategyCtx<'_>, sources: &[NodeId]) -> usize {
    debug_assert!(!sources.is_empty());
    let mut best = 0;
    let mut best_metric = f64::INFINITY;
    for (i, &s) in sources.iter().enumerate() {
        let m = ctx.monitor.metric(ctx.me, s);
        if m < best_metric {
            best_metric = m;
            best = i;
        }
    }
    best
}

/// Declarative strategy configuration, buildable into per-node strategy
/// instances. This is what experiment scenarios serialize.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategySpec {
    /// [`Flat`] with eager probability `pi`.
    Flat {
        /// Probability of eager push per `L-Send`.
        pi: f64,
    },
    /// [`Ttl`]: eager while `round < u`.
    Ttl {
        /// Eager-round threshold `u`.
        u: u32,
    },
    /// [`Radius`]: eager while `Metric(p) < rho`.
    Radius {
        /// The radius `ρ` in monitor units.
        rho: f64,
        /// First-request delay `T0` in milliseconds.
        t0_ms: f64,
    },
    /// [`Ranked`]: eager when either endpoint is a best node.
    Ranked {
        /// Fraction of nodes ranked best (hub share), in `(0, 1]`.
        best_fraction: f64,
    },
    /// [`Adaptive`] (extension): Flat whose eager probability is tuned at
    /// runtime from the observed duplicate ratio.
    Adaptive {
        /// Starting eager probability.
        initial_pi: f64,
        /// Target fraction of received payloads that are duplicates.
        target_duplicate_ratio: f64,
    },
    /// [`Combined`] hybrid of TTL, Radius and Ranked (§6.4).
    Combined {
        /// Fraction of nodes ranked best.
        best_fraction: f64,
        /// Radius `ρ`; doubled while `round < u`.
        rho: f64,
        /// Round threshold `u` below which the radius is `2ρ`.
        u: u32,
        /// First-request delay `T0` in milliseconds.
        t0_ms: f64,
    },
}

impl StrategySpec {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            StrategySpec::Flat { pi } => format!("flat pi={pi:.2}"),
            StrategySpec::Ttl { u } => format!("ttl u={u}"),
            StrategySpec::Radius { rho, .. } => format!("radius rho={rho:.1}"),
            StrategySpec::Ranked { best_fraction } => {
                format!("ranked best={:.0}%", best_fraction * 100.0)
            }
            StrategySpec::Adaptive {
                target_duplicate_ratio,
                ..
            } => {
                format!("adaptive target={target_duplicate_ratio:.2}")
            }
            StrategySpec::Combined { rho, u, .. } => format!("combined rho={rho:.1} u={u}"),
        }
    }

    /// Whether this strategy requires a [`BestSet`].
    pub fn needs_best_set(&self) -> bool {
        matches!(
            self,
            StrategySpec::Ranked { .. } | StrategySpec::Combined { .. }
        )
    }

    /// The best-node fraction, if the strategy uses one.
    pub fn best_fraction(&self) -> Option<f64> {
        match self {
            StrategySpec::Ranked { best_fraction }
            | StrategySpec::Combined { best_fraction, .. } => Some(*best_fraction),
            _ => None,
        }
    }

    /// Builds the per-node strategy instance.
    ///
    /// `best` must contain the shared best set when
    /// [`StrategySpec::needs_best_set`] is true.
    ///
    /// # Panics
    ///
    /// Panics if a required best set is missing or a parameter is out of
    /// range (e.g. `pi` outside `[0, 1]`).
    pub fn build(&self, best: Option<Arc<BestSet>>) -> Box<dyn TransmissionStrategy> {
        match self {
            StrategySpec::Flat { pi } => Box::new(Flat::new(*pi)),
            StrategySpec::Ttl { u } => Box::new(Ttl::new(*u)),
            StrategySpec::Radius { rho, t0_ms } => {
                Box::new(Radius::new(*rho, SimDuration::from_ms(*t0_ms)))
            }
            StrategySpec::Ranked { .. } => {
                let best = best.expect("Ranked strategy requires a best set");
                Box::new(Ranked::new(best))
            }
            StrategySpec::Adaptive {
                initial_pi,
                target_duplicate_ratio,
            } => Box::new(Adaptive::new(*initial_pi, *target_duplicate_ratio)),
            StrategySpec::Combined { rho, u, t0_ms, .. } => {
                let best = best.expect("Combined strategy requires a best set");
                Box::new(Combined::new(best, *rho, *u, SimDuration::from_ms(*t0_ms)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;

    pub(crate) fn ctx_with<'a>(
        rng: &'a mut Rng,
        monitor: &'a dyn PerformanceMonitor,
    ) -> StrategyCtx<'a> {
        StrategyCtx {
            me: NodeId(0),
            rng,
            monitor,
        }
    }

    #[test]
    fn spec_labels_are_descriptive() {
        assert_eq!(StrategySpec::Flat { pi: 0.25 }.label(), "flat pi=0.25");
        assert_eq!(StrategySpec::Ttl { u: 2 }.label(), "ttl u=2");
        assert!(StrategySpec::Radius {
            rho: 25.0,
            t0_ms: 30.0
        }
        .label()
        .contains("radius"));
        assert!(StrategySpec::Ranked { best_fraction: 0.2 }
            .label()
            .contains("20%"));
        assert!(StrategySpec::Combined {
            best_fraction: 0.2,
            rho: 25.0,
            u: 2,
            t0_ms: 30.0
        }
        .label()
        .contains("combined"));
    }

    #[test]
    fn needs_best_set_only_for_ranked_family() {
        assert!(!StrategySpec::Flat { pi: 0.5 }.needs_best_set());
        assert!(!StrategySpec::Ttl { u: 1 }.needs_best_set());
        assert!(!StrategySpec::Radius {
            rho: 1.0,
            t0_ms: 1.0
        }
        .needs_best_set());
        assert!(StrategySpec::Ranked { best_fraction: 0.2 }.needs_best_set());
        assert!(StrategySpec::Combined {
            best_fraction: 0.2,
            rho: 1.0,
            u: 1,
            t0_ms: 1.0
        }
        .needs_best_set());
    }

    #[test]
    #[should_panic(expected = "requires a best set")]
    fn building_ranked_without_best_set_panics() {
        let _ = StrategySpec::Ranked { best_fraction: 0.2 }.build(None);
    }

    #[test]
    fn build_produces_labelled_strategies() {
        let best = BestSet::from_ids(4, &[NodeId(0)]).shared();
        for spec in [
            StrategySpec::Flat { pi: 0.5 },
            StrategySpec::Ttl { u: 2 },
            StrategySpec::Radius {
                rho: 10.0,
                t0_ms: 15.0,
            },
            StrategySpec::Ranked {
                best_fraction: 0.25,
            },
            StrategySpec::Combined {
                best_fraction: 0.25,
                rho: 10.0,
                u: 2,
                t0_ms: 15.0,
            },
        ] {
            let s = spec.build(Some(Arc::clone(&best)));
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn nearest_source_picks_minimum_metric() {
        #[derive(Debug)]
        struct FakeMonitor;
        impl PerformanceMonitor for FakeMonitor {
            fn metric(&self, _me: NodeId, p: NodeId) -> f64 {
                // node 2 is closest
                match p.index() {
                    2 => 1.0,
                    _ => 10.0 + p.index() as f64,
                }
            }
        }
        let mut rng = Rng::seed_from_u64(1);
        let monitor = FakeMonitor;
        let mut ctx = ctx_with(&mut rng, &monitor);
        let sources = [NodeId(5), NodeId(2), NodeId(7)];
        assert_eq!(nearest_source(&mut ctx, &sources), 1);
    }

    #[test]
    fn default_pick_source_is_fifo() {
        let mut flat = Flat::new(0.5);
        let mut rng = Rng::seed_from_u64(2);
        let monitor = NullMonitor;
        let mut ctx = ctx_with(&mut rng, &monitor);
        assert_eq!(flat.pick_source(&mut ctx, &[NodeId(9), NodeId(1)]), 0);
    }
}
