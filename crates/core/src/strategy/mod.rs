//! Transmission strategies (§4): the policy deciding, per gossip exchange,
//! whether to push the payload eagerly or advertise it lazily.
//!
//! A strategy answers the Payload Scheduler's `Eager?(i, d, r, p)` and
//! picks when, and from which source, to request a lazy payload; any
//! strategy is *safe* (§6.4). [`StrategySpec::build`] makes a closed
//! [`Strategy`] that the node stores inline and dispatches with one
//! `match` per scheduler hook, like [`Monitor`](crate::monitor::Monitor).

mod adaptive;
mod flat;
mod hybrid;
mod noise;
mod radius;
mod ranked;
mod ttl;

use crate::{monitor::PerformanceMonitor, rank::BestSet};
use egm_rng::Rng;
use egm_simnet::{NodeId, SimDuration};
use std::sync::Arc;
use {adaptive::Adaptive, flat::Flat, hybrid::Combined, noise::Noise};
use {radius::Radius, ranked::Ranked, ttl::Ttl};

/// Everything a strategy may consult while deciding, borrowed for one
/// decision; the monitor is the node's [`PerformanceMonitor`] (§3.2).
#[derive(Debug)]
pub struct StrategyCtx<'a> {
    /// The deciding node.
    pub me: NodeId,
    /// The node's private RNG stream.
    pub rng: &'a mut Rng,
    /// The node's performance monitor.
    pub monitor: &'a dyn PerformanceMonitor,
}

/// A node's payload transmission strategy (the Transmission Strategy
/// module of Fig. 1): one rule, optionally followed by the §4.3 noise
/// step. Built only by [`StrategySpec::build`].
#[derive(Debug, Clone)]
pub struct Strategy {
    rule: Rule,
    noise: Option<Noise>,
}

/// The rules, one per [`StrategySpec`] variant.
#[derive(Debug, Clone)]
enum Rule {
    Flat(Flat),
    Ttl(Ttl),
    Radius(Radius),
    Ranked(Ranked),
    Adaptive(Adaptive),
    Combined(Combined),
}

impl Strategy {
    /// Adds the §4.3 noise step with calibration constant `c` (the rule's
    /// overall eager rate) and noise ratio `o`; panics unless both are
    /// in `[0, 1]`.
    pub fn with_noise(mut self, c: f64, o: f64) -> Self {
        self.noise = Some(Noise {
            c: probability("calibration constant", c),
            o: probability("noise ratio", o),
        });
        self
    }

    /// `Eager?(i, d, r, p)`: whether to send the payload to peer `to` at
    /// round `round` eagerly (`true`) or advertise it lazily (`false`).
    pub fn eager(&self, ctx: &mut StrategyCtx<'_>, to: NodeId, round: u32) -> bool {
        let eager = match &self.rule {
            Rule::Flat(Flat { pi }) | Rule::Adaptive(Adaptive { pi, .. }) => ctx.rng.bool(*pi),
            Rule::Ttl(Ttl { u }) => round < *u,
            Rule::Radius(Radius { rho, .. }) => ctx.monitor.metric(ctx.me, to) < *rho,
            Rule::Ranked(Ranked { best }) => best.is_best(ctx.me) || best.is_best(to),
            Rule::Combined(Combined { best, radius, u }) => {
                let rho = radius.rho * if round < *u { 2.0 } else { 1.0 };
                best.is_best(ctx.me) || best.is_best(to) || ctx.monitor.metric(ctx.me, to) < rho
            }
        };
        match self.noise {
            Some(Noise { c, o }) => {
                let v = if eager { 1.0 } else { 0.0 };
                ctx.rng.bool(c + (v - c) * (1.0 - o))
            }
            None => eager,
        }
    }

    /// Delay from the first `IHAVE` for a missing message to the first
    /// `IWANT`: `T0` for Radius and Combined, zero for every other rule.
    pub fn first_request_delay(&self) -> SimDuration {
        match &self.rule {
            Rule::Radius(r) | Rule::Combined(Combined { radius: r, .. }) => r.t0,
            _ => SimDuration::ZERO,
        }
    }

    /// Index into `sources` (non-empty) of the source to request from: the
    /// nearest for Radius and Combined, else the oldest (FIFO).
    pub fn pick_source(&self, ctx: &StrategyCtx<'_>, sources: &[NodeId]) -> usize {
        debug_assert!(!sources.is_empty());
        match self.rule {
            Rule::Radius(_) | Rule::Combined(_) => nearest_source(ctx, sources),
            _ => 0,
        }
    }

    /// Feedback: a first payload copy arrived (only Adaptive keeps state).
    pub fn on_payload(&mut self) {
        if let Rule::Adaptive(s) = &mut self.rule {
            s.observe(false);
        }
    }

    /// Feedback: a *redundant* payload copy arrived.
    pub fn on_duplicate(&mut self) {
        if let Rule::Adaptive(s) = &mut self.rule {
            s.observe(true);
        }
    }

    /// Hands Ranked and Combined a re-ranked [`BestSet`] (online
    /// re-ranking, e.g. under churn); other rules hold no set.
    pub fn rebind_best(&mut self, best: Arc<BestSet>) {
        if let Rule::Ranked(Ranked { best: held }) | Rule::Combined(Combined { best: held, .. }) =
            &mut self.rule
        {
            *held = best;
        }
    }
}

/// `x` if it is a probability; panics naming `what` otherwise.
fn probability(what: &str, x: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&x),
        "{what} must be a probability, got {x}"
    );
    x
}

/// Picks the source with the smallest monitor metric (ties to the first).
fn nearest_source(ctx: &StrategyCtx<'_>, sources: &[NodeId]) -> usize {
    let metric = |i: usize| ctx.monitor.metric(ctx.me, sources[i]);
    (1..sources.len()).fold(0, |best, i| if metric(i) < metric(best) { i } else { best })
}

/// Declarative strategy configuration, buildable into per-node
/// [`Strategy`] instances. This is what experiment scenarios serialize.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategySpec {
    /// Flat (§4.1): eager with probability `pi`.
    Flat {
        /// Probability of eager push per `L-Send`.
        pi: f64,
    },
    /// TTL (§4.1): eager while `round < u`.
    Ttl {
        /// Eager-round threshold `u`.
        u: u32,
    },
    /// Radius (§4.1): eager while `Metric(p) < rho`.
    Radius {
        /// The radius `ρ` in monitor units.
        rho: f64,
        /// First-request delay `T0` in milliseconds.
        t0_ms: f64,
    },
    /// Ranked (§4.1): eager when either endpoint is a best node.
    Ranked {
        /// Fraction of nodes ranked best (hub share), in `(0, 1]`.
        best_fraction: f64,
    },
    /// Adaptive (extension): Flat whose eager probability is tuned at
    /// runtime from the observed duplicate ratio.
    Adaptive {
        /// Starting eager probability.
        initial_pi: f64,
        /// Target fraction of received payloads that are duplicates.
        target_duplicate_ratio: f64,
    },
    /// Combined hybrid of TTL, Radius and Ranked (§6.4).
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
            StrategySpec::Ranked { best_fraction: f } => format!("ranked best={:.0}%", f * 100.0),
            StrategySpec::Adaptive {
                target_duplicate_ratio: t,
                ..
            } => format!("adaptive target={t:.2}"),
            StrategySpec::Combined { rho, u, .. } => format!("combined rho={rho:.1} u={u}"),
        }
    }

    /// The best-node fraction of Ranked and Combined (they need a [`BestSet`]).
    pub fn best_fraction(&self) -> Option<f64> {
        match self {
            StrategySpec::Ranked { best_fraction }
            | StrategySpec::Combined { best_fraction, .. } => Some(*best_fraction),
            _ => None,
        }
    }

    /// Builds the per-node strategy; `best` holds the shared best set when
    /// [`StrategySpec::best_fraction`] is `Some`. Panics if it is missing
    /// or a parameter is out of range (e.g. `pi` outside `[0, 1]`).
    pub fn build(&self, best: Option<Arc<BestSet>>) -> Strategy {
        let rule = match *self {
            StrategySpec::Flat { pi } => Rule::Flat(Flat {
                pi: probability("pi", pi),
            }),
            StrategySpec::Ttl { u } => Rule::Ttl(Ttl { u }),
            StrategySpec::Radius { rho, t0_ms } => Rule::Radius(Radius::new(rho, t0_ms)),
            StrategySpec::Ranked { .. } => Rule::Ranked(Ranked {
                best: best.expect("Ranked strategy requires a best set"),
            }),
            StrategySpec::Adaptive {
                initial_pi,
                target_duplicate_ratio,
            } => Rule::Adaptive(Adaptive::new(initial_pi, target_duplicate_ratio)),
            StrategySpec::Combined { rho, u, t0_ms, .. } => Rule::Combined(Combined {
                best: best.expect("Combined strategy requires a best set"),
                radius: Radius::new(rho, t0_ms),
                u,
            }),
        };
        Strategy { rule, noise: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;

    fn ctx_with<'a>(rng: &'a mut Rng, monitor: &'a dyn PerformanceMonitor) -> StrategyCtx<'a> {
        StrategyCtx {
            me: NodeId(0),
            rng,
            monitor,
        }
    }

    /// A monitor whose metric to node `p` is `10 p`.
    #[derive(Debug)]
    pub(super) struct Linear;

    impl PerformanceMonitor for Linear {
        fn metric(&self, _me: NodeId, p: NodeId) -> f64 {
            p.index() as f64 * 10.0
        }
    }

    /// One `Eager?` answer of `s` from `me` to `to` at `round`.
    pub(super) fn decide(
        s: &Strategy,
        monitor: &dyn PerformanceMonitor,
        me: usize,
        to: usize,
        round: u32,
    ) -> bool {
        let mut rng = Rng::seed_from_u64(1);
        let mut ctx = StrategyCtx {
            me: NodeId(me),
            rng: &mut rng,
            monitor,
        };
        s.eager(&mut ctx, NodeId(to), round)
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
        assert!(StrategySpec::Flat { pi: 0.5 }.best_fraction().is_none());
        assert!(StrategySpec::Ttl { u: 1 }.best_fraction().is_none());
        assert!(StrategySpec::Radius {
            rho: 1.0,
            t0_ms: 1.0
        }
        .best_fraction()
        .is_none());
        assert_eq!(
            StrategySpec::Ranked { best_fraction: 0.2 }.best_fraction(),
            Some(0.2)
        );
        assert_eq!(
            StrategySpec::Combined {
                best_fraction: 0.2,
                rho: 1.0,
                u: 1,
                t0_ms: 1.0
            }
            .best_fraction(),
            Some(0.2)
        );
    }

    #[test]
    #[should_panic(expected = "requires a best set")]
    fn building_ranked_without_best_set_panics() {
        let _ = StrategySpec::Ranked { best_fraction: 0.2 }.build(None);
    }

    #[test]
    fn build_produces_labelled_strategies() {
        // Every spec builds into the rule its label names.
        let best = BestSet::from_ids(4, &[NodeId(0)]).shared();
        let built = |spec: StrategySpec| spec.build(Some(Arc::clone(&best))).rule;
        assert!(matches!(
            built(StrategySpec::Flat { pi: 0.5 }),
            Rule::Flat(_)
        ));
        assert!(matches!(built(StrategySpec::Ttl { u: 2 }), Rule::Ttl(_)));
        assert!(matches!(
            built(StrategySpec::Radius {
                rho: 10.0,
                t0_ms: 15.0,
            }),
            Rule::Radius(_)
        ));
        assert!(matches!(
            built(StrategySpec::Ranked {
                best_fraction: 0.25,
            }),
            Rule::Ranked(_)
        ));
        assert!(matches!(
            built(StrategySpec::Adaptive {
                initial_pi: 0.5,
                target_duplicate_ratio: 0.2,
            }),
            Rule::Adaptive(_)
        ));
        assert!(matches!(
            built(StrategySpec::Combined {
                best_fraction: 0.25,
                rho: 10.0,
                u: 2,
                t0_ms: 15.0,
            }),
            Rule::Combined(_)
        ));
    }

    #[test]
    fn rebind_best_reaches_ranked_rules_only() {
        let none = BestSet::none(4).shared();
        let hub = BestSet::from_ids(4, &[NodeId(1)]).shared();
        let mut rng = Rng::seed_from_u64(3);
        let monitor = NullMonitor;
        let mut ctx = ctx_with(&mut rng, &monitor);
        let mut ranked = StrategySpec::Ranked {
            best_fraction: 0.25,
        }
        .build(Some(none));
        assert!(!ranked.eager(&mut ctx, NodeId(1), 0));
        ranked.rebind_best(Arc::clone(&hub));
        assert!(ranked.eager(&mut ctx, NodeId(1), 0), "fresh hub is eager");
        let mut ttl = StrategySpec::Ttl { u: 0 }.build(None);
        ttl.rebind_best(hub);
        assert!(!ttl.eager(&mut ctx, NodeId(1), 0), "TTL holds no set");
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
        let ctx = ctx_with(&mut rng, &monitor);
        let sources = [NodeId(5), NodeId(2), NodeId(7)];
        assert_eq!(nearest_source(&ctx, &sources), 1);
    }

    #[test]
    fn default_pick_source_is_fifo() {
        let flat = StrategySpec::Flat { pi: 0.5 }.build(None);
        let mut rng = Rng::seed_from_u64(2);
        let monitor = NullMonitor;
        let ctx = ctx_with(&mut rng, &monitor);
        assert_eq!(flat.pick_source(&ctx, &[NodeId(9), NodeId(1)]), 0);
    }
}
