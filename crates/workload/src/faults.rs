//! Fault models: node silencing after warm-up (§6.3) and its extensions.
//!
//! The paper *"simulates failed nodes by silencing them with firewall
//! rules after letting them join the overlay and warm up, i.e. immediately
//! before starting to log message deliveries"*. A [`FaultPlan`] selects a
//! fraction of nodes — uniformly at random, or precisely the best-ranked
//! hubs (the adversarial case of Fig. 5(b)) — and the runner silences them
//! at the end of warm-up. Failed nodes neither multicast nor count toward
//! delivery statistics.
//!
//! Every fault reaches the engine the same way: as a [`FaultSchedule`] of
//! timed [`Fault`] actions, replayed through `Sim::schedule_fault`. The
//! warm-up victims become `Silence` events at warm-up end, a
//! [`ChurnPlan`] lays out silence/revive pairs over the traffic window,
//! and a scenario's explicit schedule (the [`FaultScenarioKind`] library
//! or a hand-written trace) is replayed verbatim.

use egm_core::BestSet;
use egm_rng::{sample, Rng};
use egm_simnet::{Fault, NodeId, SimDuration, SimTime};
use egm_topology::RoutedModel;

/// How failed nodes are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSelection {
    /// Uniformly random victims.
    Random,
    /// The best-ranked nodes — exactly those carrying most payload under
    /// the Ranked strategy.
    BestRanked,
}

/// A fault-injection plan.
///
/// # Examples
///
/// ```
/// use egm_workload::{FaultPlan, FaultSelection};
///
/// let plan = FaultPlan::new(0.2, FaultSelection::Random);
/// assert_eq!(plan.victim_count(100), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Fraction of nodes to silence, in `[0, 1)`.
    pub fraction: f64,
    /// Victim selection policy.
    pub selection: FaultSelection,
}

impl FaultPlan {
    /// Creates a plan killing `fraction` of nodes.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1)` (killing everyone leaves
    /// nothing to measure).
    pub fn new(fraction: f64, selection: FaultSelection) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "fault fraction must be in [0, 1)"
        );
        FaultPlan {
            fraction,
            selection,
        }
    }

    /// Number of victims for an `n`-node system.
    pub fn victim_count(&self, n: usize) -> usize {
        ((n as f64 * self.fraction).round() as usize).min(n.saturating_sub(1))
    }

    /// Chooses the victims.
    ///
    /// For [`FaultSelection::BestRanked`], the best set must be provided
    /// (hubs are killed first; if the plan needs more victims than there
    /// are hubs, the remainder is drawn randomly from regular nodes —
    /// matching "select the nodes with the best ranks").
    ///
    /// # Panics
    ///
    /// Panics if `BestRanked` is requested without a best set.
    pub fn choose_victims(&self, n: usize, best: Option<&BestSet>, rng: &mut Rng) -> Vec<NodeId> {
        let k = self.victim_count(n);
        if k == 0 {
            return Vec::new();
        }
        match self.selection {
            FaultSelection::Random => sample::distinct_indices(rng, n, k)
                .into_iter()
                .map(NodeId)
                .collect(),
            FaultSelection::BestRanked => {
                let best = best.expect("BestRanked faults require a best set");
                let mut victims: Vec<NodeId> = best.best_ids();
                if victims.len() > k {
                    victims.truncate(k);
                } else if victims.len() < k {
                    let regular = best.regular_ids();
                    let extra = k - victims.len();
                    for idx in sample::distinct_indices(rng, regular.len(), extra) {
                        victims.push(regular[idx]);
                    }
                }
                victims
            }
        }
    }
}

/// Transient churn: nodes go silent for a while and come back, repeatedly,
/// *during* dissemination.
///
/// This extends §6.3's permanent fail-by-firewall to the transient
/// partitions real overlays see. Every `period_ms`, one uniformly random
/// node is silenced for `down_ms` and then revived. Unlike permanent
/// victims, churned nodes stay in the delivery denominator: messages they
/// miss while down genuinely count against reliability.
///
/// # Examples
///
/// ```
/// use egm_workload::faults::ChurnPlan;
///
/// let plan = ChurnPlan::new(500.0, 1500.0);
/// assert_eq!(plan.events_within(5000.0), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    /// Interval between churn events in milliseconds.
    pub period_ms: f64,
    /// How long each churned node stays silent, in milliseconds.
    pub down_ms: f64,
}

impl ChurnPlan {
    /// Creates a plan with the given churn period and outage duration.
    ///
    /// # Panics
    ///
    /// Panics if either duration is not strictly positive and finite.
    pub fn new(period_ms: f64, down_ms: f64) -> Self {
        assert!(
            period_ms.is_finite() && period_ms > 0.0,
            "period must be positive"
        );
        assert!(
            down_ms.is_finite() && down_ms > 0.0,
            "down time must be positive"
        );
        ChurnPlan { period_ms, down_ms }
    }

    /// Number of churn events within a window of `window_ms`.
    pub fn events_within(&self, window_ms: f64) -> usize {
        if window_ms <= 0.0 {
            0
        } else {
            (window_ms / self.period_ms).floor() as usize
        }
    }

    /// Lays out the plan's outages over the window of `window_ms` that
    /// opens at `start`: one outage every `period_ms`, each a `Silence`
    /// followed `down_ms` later by its `Revive`. Each victim is drawn
    /// uniformly but *rejected* if it is in `excluded` (permanent fault
    /// victims) or still down from an earlier churn outage (`down_ms >
    /// period_ms` makes outages overlap). Redraws are bounded; an outage
    /// whose budget runs out is skipped rather than silently doubled onto
    /// an already-dead node.
    pub fn schedule(
        &self,
        n: usize,
        start: SimTime,
        window_ms: f64,
        excluded: &[NodeId],
        rng: &mut Rng,
    ) -> FaultSchedule {
        /// Redraw budget per outage: generous enough that a draw only
        /// fails when nearly every node is excluded or mid-outage.
        const MAX_REDRAWS: u32 = 64;
        let mut down_until = vec![f64::NEG_INFINITY; n];
        let blocked = |node: NodeId, at_ms: f64, down_until: &[f64]| {
            excluded.contains(&node) || down_until[node.index()] > at_ms
        };
        let mut s = FaultSchedule::empty();
        for k in 1..=self.events_within(window_ms) {
            let at_ms = k as f64 * self.period_ms;
            let mut node = NodeId(rng.range_usize(0, n));
            let mut redraws = 0;
            while blocked(node, at_ms, &down_until) && redraws < MAX_REDRAWS {
                node = NodeId(rng.range_usize(0, n));
                redraws += 1;
            }
            if blocked(node, at_ms, &down_until) {
                continue;
            }
            down_until[node.index()] = at_ms + self.down_ms;
            let down = start + SimDuration::from_ms(at_ms);
            s.push(down.as_ms(), Fault::Silence(node));
            let up = down + SimDuration::from_ms(self.down_ms);
            s.push(up.as_ms(), Fault::Revive(node));
        }
        s
    }
}

/// A timed fault: `action` fires at `at_ms` of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFault {
    /// When the action fires, in absolute simulated milliseconds.
    pub at_ms: f64,
    /// What happens.
    pub action: Fault,
}

/// A deterministic fault trace: timed join/leave/crash/revive/degrade
/// events, the one form in which every fault reaches the engine — the
/// runner lowers [`FaultPlan`] (one permanent cut at warm-up end) and
/// [`ChurnPlan`] (periodic transient outages) into schedules too, and
/// replays each event by event.
///
/// Schedules are plain data — seed-derived and independent of simulator
/// state — so the same trace drives every shard width to byte-identical
/// outcomes (the `fault_determinism` suite pins this). Library constructors cover
/// the scenarios the resilience experiment sweeps: correlated
/// [domain outages](FaultSchedule::domain_outage), transit-link
/// [degradation](FaultSchedule::transit_degradation),
/// [flash crowds](FaultSchedule::flash_crowd), per-node
/// [slowdowns](FaultSchedule::node_slowdown).
///
/// # Examples
///
/// ```
/// use egm_workload::faults::FaultSchedule;
///
/// let s = FaultSchedule::transit_degradation(1000.0, 500.0, 2.0, 0.05);
/// assert_eq!(s.events.len(), 2, "onset plus recovery");
/// assert!(!s.down_at(1200.0, 8).iter().any(|&d| d), "degradation kills nobody");
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    /// The timed events, in firing order.
    pub events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// An empty schedule (no faults).
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    fn push(&mut self, at_ms: f64, action: Fault) {
        self.events.push(TimedFault { at_ms, action });
    }

    /// Correlated stub-domain outage: every client of one stub domain
    /// goes silent at `at_ms` and revives `down_ms` later — the
    /// "access ISP fails" case a uniform random fault plan cannot
    /// express. `which` selects the domain among the model's populated
    /// stub domains (wrapping, so any index is valid).
    ///
    /// Dense models have no stub domains; there the outage falls back to
    /// a contiguous block of `n/8` clients so synthetic test topologies
    /// can still run the scenario.
    pub fn domain_outage(model: &RoutedModel, which: usize, at_ms: f64, down_ms: f64) -> Self {
        let members: Vec<usize> = match model.populated_domains() {
            Some(domains) => {
                let domain = domains[which % domains.len()];
                model
                    .domain_clients(domain)
                    .expect("populated domain has clients")
            }
            None => {
                let n = model.client_count();
                let size = (n / 8).max(1);
                let start = (which * size) % n;
                (start..start + size).map(|i| i % n).collect()
            }
        };
        let mut s = FaultSchedule::empty();
        for &node in &members {
            s.push(at_ms, Fault::Silence(NodeId(node)));
        }
        for &node in &members {
            s.push(at_ms + down_ms, Fault::Revive(NodeId(node)));
        }
        s
    }

    /// Transit-link degradation: from `at_ms` until `at_ms +
    /// duration_ms`, cross-domain latencies multiply by `latency_mult`
    /// and cross-domain messages suffer `extra_loss` additional loss.
    pub fn transit_degradation(
        at_ms: f64,
        duration_ms: f64,
        latency_mult: f64,
        extra_loss: f64,
    ) -> Self {
        let onset = Fault::Degrade {
            latency_mult,
            extra_loss,
        };
        onset.check();
        let mut s = FaultSchedule::empty();
        s.push(at_ms, onset);
        s.push(
            at_ms + duration_ms,
            Fault::Degrade {
                latency_mult: 1.0,
                extra_loss: 0.0,
            },
        );
        s
    }

    /// Flash crowd: a seed-chosen `fraction` of the `n` nodes sit out
    /// the start of the run (silenced at time 0) and mass-join at
    /// `join_at_ms`. At most `n - 1` nodes can sit out.
    pub fn flash_crowd(n: usize, fraction: f64, join_at_ms: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "crowd fraction must be in [0, 1]"
        );
        let k = ((n as f64 * fraction).round() as usize).min(n.saturating_sub(1));
        let mut rng = Rng::seed_from_u64(seed);
        let crowd = sample::distinct_indices(&mut rng, n, k);
        let mut s = FaultSchedule::empty();
        for &node in &crowd {
            s.push(0.0, Fault::Silence(NodeId(node)));
        }
        for &node in &crowd {
            s.push(join_at_ms, Fault::Revive(NodeId(node)));
        }
        s
    }

    /// Node slowdown: a seed-chosen `fraction` of the `n` nodes process
    /// messages `delay_ms` slower between `at_ms` and
    /// `at_ms + duration_ms`.
    pub fn node_slowdown(
        n: usize,
        fraction: f64,
        at_ms: f64,
        delay_ms: f64,
        duration_ms: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "slowdown fraction must be in [0, 1]"
        );
        let delay = SimDuration::from_ms(delay_ms);
        let k = (n as f64 * fraction).round() as usize;
        let mut rng = Rng::seed_from_u64(seed);
        let slowed = sample::distinct_indices(&mut rng, n, k.min(n));
        let mut s = FaultSchedule::empty();
        for &node in &slowed {
            let node = NodeId(node);
            s.push(at_ms, Fault::Slowdown { node, delay });
        }
        for &node in &slowed {
            let node = NodeId(node);
            let delay = SimDuration::ZERO;
            s.push(at_ms + duration_ms, Fault::Slowdown { node, delay });
        }
        s
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The silenced-node mask at time `t_ms`: replays every
    /// `Silence`/`Revive` with `at_ms <= t_ms`. This is how the online
    /// re-ranker knows which nodes to exclude — pure schedule data, so
    /// every shard width computes the identical mask.
    pub fn down_at(&self, t_ms: f64, n: usize) -> Vec<bool> {
        let mut down = vec![false; n];
        for ev in &self.events {
            if ev.at_ms > t_ms {
                continue;
            }
            match ev.action {
                Fault::Silence(node) => down[node.index()] = true,
                Fault::Revive(node) => down[node.index()] = false,
                Fault::Degrade { .. } | Fault::Slowdown { .. } => {}
            }
        }
        down
    }

    /// Checks every event against an `n`-node system: node indices in
    /// range, times finite and non-negative, degradation parameters
    /// valid. The runner calls this before scheduling.
    ///
    /// # Panics
    ///
    /// Panics on the first invalid event.
    pub fn validate(&self, n: usize) {
        for ev in &self.events {
            assert!(
                ev.at_ms.is_finite() && ev.at_ms >= 0.0,
                "fault time must be finite and non-negative, got {}",
                ev.at_ms
            );
            if let Some(node) = ev.action.node() {
                assert!(node.index() < n, "fault targets {node} of {n} nodes");
            }
            ev.action.check();
        }
    }
}

/// The library fault scenarios the resilience experiment sweeps
/// (`fault_resilience`): each maps to one canonical [`FaultSchedule`]
/// via [`FaultScenarioKind::schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenarioKind {
    /// No faults: the reference cell.
    Baseline,
    /// One whole stub domain fails mid-warm-up and recovers mid-traffic.
    DomainOutage,
    /// Transit links run at 2× latency with 5 % extra loss.
    TransitDegradation,
    /// A quarter of the nodes join mid-warm-up instead of at time 0.
    FlashCrowd,
    /// A fifth of the nodes process messages 5 ms slower.
    NodeSlowdown,
}

impl FaultScenarioKind {
    /// All library scenarios, baseline first.
    pub fn all() -> [FaultScenarioKind; 5] {
        [
            FaultScenarioKind::Baseline,
            FaultScenarioKind::DomainOutage,
            FaultScenarioKind::TransitDegradation,
            FaultScenarioKind::FlashCrowd,
            FaultScenarioKind::NodeSlowdown,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultScenarioKind::Baseline => "baseline",
            FaultScenarioKind::DomainOutage => "domain outage",
            FaultScenarioKind::TransitDegradation => "transit degrade",
            FaultScenarioKind::FlashCrowd => "flash crowd",
            FaultScenarioKind::NodeSlowdown => "node slowdown",
        }
    }

    /// Builds the canonical schedule: faults strike at half warm-up —
    /// while the online re-ranker is still running, so it can react —
    /// and (where transient) recover halfway through the traffic phase.
    pub fn schedule(
        &self,
        model: &RoutedModel,
        warmup_ms: f64,
        traffic_ms: f64,
        seed: u64,
    ) -> FaultSchedule {
        let n = model.client_count();
        let onset = 0.5 * warmup_ms;
        let hold = 0.5 * warmup_ms + 0.5 * traffic_ms;
        match self {
            FaultScenarioKind::Baseline => FaultSchedule::empty(),
            FaultScenarioKind::DomainOutage => FaultSchedule::domain_outage(model, 0, onset, hold),
            FaultScenarioKind::TransitDegradation => {
                FaultSchedule::transit_degradation(onset, hold, 2.0, 0.05)
            }
            FaultScenarioKind::FlashCrowd => {
                FaultSchedule::flash_crowd(n, 0.25, onset, seed ^ 0x464C_4153)
            }
            FaultScenarioKind::NodeSlowdown => {
                FaultSchedule::node_slowdown(n, 0.2, onset, 5.0, hold, seed ^ 0x534C_4F57)
            }
        }
    }
}

/// Online re-ranking during warm-up: every `period_ms` the runner
/// pauses the engine at a global barrier, recomputes the best set
/// through the scenario's [`RankSource`](egm_core::RankSource) —
/// excluding nodes the fault schedule has down at that instant — and
/// rebinds every node's strategy to the new set. This is how hubs
/// re-rank *while churn is active* instead of trusting a pre-fault
/// ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RerankPlan {
    /// Interval between re-rank ticks in milliseconds.
    pub period_ms: f64,
    /// Number of ticks (all must land within warm-up).
    pub ticks: u32,
}

impl RerankPlan {
    /// Creates a plan with `ticks` re-rank barriers every `period_ms`.
    ///
    /// # Panics
    ///
    /// Panics if the period is not strictly positive and finite or
    /// `ticks` is zero.
    pub fn new(period_ms: f64, ticks: u32) -> Self {
        assert!(
            period_ms.is_finite() && period_ms > 0.0,
            "re-rank period must be positive"
        );
        assert!(ticks > 0, "need at least one re-rank tick");
        RerankPlan { period_ms, ticks }
    }
}

#[cfg(test)]
mod tests {
    use super::{ChurnPlan, FaultPlan, FaultSelection};
    use egm_core::BestSet;
    use egm_rng::Rng;
    use egm_simnet::{Fault, NodeId, SimTime};
    use std::collections::HashSet;

    #[test]
    fn victim_counts_round_and_cap() {
        let plan = FaultPlan::new(0.5, FaultSelection::Random);
        assert_eq!(plan.victim_count(10), 5);
        assert_eq!(plan.victim_count(1), 0, "never kill the last node");
        let heavy = FaultPlan::new(0.99, FaultSelection::Random);
        assert_eq!(heavy.victim_count(10), 9);
    }

    #[test]
    fn random_victims_are_distinct() {
        let plan = FaultPlan::new(0.4, FaultSelection::Random);
        let mut rng = Rng::seed_from_u64(1);
        let victims = plan.choose_victims(20, None, &mut rng);
        assert_eq!(victims.len(), 8);
        let set: HashSet<_> = victims.iter().collect();
        assert_eq!(set.len(), 8);
        assert!(victims.iter().all(|v| v.index() < 20));
    }

    #[test]
    fn best_ranked_kills_hubs_first() {
        let best = BestSet::from_ids(10, &[NodeId(1), NodeId(3)]);
        let plan = FaultPlan::new(0.2, FaultSelection::BestRanked);
        let mut rng = Rng::seed_from_u64(2);
        let victims = plan.choose_victims(10, Some(&best), &mut rng);
        assert_eq!(victims, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn best_ranked_spills_into_regular_nodes() {
        let best = BestSet::from_ids(10, &[NodeId(0)]);
        let plan = FaultPlan::new(0.5, FaultSelection::BestRanked);
        let mut rng = Rng::seed_from_u64(3);
        let victims = plan.choose_victims(10, Some(&best), &mut rng);
        assert_eq!(victims.len(), 5);
        assert!(victims.contains(&NodeId(0)), "hub dies first");
        let set: HashSet<_> = victims.iter().collect();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn zero_fraction_kills_nobody() {
        let plan = FaultPlan::new(0.0, FaultSelection::Random);
        let mut rng = Rng::seed_from_u64(4);
        assert!(plan.choose_victims(10, None, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "fault fraction")]
    fn full_kill_is_rejected() {
        let _ = FaultPlan::new(1.0, FaultSelection::Random);
    }

    #[test]
    #[should_panic(expected = "require a best set")]
    fn best_ranked_without_set_panics() {
        let plan = FaultPlan::new(0.2, FaultSelection::BestRanked);
        let mut rng = Rng::seed_from_u64(5);
        let _ = plan.choose_victims(10, None, &mut rng);
    }

    #[test]
    fn churn_event_counting() {
        let plan = ChurnPlan::new(100.0, 50.0);
        assert_eq!(plan.events_within(1000.0), 10);
        assert_eq!(plan.events_within(99.0), 0);
        assert_eq!(plan.events_within(-5.0), 0);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn churn_rejects_zero_period() {
        let _ = ChurnPlan::new(0.0, 10.0);
    }

    #[test]
    fn churn_schedule_rejects_overlapping_and_excluded_victims() {
        // down_ms ≫ period_ms: outages overlap heavily, so without the
        // rejection loop later events would re-silence already-down
        // nodes (a no-op silence + a premature revive).
        let plan = ChurnPlan::new(100.0, 450.0);
        let excluded = [NodeId(0), NodeId(1)];
        let mut rng = Rng::seed_from_u64(7);
        let s = plan.schedule(6, SimTime::ZERO, 2000.0, &excluded, &mut rng);
        assert!(!s.is_empty());
        let mut down_until = [f64::NEG_INFINITY; 6];
        for pair in s.events.chunks(2) {
            let (at_ms, Fault::Silence(node)) = (pair[0].at_ms, pair[0].action) else {
                panic!("outage must open with a silence: {pair:?}");
            };
            assert_eq!(pair[1].action, Fault::Revive(node), "{pair:?}");
            assert_eq!(pair[1].at_ms, at_ms + plan.down_ms, "{pair:?}");
            assert!(
                !excluded.contains(&node),
                "permanent victim churned: {node}"
            );
            assert!(
                down_until[node.index()] <= at_ms,
                "{node} churned at {at_ms} while down until {}",
                down_until[node.index()]
            );
            down_until[node.index()] = at_ms + plan.down_ms;
        }
    }

    #[test]
    fn churn_schedule_skips_events_when_no_victim_is_healthy() {
        // One eligible node, held down across every period: once it is
        // down, later events find no healthy victim and are skipped
        // instead of looping forever.
        let plan = ChurnPlan::new(100.0, 10_000.0);
        let excluded = [NodeId(1)];
        let mut rng = Rng::seed_from_u64(8);
        let s = plan.schedule(2, SimTime::ZERO, 1000.0, &excluded, &mut rng);
        assert_eq!(s.events.len(), 2, "only the first outage can fire");
        assert_eq!(s.events[0].action, Fault::Silence(NodeId(0)));
    }

    #[test]
    fn domain_outage_kills_one_whole_domain() {
        use egm_topology::TransitStubConfig;
        let model = TransitStubConfig::small()
            .with_clients(24)
            .with_seed(5)
            .build();
        let s = super::FaultSchedule::domain_outage(&model, 0, 100.0, 50.0);
        let domains = model.populated_domains().expect("stub model");
        let members = model.domain_clients(domains[0]).expect("clients");
        assert_eq!(s.events.len(), 2 * members.len());
        let down = s.down_at(100.0, 24);
        for (i, &d) in down.iter().enumerate() {
            assert_eq!(d, members.contains(&i), "node {i}");
        }
        // After the revive, everyone is back.
        assert!(!s.down_at(200.0, 24).iter().any(|&d| d));
    }

    #[test]
    fn domain_outage_falls_back_to_a_block_on_dense_models() {
        let model = egm_topology::RoutedModel::uniform_synthetic(16, 1.0, 2.0, 3);
        let s = super::FaultSchedule::domain_outage(&model, 0, 10.0, 10.0);
        let down = s.down_at(10.0, 16);
        assert_eq!(down.iter().filter(|&&d| d).count(), 2, "n/8 block");
    }

    #[test]
    fn flash_crowd_sits_out_until_the_join() {
        let s = super::FaultSchedule::flash_crowd(20, 0.25, 500.0, 9);
        let at_start = s.down_at(0.0, 20);
        assert_eq!(at_start.iter().filter(|&&d| d).count(), 5);
        assert!(!s.down_at(500.0, 20).iter().any(|&d| d), "all joined");
    }

    #[test]
    fn validate_catches_out_of_range_nodes() {
        let s = super::FaultSchedule::flash_crowd(10, 0.3, 100.0, 2);
        s.validate(10);
        let r = std::panic::catch_unwind(|| s.validate(2));
        assert!(r.is_err(), "node index past n must be rejected");
    }

    #[test]
    fn library_scenarios_build_valid_schedules() {
        use egm_topology::TransitStubConfig;
        let model = TransitStubConfig::small()
            .with_clients(24)
            .with_seed(5)
            .build();
        for kind in super::FaultScenarioKind::all() {
            let s = kind.schedule(&model, 1000.0, 3000.0, 17);
            s.validate(24);
            let again = kind.schedule(&model, 1000.0, 3000.0, 17);
            assert_eq!(
                s,
                again,
                "{}: schedule must be seed-deterministic",
                kind.label()
            );
            if kind == super::FaultScenarioKind::Baseline {
                assert!(s.is_empty());
            } else {
                assert!(!s.is_empty(), "{}", kind.label());
            }
        }
    }

    #[test]
    #[should_panic(expected = "re-rank period must be positive")]
    fn rerank_rejects_zero_period() {
        let _ = super::RerankPlan::new(0.0, 3);
    }
}
