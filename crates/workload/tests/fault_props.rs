//! Property suite for the fault machinery: victim selection
//! ([`FaultPlan::choose_victims`]) and churn layout ([`ChurnPlan`]) must
//! hold their invariants over the whole parameter space — distinctness,
//! range bounds, hub-exhaustion fallback into regular nodes only, event
//! counting at window boundaries, and the overlap-aware re-draw that
//! keeps a churn event off nodes that are already down.

use egm_core::BestSet;
use egm_rng::Rng;
use egm_simnet::{Fault, NodeId, SimTime};
use egm_workload::faults::{ChurnPlan, FaultPlan, FaultSelection};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #[test]
    fn victim_count_rounds_caps_and_handles_edges(
        n in 0usize..500,
        fraction in 0.0f64..0.999,
    ) {
        let plan = FaultPlan::new(fraction, FaultSelection::Random);
        let k = plan.victim_count(n);
        // Never the whole population: at least one node survives.
        prop_assert!(n == 0 || k < n);
        // n = 0 and n = 1 kill nobody, whatever the fraction.
        if n <= 1 {
            prop_assert_eq!(k, 0);
        }
        // Within one of the unclamped rounding.
        let ideal = (n as f64 * fraction).round() as usize;
        prop_assert!(k == ideal.min(n.saturating_sub(1)));
    }

    #[test]
    fn random_victims_are_distinct_and_in_range(
        n in 2usize..200,
        fraction in 0.0f64..0.999,
        seed in 0u64..1000,
    ) {
        let plan = FaultPlan::new(fraction, FaultSelection::Random);
        let mut rng = Rng::seed_from_u64(seed);
        let victims = plan.choose_victims(n, None, &mut rng);
        prop_assert_eq!(victims.len(), plan.victim_count(n));
        let set: HashSet<&NodeId> = victims.iter().collect();
        prop_assert_eq!(set.len(), victims.len());
        prop_assert!(victims.iter().all(|v| v.index() < n));
    }

    #[test]
    fn best_ranked_exhaustion_spills_into_regular_nodes_only(
        n in 4usize..120,
        hub_count in 1usize..8,
        fraction in 0.0f64..0.999,
        seed in 0u64..1000,
    ) {
        let hub_count = hub_count.min(n - 1);
        let hubs: Vec<NodeId> = (0..hub_count).map(NodeId).collect();
        let best = BestSet::from_ids(n, &hubs);
        let plan = FaultPlan::new(fraction, FaultSelection::BestRanked);
        let mut rng = Rng::seed_from_u64(seed);
        let victims = plan.choose_victims(n, Some(&best), &mut rng);
        let k = plan.victim_count(n);
        prop_assert_eq!(victims.len(), k);
        let set: HashSet<&NodeId> = victims.iter().collect();
        prop_assert_eq!(set.len(), victims.len());
        if k <= hub_count {
            // Hubs die first, in rank order.
            prop_assert!(victims.iter().all(|v| best.is_best(*v)));
        } else {
            // Every hub dies; the overflow is drawn from regular
            // nodes only (the hub set is exhausted, never re-drawn).
            for hub in &hubs {
                prop_assert!(victims.contains(hub));
            }
            for extra in &victims[hub_count..] {
                prop_assert!(!best.is_best(*extra), "spill re-drew a hub");
            }
        }
    }

    #[test]
    fn churn_event_counting_at_window_boundaries(
        period_ms in 1.0f64..10_000.0,
        k in 0u32..50,
    ) {
        let plan = ChurnPlan::new(period_ms, period_ms);
        // Exactly at a multiple of the period the count is k (floor of
        // an exact product) up to float representation: one of k-1/k.
        let at_boundary = plan.events_within(k as f64 * period_ms);
        prop_assert!(
            at_boundary == k as usize || at_boundary + 1 == k as usize,
            "{at_boundary} events at window {k}×{period_ms}"
        );
        // Just inside the next period the count cannot exceed k.
        let just_inside = plan.events_within(k as f64 * period_ms + 0.5 * period_ms);
        prop_assert!(just_inside >= at_boundary);
        prop_assert!(just_inside <= k as usize + 1);
        // Empty and negative windows count nothing.
        prop_assert_eq!(plan.events_within(0.0), 0);
        prop_assert_eq!(plan.events_within(-1.0), 0);
    }

    #[test]
    fn churn_schedule_never_hits_excluded_or_down_nodes(
        n in 2usize..64,
        period_ms in 10.0f64..500.0,
        down_mult in 0.5f64..8.0,
        windows in 1usize..30,
        excluded_count in 0usize..4,
        seed in 0u64..1000,
    ) {
        let excluded_count = excluded_count.min(n - 1);
        let excluded: Vec<NodeId> = (0..excluded_count).map(NodeId).collect();
        let plan = ChurnPlan::new(period_ms, down_mult * period_ms);
        let mut rng = Rng::seed_from_u64(seed);
        let window_ms = windows as f64 * period_ms;
        let s = plan.schedule(n, SimTime::ZERO, window_ms, &excluded, &mut rng);
        prop_assert!(s.events.len() <= 2 * plan.events_within(window_ms));
        // Outages come as (silence, revive) pairs; a node is never
        // silenced again before its previous revive.
        let mut up_at = vec![f64::NEG_INFINITY; n];
        for pair in s.events.chunks(2) {
            let Fault::Silence(node) = pair[0].action else {
                panic!("outage must open with a silence: {pair:?}");
            };
            prop_assert_eq!(pair[1].action, Fault::Revive(node));
            prop_assert!(node.index() < n);
            prop_assert!(!excluded.contains(&node), "excluded node churned");
            prop_assert!(
                up_at[node.index()] <= pair[0].at_ms,
                "node {:?} re-silenced while down",
                node
            );
            up_at[node.index()] = pair[1].at_ms;
        }
        // Determinism: the same seed lays out the same schedule.
        let mut rng2 = Rng::seed_from_u64(seed);
        prop_assert_eq!(
            s,
            plan.schedule(n, SimTime::ZERO, window_ms, &excluded, &mut rng2)
        );
    }
}
