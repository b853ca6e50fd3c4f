//! Property-based tests over the full stack's invariants.

use egm_core::arena::MsgArena;
use egm_core::gossip::GossipLayer;
use egm_core::scheduler::{PayloadScheduler, RequestAction};
use egm_core::strategy::StrategyCtx;
use egm_core::{MsgId, Payload, ProtocolConfig, StrategySpec};
use egm_membership::{bootstrap_views, PartialView, ViewConfig};
use egm_metrics::summary::quantile;
use egm_metrics::{link, Summary};
use egm_rng::Rng;
use egm_simnet::{NodeId, SimDuration};
use egm_topology::TransitStubConfig;
use proptest::prelude::*;

proptest! {
    /// Generated topologies are connected: every pairwise latency is
    /// finite and symmetric, with a floor of two access links.
    #[test]
    fn topology_is_connected_and_symmetric(seed in 0u64..50, clients in 2usize..12) {
        let model = TransitStubConfig::small().with_clients(clients).with_seed(seed).build();
        for a in 0..clients {
            for b in 0..clients {
                let l = model.latency_ms(a, b);
                prop_assert!(l.is_finite());
                prop_assert_eq!(l, model.latency_ms(b, a));
                if a != b {
                    prop_assert!(l >= 2.0);
                }
            }
        }
    }

    /// The summary CI always contains the mean, and min ≤ mean ≤ max.
    #[test]
    fn summary_invariants(samples in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let s = Summary::from_samples(&samples);
        prop_assert!(s.ci95_contains(s.mean));
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_are_monotone(samples in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = quantile(&samples, i as f64 / 20.0);
            prop_assert!(q >= last - 1e-12);
            last = q;
        }
        prop_assert_eq!(quantile(&samples, 0.0), samples.iter().copied().fold(f64::INFINITY, f64::min));
    }

    /// Top-fraction share is within [fraction-ish, 1] for non-zero
    /// traffic and the Gini coefficient stays in [0, 1).
    #[test]
    fn link_measures_are_bounded(counts in proptest::collection::vec(0u64..10_000, 1..300)) {
        let total: u64 = counts.iter().sum();
        let share = link::top_fraction_share(&counts, 0.05);
        let g = link::gini(&counts);
        if total == 0 {
            prop_assert_eq!(share, 0.0);
            prop_assert_eq!(g, 0.0);
        } else {
            prop_assert!(share > 0.0 && share <= 1.0);
            prop_assert!((0.0..1.0).contains(&g));
        }
    }

    /// PeerSample(f) never returns the owner, duplicates, or more than f
    /// peers, for any view composition.
    #[test]
    fn peer_sample_invariants(
        seed in 0u64..1000,
        n in 2usize..40,
        f in 1usize..20,
        capacity in 1usize..20,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let views = bootstrap_views(n, &ViewConfig { capacity, shuffle_size: 3 }, &mut rng);
        for (i, view) in views.iter().enumerate() {
            let sample: Vec<NodeId> = view.sample(&mut rng, f).iter().collect();
            prop_assert!(sample.len() <= f);
            prop_assert!(!sample.contains(&NodeId(i)));
            let mut dedup = sample.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), sample.len());
        }
    }

    /// Shuffle exchanges preserve view invariants under arbitrary
    /// interleavings.
    #[test]
    fn shuffle_preserves_view_invariants(
        seed in 0u64..500,
        rounds in 1usize..40,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let config = ViewConfig { capacity: 6, shuffle_size: 3 };
        let mut views = bootstrap_views(8, &config, &mut rng);
        for _ in 0..rounds {
            let initiator = rng.range_usize(0, 8);
            let started = {
                let view = &mut views[initiator];
                view.start_shuffle(&mut rng)
            };
            if let Some((partner, req)) = started {
                let reply = views[partner.index()].handle_shuffle(
                    &mut rng,
                    NodeId(initiator),
                    req,
                );
                if let Some((back, msg)) = reply {
                    views[back.index()].handle_shuffle(&mut rng, partner, msg);
                }
            }
            for (i, v) in views.iter().enumerate() {
                prop_assert!(v.len() <= 6);
                prop_assert!(!v.contains(NodeId(i)));
            }
        }
    }

    /// Gossip layer: no duplicate deliveries, fanout bounds, and round
    /// monotonicity for arbitrary receive sequences.
    #[test]
    fn gossip_never_delivers_twice(
        seed in 0u64..500,
        events in proptest::collection::vec((0u128..20, 0u32..8), 1..100),
    ) {
        let config = ProtocolConfig::default().with_fanout(4).with_rounds(5);
        let gossip = GossipLayer::new(&config);
        let mut arena = MsgArena::new(config.known_capacity, config.cache_capacity, false);
        let mut rng = Rng::seed_from_u64(seed);
        let mut view = PartialView::new(NodeId(0), ViewConfig { capacity: 8, shuffle_size: 3 });
        for i in 1..=8 {
            view.insert(NodeId(i));
        }
        let mut delivered = std::collections::HashSet::new();
        for (raw, round) in events {
            let id = MsgId::from_raw(raw);
            let slot = arena.intern(id);
            let step =
                gossip.on_l_receive(&mut rng, &view, &mut arena, slot, id, Payload { seq: 0, bytes: 1 }, round);
            if let Some(step) = step {
                prop_assert!(delivered.insert(id), "duplicate delivery of {id}");
                prop_assert!(step.targets.len() <= 4);
                prop_assert_eq!(step.relay_round(), round + 1);
                if round >= 5 {
                    prop_assert!(step.targets.is_empty());
                }
            } else {
                prop_assert!(delivered.contains(&id));
            }
        }
    }

    /// Scheduler: a received payload is never requested afterwards; an
    /// advertised-but-missing payload is requested when its timer fires.
    #[test]
    fn scheduler_never_requests_received_payload(
        seed in 0u64..500,
        script in proptest::collection::vec((0u128..10, 0usize..3, prop::bool::ANY), 1..80),
    ) {
        let config = ProtocolConfig::default();
        let mut sched = PayloadScheduler::new(&config);
        let mut arena = MsgArena::new(config.known_capacity, config.cache_capacity, false);
        let strategy = StrategySpec::Flat { pi: 0.0 }.build(None);
        let mut rng = Rng::seed_from_u64(seed);
        let monitor = egm_core::monitor::NullMonitor;
        for (raw, source, receive_payload) in script {
            let id = MsgId::from_raw(raw);
            let slot = arena.intern(id);
            if receive_payload {
                sched.on_msg(&mut arena, slot, Payload { seq: 0, bytes: 1 }, 1);
            } else {
                sched.on_ihave(&strategy, &mut arena, slot, NodeId(source));
            }
            // Fire the request timer: if the payload was received the
            // action must be Resolved, never a request.
            let ctx = StrategyCtx { me: NodeId(99), rng: &mut rng, monitor: &monitor };
            let action = sched.on_request_timer(&ctx, &strategy, &mut arena, slot);
            if arena.has_received(&id) {
                prop_assert_eq!(action, RequestAction::Resolved);
            } else {
                // The message is missing: a source must be asked.
                prop_assert!(matches!(action, RequestAction::Request(_, _)));
            }
        }
    }

    /// SimDuration arithmetic is consistent for arbitrary values.
    #[test]
    fn duration_arithmetic(ms_a in 0.0f64..1e6, ms_b in 0.0f64..1e6, k in 0.0f64..10.0) {
        let a = SimDuration::from_ms(ms_a);
        let b = SimDuration::from_ms(ms_b);
        let sum = a + b;
        prop_assert!((sum.as_ms() - (a.as_ms() + b.as_ms())).abs() < 1e-6);
        let scaled = a.mul_f64(k);
        prop_assert!((scaled.as_ms() - a.as_ms() * k).abs() < 0.001);
    }
}
