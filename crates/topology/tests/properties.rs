//! Property-based tests of the topology generator.

use egm_topology::{PlanBalance, RoutedModel, TransitStubConfig};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Small generated models are always fully connected with symmetric,
    /// finite latencies and consistent hop counts.
    #[test]
    fn generated_models_are_well_formed(seed in 0u64..200, clients in 2usize..20) {
        let model = TransitStubConfig::small().with_clients(clients).with_seed(seed).build();
        prop_assert_eq!(model.client_count(), clients);
        for a in 0..clients {
            prop_assert_eq!(model.latency_ms(a, a), 0.0);
            prop_assert_eq!(model.hops(a, a), 0);
            for b in (a + 1)..clients {
                let l = model.latency_ms(a, b);
                prop_assert!(l.is_finite() && l > 0.0);
                prop_assert_eq!(l, model.latency_ms(b, a));
                prop_assert_eq!(model.hops(a, b), model.hops(b, a));
                prop_assert!(model.hops(a, b) >= 1, "distinct stubs need a router hop");
            }
        }
    }

    /// Model statistics are internally consistent.
    #[test]
    fn stats_are_consistent(seed in 0u64..100) {
        let model = TransitStubConfig::small().with_clients(10).with_seed(seed).build();
        let s = model.stats();
        prop_assert_eq!(s.pair_count, 45);
        prop_assert!(s.min_latency_ms <= s.mean_latency_ms);
        prop_assert!(s.mean_latency_ms <= s.max_latency_ms);
        prop_assert!((0.0..=1.0).contains(&s.frac_latency_39_60));
        prop_assert!((0.0..=1.0).contains(&s.frac_hops_5_6));
    }

    /// Synthetic models respect their declared latency ranges.
    #[test]
    fn synthetic_ranges_hold(seed in 0u64..200, n in 2usize..30) {
        let m = RoutedModel::uniform_synthetic(n, 10.0, 20.0, seed);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    prop_assert!((10.0..20.0).contains(&m.latency_ms(a, b)));
                }
            }
        }
    }

    /// Distance and coordinates agree for planar models.
    #[test]
    fn planar_distance_consistency(seed in 0u64..100, n in 2usize..20) {
        let m = RoutedModel::planar_synthetic(n, 50.0, 2.0, seed);
        for a in 0..n {
            for b in 0..n {
                let d = m.coord(a).distance(m.coord(b));
                prop_assert!((m.distance(a, b) - d).abs() < 1e-12);
            }
        }
    }

    /// The compact two-level routed layout answers exactly like the dense
    /// all-pairs reference: same hop counts, latencies equal up to float
    /// summation order (the segments are summed in a different order than
    /// a full-path Dijkstra accumulates).
    #[test]
    fn two_level_equals_dense_reference(seed in 0u64..64, clients in 2usize..27) {
        let config = TransitStubConfig::small().with_clients(clients).with_seed(seed);
        let compact = config.build();
        let dense = config.build_dense();
        prop_assert_eq!(compact.client_count(), dense.client_count());
        for a in 0..clients {
            for b in 0..clients {
                let dl = dense.latency_ms(a, b);
                let cl = compact.latency_ms(a, b);
                prop_assert!(
                    (dl - cl).abs() < 1e-9,
                    "latency mismatch at ({}, {}): dense {} vs two-level {}",
                    a, b, dl, cl
                );
                prop_assert_eq!(dense.hops(a, b), compact.hops(a, b));
            }
        }
        // And the compact layout never materialized a client matrix.
        prop_assert_eq!(compact.memory_shape().dense_cells, 0);
    }

    /// Every partition plan over a scaled transit-stub model is a total,
    /// disjoint, **domain-aligned** cover with non-empty shards and
    /// positive predicted weights; it is deterministic, the same cut
    /// under both balance modes, and keeps the lookahead at or above half
    /// the coarsest feasible floor.
    #[test]
    fn partition_plans_are_domain_aligned_covers(
        n in 50usize..500,
        seed in 0u64..16,
        w in 2usize..9,
    ) {
        let model = TransitStubConfig::scaled(n).with_seed(seed).build();
        let rate = PlanBalance::Rate { fanout: 11, view_degree: 15 };
        // The planner declines (falls back to contiguous at the sim
        // layer) when the topology has fewer populated units than
        // shards; a returned plan must uphold every invariant.
        let by_nodes = model.partition_plan(w, PlanBalance::Nodes);
        let by_rate = model.partition_plan(w, rate);
        prop_assert_eq!(by_nodes.is_some(), by_rate.is_some());
        if let (Some(plan), Some(by_rate)) = (by_nodes, by_rate) {
            let assign = plan.assignment();
            prop_assert_eq!(assign.len(), n);
            prop_assert_eq!(plan.shard_count(), w);
            let mut population = vec![0usize; w];
            for &s in assign {
                prop_assert!((s as usize) < w, "assignment within range");
                population[s as usize] += 1;
            }
            prop_assert!(population.iter().all(|&p| p > 0), "no empty shard");
            // Domain alignment: no stub domain is split across shards.
            let mut domain_shard: HashMap<u32, u32> = HashMap::new();
            for (c, &a) in assign.iter().enumerate() {
                let d = model.client_domain(c).expect("routed client has a domain");
                let s = *domain_shard.entry(d).or_insert(a);
                prop_assert!(s == a, "stub domain split across shards");
            }
            // Weights are the populations in the balance unit, so the two
            // modes differ by a constant and plan the same cut.
            prop_assert_eq!(plan.shard_weights().len(), w);
            let per_client = 11.0 * 15.0 / n as f64;
            for (s, &clients) in population.iter().enumerate() {
                prop_assert_eq!(plan.shard_weights()[s], clients as f64);
                let expect = per_client * clients as f64;
                prop_assert!((by_rate.shard_weights()[s] - expect).abs() <= 1e-9 * expect);
            }
            prop_assert_eq!(by_rate.assignment(), assign);
            prop_assert_eq!(&model.partition_plan(w, PlanBalance::Nodes), &Some(plan.clone()));
            // Shards are at least the plan's floor apart on the core, and
            // the floor was lowered to no less than half the coarsest one.
            let lookahead = model
                .min_cross_partition_latency_ms(assign)
                .expect("several shards");
            prop_assert!(plan.floor_ms() <= plan.coarsest_floor_ms());
            prop_assert!(plan.floor_ms() >= 0.5 * plan.coarsest_floor_ms());
            prop_assert!(
                lookahead >= plan.floor_ms(),
                "lookahead {} ms under the plan's floor {} ms",
                lookahead,
                plan.floor_ms()
            );
        }
    }

    /// The equivalence also holds at the default (paper-sized) topology
    /// with up to 200 clients — the regime the dense reference is still
    /// comfortable in.
    #[test]
    fn two_level_equals_dense_at_paper_scale(seed in 0u64..4) {
        let config = TransitStubConfig::default().with_clients(200).with_seed(seed);
        let compact = config.build();
        let dense = config.build_dense();
        for a in 0..200 {
            for b in (a + 1)..200 {
                let dl = dense.latency_ms(a, b);
                let cl = compact.latency_ms(a, b);
                prop_assert!(
                    (dl - cl).abs() < 1e-9,
                    "latency mismatch at ({}, {}): dense {} vs two-level {}",
                    a, b, dl, cl
                );
                prop_assert_eq!(dense.hops(a, b), compact.hops(a, b));
            }
        }
    }
}

/// The scale presets' network at scenario seed 42 — the model the
/// benchmark pins: `egm_workload` seeds the topology with the scenario
/// seed xor its `TOPOLOGY_SEED_SALT` (0x7090).
fn preset_model(n: usize) -> RoutedModel {
    TransitStubConfig::scaled(n).with_seed(42 ^ 0x7090).build()
}

fn populations(plan: &egm_topology::PartitionPlan) -> Vec<usize> {
    let mut population = vec![0usize; plan.shard_count()];
    for &s in plan.assignment() {
        population[s as usize] += 1;
    }
    population
}

/// Pins that the planner actually engages on the scale-axis presets —
/// the property above skips declined plans, so this guards against the
/// fallback silently becoming the only behaviour — and that two shards
/// come out balanced at every scale.
#[test]
fn scale_axis_models_always_yield_plans() {
    let model = preset_model(1000);
    for w in [2, 4, 8] {
        for balance in [
            PlanBalance::Nodes,
            PlanBalance::Rate {
                fanout: 11,
                view_degree: 15,
            },
        ] {
            let plan = model
                .partition_plan(w, balance)
                .expect("scaled(1000) must be plannable");
            assert_eq!(plan.shard_count(), w);
        }
    }
    for n in [1000, 10_000, 100_000] {
        let plan = preset_model(n)
            .partition_plan(2, PlanBalance::Nodes)
            .expect("plannable");
        let heaviest = *populations(&plan).iter().max().expect("two shards");
        assert!(
            heaviest as f64 <= 1.05 * n as f64 / 2.0,
            "W=2 at {n} nodes: heaviest shard {heaviest}"
        );
        assert!(
            plan.floor_ms() < plan.coarsest_floor_ms(),
            "traded for balance"
        );
    }
}

/// Ten near-equal transit domains cannot balance four or eight shards at
/// any floor worth having, so those widths keep the coarsest floor: the
/// heaviest shard and lookahead the stop-at-W agglomeration gave (the
/// nightly window-count gate rests on the lookahead).
#[test]
fn wide_plans_at_10k_keep_their_coarse_floor() {
    let model = preset_model(10_000);
    for (w, heaviest, lookahead_ms) in [(4, 2998, 27.7467), (8, 2001, 13.8478)] {
        let plan = model
            .partition_plan(w, PlanBalance::Nodes)
            .expect("plannable");
        assert_eq!(populations(&plan).iter().max(), Some(&heaviest), "W={w}");
        assert_eq!(plan.floor_ms(), plan.coarsest_floor_ms(), "W={w}");
        let lookahead = model
            .min_cross_partition_latency_ms(plan.assignment())
            .expect("several shards");
        assert!(
            (lookahead - lookahead_ms).abs() < 1e-3,
            "W={w}: lookahead {lookahead} ms"
        );
    }
}
