//! The traced run: spans around every call into the program, phase
//! boundaries from the observe-only progress sink, and micro-drivers that
//! replay inputs taken from the workload's own outcome. Layers are the
//! crates: `topology`, `core`, `membership`, `simnet`, `metrics`,
//! `workload`, `server`.

use crate::api::{self, Engine, FrameSink, RoutedModel, RunOutcome, RunSetup, Scenario};
use crate::stats::{median, SplitMix64};
use crate::trace::Tracer;
use crate::workloads::{
    check_sweep, digest_sweep, peak_rss_mb, process_cpu_s, sweep_grid, Checks, Opts, Report,
    SimPlan,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn per_op_ns(d: Duration, ops: usize) -> f64 {
    d.as_nanos() as f64 / ops.max(1) as f64
}

/// Writes the spans to `<out_dir>/trace-<workload>.json`.
pub fn write_trace(tracer: &Tracer, workload: &str, opts: &Opts) {
    let path = opts.out_dir.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(&opts.out_dir).expect("create the trace directory");
    std::fs::write(&path, tracer.to_json(workload)).expect("write the trace file");
    println!("{workload} note trace written to {}", path.display());
}

/// What the alternating untraced / observed repeats of one scenario gave.
struct Repeats {
    /// Wall seconds of untraced `run_prepared` calls.
    plain_s: Vec<f64>,
    /// Wall seconds of `run_prepared_observed` calls.
    observed_s: Vec<f64>,
    /// Start of an observed run → its last chunk/window frame.
    event_loop_s: Vec<f64>,
    /// Last frame → return: traffic seal and outcome collection.
    collect_s: Vec<f64>,
    /// Start → last frame still inside the protocol warm-up.
    warmup_s: Vec<f64>,
    warmup_events: u64,
    /// CPU seconds of all threads over all repeats.
    cpu_s: f64,
    /// The last observed run's outcome.
    outcome: Option<RunOutcome>,
}

fn repeat_runs(
    tr: &mut Tracer,
    checks: &mut Checks,
    scenario: &Scenario,
    setup: &RunSetup,
    reference: u64,
    budget_s: f64,
) -> Repeats {
    let mut r = Repeats {
        plain_s: Vec::new(),
        observed_s: Vec::new(),
        event_loop_s: Vec::new(),
        collect_s: Vec::new(),
        warmup_s: Vec::new(),
        warmup_events: 0,
        cpu_s: 0.0,
        outcome: None,
    };
    let timed = Instant::now();
    // Three pairs at least: the tracing overhead is a ratio of medians.
    while r.plain_s.len() < 3 || secs(timed.elapsed()) < budget_s {
        tr.set_run(r.plain_s.len() as u32 + 1);

        let cpu = process_cpu_s();
        let start = Instant::now();
        let plain = api::run_prepared(scenario, setup);
        r.plain_s.push(secs(start.elapsed()));
        r.cpu_s += process_cpu_s() - cpu;
        checks.check(
            api::fingerprint(&plain) == reference,
            "untraced repeat reproduces the cold pass",
        );
        drop(plain);

        let sink = Arc::new(FrameSink::default());
        let cpu = process_cpu_s();
        let start = Instant::now();
        let observed = tr.scope("workload.run_prepared_observed", "workload", |_| {
            api::run_prepared_observed(scenario, setup, sink.clone())
        });
        let end = Instant::now();
        r.cpu_s += process_cpu_s() - cpu;
        r.observed_s.push(secs(end - start));
        let run_span = tr.last();
        let frames = sink.take();
        if let Some(last) = frames.last() {
            let event_loop = tr.record("simnet.event_loop", "simnet", start, last.at, run_span);
            tr.record("workload.collect", "workload", last.at, end, run_span);
            r.event_loop_s.push(secs(last.at - start));
            r.collect_s.push(secs(end - last.at));
            let warm = frames.iter().rev().find(|f| f.now_ms <= scenario.warmup_ms);
            if let Some(warm) = warm {
                tr.record(
                    "membership.warmup",
                    "membership",
                    start,
                    warm.at,
                    Some(event_loop),
                );
                r.warmup_s.push(secs(warm.at - start));
                r.warmup_events = warm.events;
            }
        }
        checks.check(
            api::fingerprint(&observed) == reference,
            "observed repeat reproduces the cold pass",
        );
        r.outcome = Some(observed);
    }
    r
}

/// One run of `scenario` on another engine over the same setup.
fn time_on_engine(
    tr: &mut Tracer,
    checks: &mut Checks,
    scenario: &Scenario,
    setup: &RunSetup,
    engine: Engine,
    reference: u64,
) -> f64 {
    let variant = api::pin_engine(scenario.clone(), engine);
    let start = Instant::now();
    let outcome = tr.scope("workload.run_prepared", "workload", |_| {
        api::run_prepared(&variant, setup)
    });
    let wall = secs(start.elapsed());
    checks.check(
        api::fingerprint(&outcome) == reference,
        "every engine width computes the same outcome",
    );
    wall
}

/// Everything measured on one reference scenario: the split cold pass,
/// alternating untraced/observed repeats, runs at the other engine
/// widths, and the micro-drivers. `shared_model` is the sweep's model;
/// without it the scenario's own is built (and timed).
pub fn trace_reference(
    tr: &mut Tracer,
    report: &mut Report,
    scenario: &Scenario,
    shared_model: Option<Arc<RoutedModel>>,
    budget_s: f64,
    opts: &Opts,
) {
    let checks = &mut report.checks;
    let v = &mut report.values;
    let mut rng = SplitMix64::new(opts.seed ^ 0x7ace);

    // Cold pass, split where `prepare` crosses a layer boundary.
    let (model, setup, cold) = tr.scope("bench.cold_pass", "bench", |tr| {
        let model = match shared_model {
            Some(model) => model,
            None => {
                let start = Instant::now();
                let model = tr.scope("topology.build_model", "topology", |_| {
                    api::build_model(scenario)
                });
                v.set("topology.build_s", secs(start.elapsed()));
                model
            }
        };
        let start = Instant::now();
        let setup = tr.scope("workload.prepare", "workload", |_| {
            api::prepare(scenario, Some(model.clone()))
        });
        v.set("workload.prepare_s", secs(start.elapsed()));
        let cold = tr.scope("workload.run_prepared", "workload", |_| {
            api::run_prepared(scenario, &setup)
        });
        (model, setup, cold)
    });
    let reference = api::fingerprint(&cold);
    report.config = api::resolved_config(scenario, &cold);
    drop(cold);

    let r = tr.scope("bench.repeats", "bench", |tr| {
        repeat_runs(tr, checks, scenario, &setup, reference, budget_s)
    });
    let outcome = r.outcome.as_ref().expect("at least three repeats ran");
    let events = outcome.events.max(1) as f64;
    let run_s = median(&r.plain_s);
    let observed_s = median(&r.observed_s);
    v.set("simnet.ns_per_event", run_s / events * 1e9);
    v.set("trace.overhead_frac", observed_s / run_s - 1.0);
    if !r.event_loop_s.is_empty() {
        v.set("simnet.event_loop_s", median(&r.event_loop_s));
        v.set("workload.collect_s", median(&r.collect_s));
    }
    if !r.warmup_s.is_empty() && r.warmup_events > 0 {
        let warmup_s = median(&r.warmup_s);
        v.set(
            "membership.warmup_ns_per_event",
            warmup_s / r.warmup_events as f64 * 1e9,
        );
        v.set("membership.warmup_share", warmup_s / observed_s);
    }
    let runs = (r.plain_s.len() + r.observed_s.len()) as f64;
    let wall: f64 = r.plain_s.iter().chain(&r.observed_s).sum();
    v.set("workload.run_cpu_s", r.cpu_s / runs);
    let threads = match scenario.shards {
        Some(w) if w > 1 => w as f64,
        _ => 1.0,
    };
    v.set(
        "simnet.shard_idle_frac",
        (1.0 - r.cpu_s / (threads * wall)).max(0.0),
    );

    // Behaviour pins and counters: a speed-only change moves none.
    let s = &outcome.scheduler;
    v.set("core.eager_sends", s.eager_sends as f64);
    v.set("core.lazy_advertisements", s.lazy_advertisements as f64);
    v.set("core.requests_sent", s.requests_sent as f64);
    v.set("core.duplicate_payloads", s.duplicate_payloads as f64);
    v.set("core.retired_messages", outcome.retired_messages as f64);
    v.set("core.arena_high_water", outcome.arena_high_water as f64);
    let deliveries = outcome.log.total_deliveries() as f64;
    v.set(
        "core.useful_payload_ratio",
        deliveries / outcome.report.total_payloads.max(1) as f64,
    );
    v.set("metrics.deliveries", deliveries);
    let q = &outcome.queue;
    v.set("simnet.queue_max_len", q.max_len as f64);
    v.set("simnet.queue_pushes", q.pushes as f64);
    v.set("simnet.queue_resizes", q.resizes as f64);
    v.set(
        "simnet.stale_timer_drop_ratio",
        outcome.stale_timer_drops as f64 / q.pops.max(1) as f64,
    );
    let shard = &outcome.shard_stats;
    v.set("simnet.shard_windows", shard.windows as f64);
    v.set("simnet.shard_lane_events", shard.lane_events as f64);
    v.set("simnet.shard_lane_flushes", shard.lane_flushes as f64);
    if let Some(&max) = shard.per_shard_events.iter().max() {
        let mean =
            shard.per_shard_events.iter().sum::<u64>() as f64 / shard.per_shard_events.len() as f64;
        v.set("simnet.shard_imbalance", max as f64 / mean.max(1.0));
    }

    // The same scenario at the other engine widths, same process.
    tr.scope("bench.engine_widths", "bench", |tr| {
        let mut on = |engine: Engine| -> f64 {
            let own = match (scenario.shards, engine) {
                (Some(0), Engine::Sequential) => true,
                (Some(w), Engine::Sharded(x)) => w == x,
                _ => false,
            };
            if own {
                run_s
            } else {
                time_on_engine(tr, checks, scenario, &setup, engine, reference)
            }
        };
        let seq = on(Engine::Sequential);
        let w1 = on(Engine::Sharded(1));
        let w2 = on(Engine::Sharded(2));
        v.set("simnet.shard_speedup", seq / w2);
        v.set("simnet.w1_overhead", w1 / seq);
    });

    // Micro-drivers, fed from this workload's own model and outcome.
    tr.scope("bench.probes", "bench", |tr| {
        let lookups = if opts.quick { 100_000 } else { 2_000_000 };
        let uniform = api::uniform_pairs(&model, lookups, &mut rng);
        let traffic = api::traffic_pairs(outcome, lookups, &mut rng);
        let t = tr.scope("topology.latency_lookup", "topology", |_| {
            api::time_latency_lookups(&model, &uniform)
        });
        v.set("topology.latency_lookup_ns", per_op_ns(t, uniform.len()));
        let t = tr.scope("topology.latency_lookup_traffic", "topology", |_| {
            api::time_latency_lookups(&model, &traffic)
        });
        v.set(
            "topology.latency_lookup_traffic_ns",
            per_op_ns(t, traffic.len()),
        );
        let t = tr.scope("topology.partition_plan", "topology", |_| {
            api::time_partition_plan(scenario, &model)
        });
        v.set("topology.partition_plan_s", secs(t));
        let t = tr.scope("core.rank", "core", |_| api::time_rank(scenario, &model));
        v.set("core.rank_s", secs(t));

        let ops = if opts.quick { 100_000 } else { 1_000_000 };
        let t = tr.scope("core.arena_cycle", "core", |_| {
            api::time_arena_cycles(scenario, outcome.arena_high_water, ops)
        });
        v.set("core.arena_cycle_ns", per_op_ns(t, ops));

        // Hold-model increments: one-way latencies of random pairs, as
        // the simulator schedules deliveries.
        let gaps_us: Vec<u64> = uniform
            .iter()
            .take(65_536)
            .map(|&(a, b)| (model.latency_ms(a as usize, b as usize) * 1000.0) as u64 + 1)
            .collect();
        let t = tr.scope("simnet.queue_hold", "simnet", |_| {
            api::time_queue_hold(scenario.node_count(), q.max_len, &gaps_us, lookups)
        });
        v.set("simnet.queue_hold_ns", per_op_ns(t, lookups));

        // As many records as the run itself logged (capped), so the seal
        // folds this workload's volume.
        let replay = &traffic[..traffic.len().min(outcome.report.total_messages as usize)];
        let (record, seal) = tr.scope("simnet.traffic_replay", "simnet", |_| {
            api::time_traffic_replay(scenario, replay)
        });
        v.set("simnet.traffic_record_ns", per_op_ns(record, replay.len()));
        v.set("simnet.traffic_seal_s", secs(seal));

        let t = tr.scope("metrics.log_query", "metrics", |_| {
            api::time_log_queries(outcome)
        });
        v.set("metrics.log_query_s", secs(t));

        let target = if opts.quick { 100_000 } else { 1_500_000 };
        let (t, relayed) = tr.scope("simnet.relay_sim", "simnet", |_| {
            api::time_relay_sim(scenario, &model, target, &mut rng)
        });
        let relay_ns = per_op_ns(t, relayed as usize);
        v.set("simnet.relay_ns_per_event", relay_ns);
        v.set("core.handler_ns_per_event", run_s / events * 1e9 - relay_ns);
    });

    report.notes.push(format!(
        "traced reference: {} untraced + {} observed runs, untraced median {run_s:.6} s, observed median {observed_s:.6} s",
        r.plain_s.len(),
        r.observed_s.len()
    ));
}

/// The traced run of a simulator workload.
pub fn trace_sim(workload: &str, plan: &SimPlan, opts: &Opts) -> Report {
    let mut tr = Tracer::new();
    let mut report = Report::default();
    trace_reference(
        &mut tr,
        &mut report,
        &plan.scenario,
        None,
        opts.seconds,
        opts,
    );
    report.values.set("trace.spans", tr.len() as f64);
    write_trace(&tr, workload, opts);
    report
}

/// The traced run of the figure sweep: spans around `shared_model` and
/// `run_sweep`, every point once on its own (→ parallel efficiency), and
/// the per-layer probes on the sweep's Ranked best=20 % point.
pub fn trace_sweep(opts: &Opts) -> Report {
    let (scale, scenarios) = sweep_grid(opts);
    let mut tr = Tracer::new();
    let mut report = Report::default();

    let start = Instant::now();
    let model = tr.scope("topology.shared_model", "topology", |_| {
        api::shared_model(&scale)
    });
    report.values.set("topology.build_s", secs(start.elapsed()));

    let cold = tr.scope("workload.run_sweep", "workload", |_| {
        api::run_sweep(scenarios.clone(), model.clone())
    });
    let reference = digest_sweep(&cold);
    check_sweep(&mut report.checks, &scenarios, &cold);
    drop(cold);

    let mut sweep_s = Vec::new();
    let timed = Instant::now();
    while sweep_s.len() < 2 || secs(timed.elapsed()) < opts.seconds / 2.0 {
        tr.set_run(sweep_s.len() as u32 + 1);
        let start = Instant::now();
        let outcomes = tr.scope("workload.run_sweep", "workload", |_| {
            api::run_sweep(scenarios.clone(), model.clone())
        });
        sweep_s.push(secs(start.elapsed()));
        report.checks.check(
            digest_sweep(&outcomes).fingerprints == reference.fingerprints,
            "timed sweep reproduces the cold sweep",
        );
    }

    // Every point on its own: what the sweep's two threads share out.
    let solo_s: f64 = tr.scope("bench.solo_points", "bench", |tr| {
        scenarios
            .iter()
            .zip(&reference.fingerprints)
            .map(|(scenario, &fingerprint)| {
                let setup = tr.scope("workload.prepare", "workload", |_| {
                    api::prepare(scenario, Some(model.clone()))
                });
                let start = Instant::now();
                let outcome = tr.scope("workload.run_prepared", "workload", |_| {
                    api::run_prepared(scenario, &setup)
                });
                let wall = secs(start.elapsed());
                report.checks.check(
                    api::fingerprint(&outcome) == fingerprint,
                    "solo point equals its sweep outcome",
                );
                wall
            })
            .sum()
    });

    // The Ranked best=20 % point of the first seed carries the probes.
    let point = &scenarios[13];
    trace_reference(
        &mut tr,
        &mut report,
        point,
        Some(model),
        opts.seconds / 2.0,
        opts,
    );
    report.values.set(
        "workload.sweep_parallel_eff",
        solo_s / (2.0 * median(&sweep_s)),
    );
    report.notes.push(format!(
        "peak RSS of the traced run {:.1} MB",
        peak_rss_mb("self")
    ));
    report.values.set("trace.spans", tr.len() as f64);
    write_trace(&tr, "figure_sweep_100", opts);
    report
}
