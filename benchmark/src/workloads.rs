//! The six workloads and the untraced measurement protocol that yields
//! the end-to-end metrics.

use crate::api::{self, Engine, Preset, RoutedModel, RunOutcome, Scenario};
use crate::metrics::Values;
use crate::stats::{self, SplitMix64};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizes: 1k nodes, 5 messages, 2 repeats, 50 server jobs.
    pub quick: bool,
    /// Where the trace file goes (inside the build directory).
    pub out_dir: PathBuf,
}

/// Operations attempted and failed; every output check is one operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub values: Values,
    pub checks: Checks,
    /// The configuration that actually took effect.
    pub config: Vec<(&'static str, String)>,
    /// Human-readable detail lines (sample counts, quartiles).
    pub notes: Vec<String>,
}

/// One simulator scenario measured by the common protocol.
#[derive(Debug, Clone)]
pub struct SimPlan {
    pub scenario: Scenario,
    /// The same scenario on the sequential engine, when `scenario` itself
    /// is sharded: both must compute the same outcome.
    pub cross_check: Option<Scenario>,
    /// Cold `prepare` samples behind `setup_s` (the cold pass's included).
    pub setup_repeats: usize,
    /// Timed runs made even when `--seconds` is already used up.
    pub min_runs: usize,
    pub min_delivery: f64,
}

pub fn sim_plan(workload: &str, opts: &Opts) -> SimPlan {
    let q = opts.quick;
    let scale = if q { Preset::N1k } else { Preset::N10k };
    let scale_messages = if q { 5 } else { 30 };
    let repeats = if q { 2 } else { 7 };
    let plan = |scenario, cross_check| SimPlan {
        scenario,
        cross_check,
        setup_repeats: repeats,
        min_runs: if q { 2 } else { 3 },
        min_delivery: 0.90,
    };
    match workload {
        "scale_10k_seq" => plan(
            api::scale_scenario(scale, scale_messages, opts.seed, Engine::Sequential),
            None,
        ),
        "scale_10k_w2" => {
            let sharded = api::scale_scenario(scale, scale_messages, opts.seed, Engine::Sharded(2));
            let twin = api::pin_engine(sharded.clone(), Engine::Sequential);
            plan(sharded, Some(twin))
        }
        "sustained_1k_poisson" => {
            let messages = if q { 20 } else { 400 };
            let base = api::scale_scenario(Preset::N1k, messages, opts.seed, Engine::Sequential);
            SimPlan {
                // 13 ms each: cheap enough for a steadier median.
                setup_repeats: if q { 2 } else { 15 },
                ..plan(api::with_poisson(base, 40.0), None)
            }
        }
        "setup_100k" => {
            let big = if q { Preset::N1k } else { Preset::N100k };
            SimPlan {
                setup_repeats: if q { 2 } else { 3 },
                min_runs: 2,
                // One message through 100k nodes reaches ~83 % within the
                // preset's drain; the floor only catches a dead run.
                min_delivery: 0.5,
                ..plan(
                    api::scale_scenario(big, 1, opts.seed, Engine::Sequential),
                    None,
                )
            }
        }
        other => panic!("{other} is not a simulator workload"),
    }
}

/// The figure sweep's inputs: 16 strategies × 2 seeds.
pub fn sweep_grid(opts: &Opts) -> (api::Scale, Vec<Scenario>) {
    let second = SplitMix64::new(opts.seed).next_u64() >> 32;
    let (nodes, messages) = if opts.quick { (50, 5) } else { (100, 400) };
    api::figure_grid(nodes, messages, &[opts.seed, second])
}

// ---- Process readings ----------------------------------------------------

fn status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of `pid` (`"self"` for this process), MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    status_mb(pid, "VmHWM:").expect("VmHWM in /proc/<pid>/status")
}

/// Current resident set (`VmRSS`) of `pid`, MB.
pub fn rss_mb(pid: &str) -> f64 {
    status_mb(pid, "VmRSS:").expect("VmRSS in /proc/<pid>/status")
}

/// CPU seconds this process has used on all its threads, exited ones
/// included (`utime + stime` of `/proc/self/stat`, 10 ms ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').expect("comm field").1;
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0)
        + fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    ticks / 100.0
}

// ---- Shared pieces -------------------------------------------------------

/// `run_s` (the median) and a note with the sample's shape.
pub fn set_run_times(report: &mut Report, run_s: &[f64]) {
    let (q1, q3) = stats::quartiles_exclusive(run_s);
    let median = stats::median(run_s);
    let max = run_s.iter().copied().fold(f64::MIN, f64::max);
    report.values.set("run_s", median);
    let highest = match stats::tail_percentile(run_s) {
        Some((p, v)) => format!("p{} {v:.6}", p * 100.0),
        None => "no percentile has 10 samples beyond it".to_string(),
    };
    report.notes.push(format!(
        "run_s n={} q1={q1:.6} median={median:.6} q3={q3:.6} max={max:.6} ({highest})",
        run_s.len()
    ));
}

fn set_setup_times(report: &mut Report, setup_s: &[f64]) {
    let (q1, q3) = stats::quartiles_exclusive(setup_s);
    let median = stats::median(setup_s);
    report.values.set("setup_s", median);
    report.notes.push(format!(
        "setup_s n={} q1={q1:.6} median={median:.6} q3={q3:.6}",
        setup_s.len()
    ));
}

fn check_outcome(checks: &mut Checks, plan: &SimPlan, outcome: &RunOutcome) {
    checks.check(
        api::every_message_multicast(&plan.scenario, outcome),
        "every message multicast and delivered somewhere",
    );
    checks.check(
        outcome.report.mean_delivery_fraction >= plan.min_delivery,
        &format!(
            "delivery {:.4} >= {:.2}",
            outcome.report.mean_delivery_fraction, plan.min_delivery
        ),
    );
}

// ---- Simulator workloads -------------------------------------------------

/// Cold pass (→ peak RSS, reference fingerprint), repeated cold
/// `prepare`s (→ `setup_s`), then timed `run_prepared` repeats on one
/// shared setup for `--seconds` (→ `run_s`), tracing off, no sink.
pub fn measure_sim(plan: &SimPlan, opts: &Opts) -> Report {
    let scenario = &plan.scenario;
    let mut report = Report::default();
    let mut setup_s = Vec::new();

    let cold_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let setup = api::prepare(scenario, Some(api::build_model(scenario)));
        setup_s.push(start.elapsed().as_secs_f64());
        setup
    };
    let setup = cold_setup(&mut setup_s);
    let cold = api::run_prepared(scenario, &setup);
    let peak = peak_rss_mb("self");
    let reference = api::fingerprint(&cold);
    check_outcome(&mut report.checks, plan, &cold);
    if let Some(other) = &plan.cross_check {
        let twin = api::run_prepared(other, &setup);
        report.checks.check(
            api::fingerprint(&twin) == reference,
            "sharded outcome equals the sequential engine's",
        );
    }
    report.config = api::resolved_config(scenario, &cold);
    report.notes.push(format!(
        "events {} fingerprint {reference:016x} simulated latency p50 {} p99 {} p99.9 {} sim_ms",
        cold.events,
        cold.latency.p50_ms(),
        cold.latency.p99_ms(),
        cold.latency.p999_ms()
    ));

    while setup_s.len() < plan.setup_repeats {
        drop(cold_setup(&mut setup_s));
    }

    let mut run_s = Vec::new();
    let timed = Instant::now();
    while run_s.len() < plan.min_runs || timed.elapsed().as_secs_f64() < opts.seconds {
        let start = Instant::now();
        let outcome = api::run_prepared(scenario, &setup);
        run_s.push(start.elapsed().as_secs_f64());
        report.checks.check(
            api::fingerprint(&outcome) == reference,
            "timed repeat reproduces the cold pass",
        );
    }

    set_setup_times(&mut report, &setup_s);
    set_run_times(&mut report, &run_s);
    let run = report.values.get("run_s").expect("just set");
    let v = &mut report.values;
    v.set("events_per_s", cold.events as f64 / run);
    v.set("scenarios_per_s", 1.0 / run);
    v.set("peak_rss_mb", peak);
    v.set("sim_delivery_frac", cold.report.mean_delivery_fraction);
    v.set("sim_p99_ms", cold.latency.p99_ms());
    v.set("sim_top5_link_share", cold.report.top5_link_share);
    report
}

// ---- Figure sweep --------------------------------------------------------

/// Simulated results of one sweep, reduced to the pinned numbers.
pub struct SweepDigest {
    pub fingerprints: Vec<u64>,
    pub events: u64,
    pub min_delivery: f64,
    pub mean_p99_ms: f64,
    pub max_top5: f64,
}

pub fn digest_sweep(outcomes: &[RunOutcome]) -> SweepDigest {
    SweepDigest {
        fingerprints: outcomes.iter().map(api::fingerprint).collect(),
        events: outcomes.iter().map(|o| o.events).sum(),
        min_delivery: outcomes
            .iter()
            .map(|o| o.report.mean_delivery_fraction)
            .fold(f64::MAX, f64::min),
        mean_p99_ms: outcomes.iter().map(|o| o.latency.p99_ms()).sum::<f64>()
            / outcomes.len().max(1) as f64,
        max_top5: outcomes
            .iter()
            .map(|o| o.report.top5_link_share)
            .fold(0.0, f64::max),
    }
}

pub fn check_sweep(checks: &mut Checks, scenarios: &[Scenario], outcomes: &[RunOutcome]) {
    for (scenario, outcome) in scenarios.iter().zip(outcomes) {
        checks.check(
            api::every_message_multicast(scenario, outcome),
            "every sweep message multicast and delivered somewhere",
        );
    }
}

/// `shared_model` repeats (→ `setup_s`), one cold `run_sweep` (→ peak
/// RSS, reference fingerprints), then timed `run_sweep` calls.
pub fn measure_sweep(opts: &Opts) -> Report {
    let (scale, scenarios) = sweep_grid(opts);
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut model: Option<Arc<RoutedModel>> = None;
    // A few milliseconds each, so many repeats are cheap.
    for _ in 0..if opts.quick { 2 } else { 101 } {
        let start = Instant::now();
        let built = api::shared_model(&scale);
        setup_s.push(start.elapsed().as_secs_f64());
        model.get_or_insert(built);
    }
    let model = model.expect("at least one set-up repeat");

    let cold = api::run_sweep(scenarios.clone(), model.clone());
    let peak = peak_rss_mb("self");
    let reference = digest_sweep(&cold);
    check_sweep(&mut report.checks, &scenarios, &cold);
    report.checks.check(
        reference.min_delivery >= 0.90,
        &format!("sweep delivery {:.4} >= 0.90", reference.min_delivery),
    );
    report.config = api::resolved_config(&scenarios[0], &cold[0]);
    report
        .config
        .push(("sweep_points", scenarios.len().to_string()));
    report.notes.push(format!(
        "events {} over {} points",
        reference.events,
        cold.len()
    ));
    drop(cold);

    let mut run_s = Vec::new();
    let timed = Instant::now();
    while run_s.len() < 2 || timed.elapsed().as_secs_f64() < opts.seconds {
        let start = Instant::now();
        let outcomes = api::run_sweep(scenarios.clone(), model.clone());
        run_s.push(start.elapsed().as_secs_f64());
        report.checks.check(
            digest_sweep(&outcomes).fingerprints == reference.fingerprints,
            "timed sweep reproduces the cold sweep",
        );
    }

    set_setup_times(&mut report, &setup_s);
    set_run_times(&mut report, &run_s);
    let run = report.values.get("run_s").expect("just set");
    let v = &mut report.values;
    v.set("events_per_s", reference.events as f64 / run);
    v.set("scenarios_per_s", scenarios.len() as f64 / run);
    v.set("peak_rss_mb", peak);
    v.set("sim_delivery_frac", reference.min_delivery);
    v.set("sim_p99_ms", reference.mean_p99_ms);
    v.set("sim_top5_link_share", reference.max_top5);
    report
}
