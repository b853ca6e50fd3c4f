//! Background jobs: submission parsing, the bounded worker pool, and
//! the per-job event log the SSE endpoint streams from.
//!
//! A job is a short list of [`Scenario`]s (one, or a sweep over one
//! strategy parameter) validated against the same builders the runner
//! uses — `ScalePreset::scenario`, `Scenario::smoke_test` /
//! `paper_default`, `with_strategy`, `with_shards` — so anything the
//! server accepts is exactly something `egm_workload` can run. Workers
//! execute each run via [`runner::prepare`] / [`runner::run_prepared_observed`]
//! with a sink that appends pre-rendered SSE frames to the job's event
//! log; readers replay the log from any index and block on a condvar
//! for the tail ([`Job::wait_for_events`]), which an append signals only
//! while a reader waits.

use crate::json::Json;
use egm_core::StrategySpec;
use egm_simnet::{ProgressEvent, ProgressSink};
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::{runner, Scenario};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Upper bound on events kept per job. Window events from very long
/// runs past the cap are dropped (terminal and summary events are
/// always appended), so one 100k-node job cannot grow without bound.
pub const MAX_JOB_EVENTS: usize = 65_536;

/// Hard cap on runs per submitted job (sweep width).
pub const MAX_RUNS_PER_JOB: usize = 32;

/// One validated run of a job: a scenario plus its display label.
#[derive(Debug, Clone)]
pub struct PlannedRun {
    /// Display label (strategy + sweep value).
    pub label: String,
    /// The validated scenario.
    pub scenario: Scenario,
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing its runs.
    Running,
    /// All runs finished.
    Done,
    /// A run panicked or the job was otherwise aborted.
    Failed,
}

impl JobStatus {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }

    /// Whether no further events can be appended.
    pub fn terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed)
    }
}

/// Mutable job state behind the [`Job`] mutex.
#[derive(Debug)]
pub struct JobInner {
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Pre-rendered SSE frames (`event: ...\ndata: ...\n\n`).
    pub events: Vec<String>,
    /// Window/chunk events dropped past [`MAX_JOB_EVENTS`].
    pub dropped_events: u64,
    /// Per-run result summaries, in run order.
    pub results: Vec<Json>,
    /// Populated when `status == Failed`.
    pub error: Option<String>,
    /// Readers blocked in [`Job::wait_for_events`]; an append skips the
    /// wakeup when there are none. Both sides hold the job mutex, so no
    /// wakeup can be lost between the count and the wait.
    readers: usize,
}

/// One submitted job: id, validated runs, and the event log.
#[derive(Debug)]
pub struct Job {
    /// Job id (dense, assigned at submission).
    pub id: u64,
    /// The validated runs, in execution order.
    pub runs: Vec<PlannedRun>,
    /// Mutable state; lock order is leaf (never held across a run).
    pub inner: Mutex<JobInner>,
    /// Signalled on an event append or status change while readers wait.
    cond: Condvar,
}

impl Job {
    fn new(id: u64, runs: Vec<PlannedRun>) -> Job {
        Job {
            id,
            runs,
            inner: Mutex::new(JobInner {
                status: JobStatus::Queued,
                events: Vec::new(),
                dropped_events: 0,
                results: Vec::new(),
                error: None,
                readers: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Appends one SSE frame (unless it is a droppable kind and the log
    /// is full) and wakes streaming readers.
    pub fn push_event(&self, kind: &str, data: &Json, droppable: bool) {
        let mut inner = self.inner.lock().unwrap();
        if droppable && inner.events.len() >= MAX_JOB_EVENTS {
            inner.dropped_events += 1;
            return;
        }
        let frame = format!("event: {kind}\ndata: {}\n\n", data.render());
        self.append(inner, frame);
    }

    /// Appends `frame` under the held lock, then wakes the waiting
    /// readers, if there are any.
    fn append(&self, mut inner: MutexGuard<'_, JobInner>, frame: String) {
        inner.events.push(frame);
        let wake = inner.readers > 0;
        drop(inner);
        if wake {
            self.cond.notify_all();
        }
    }

    /// Blocks until the event log holds more than `seen` frames or the
    /// job is terminal, and returns the locked state. A terminal status
    /// and its final frame are appended under one lock, so a terminal
    /// state returned here already holds every frame.
    pub fn wait_for_events(&self, seen: usize) -> MutexGuard<'_, JobInner> {
        let mut inner = self.inner.lock().unwrap();
        while inner.events.len() == seen && !inner.status.terminal() {
            inner.readers += 1;
            inner = self.cond.wait(inner).unwrap();
            inner.readers -= 1;
        }
        inner
    }

    /// Status change and its announcement frame land under one lock, so
    /// a streaming reader that observes a terminal status has already
    /// been handed the final frame.
    fn set_status(&self, status: JobStatus, error: Option<String>) {
        let mut data = vec![("status", Json::str(status.name()))];
        if let Some(e) = &error {
            data.push(("error", Json::str(e.clone())));
        }
        let frame = format!("event: status\ndata: {}\n\n", Json::obj(data).render());
        let mut inner = self.inner.lock().unwrap();
        inner.status = status;
        if error.is_some() {
            inner.error = error;
        }
        self.append(inner, frame);
    }

    /// Status summary for `GET /api/jobs[/:id]`.
    pub fn status_json(&self) -> Json {
        let inner = self.inner.lock().unwrap();
        Json::obj(vec![
            ("id", Json::num(self.id as f64)),
            ("status", Json::str(inner.status.name())),
            ("runs", Json::num(self.runs.len() as f64)),
            ("done_runs", Json::num(inner.results.len() as f64)),
            (
                "labels",
                Json::Arr(self.runs.iter().map(|r| Json::str(&r.label)).collect()),
            ),
            ("events", Json::num(inner.events.len() as f64)),
            ("dropped_events", Json::num(inner.dropped_events as f64)),
            ("results", Json::Arr(inner.results.clone())),
            ("error", inner.error.clone().map_or(Json::Null, Json::Str)),
        ])
    }
}

/// The job registry plus the worker queue feeding the pool.
#[derive(Debug, Default)]
pub struct Registry {
    jobs: Mutex<Vec<Arc<Job>>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cond: Condvar,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a new job and enqueues it for the worker pool.
    pub fn submit(&self, runs: Vec<PlannedRun>) -> Arc<Job> {
        let mut jobs = self.jobs.lock().unwrap();
        let job = Arc::new(Job::new(jobs.len() as u64, runs));
        jobs.push(job.clone());
        drop(jobs);
        job.push_event(
            "status",
            &Json::obj(vec![("status", Json::str("queued"))]),
            false,
        );
        self.queue.lock().unwrap().push_back(job.clone());
        self.queue_cond.notify_one();
        job
    }

    /// Looks a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap().get(id as usize).cloned()
    }

    /// All jobs, in submission order.
    pub fn all(&self) -> Vec<Arc<Job>> {
        self.jobs.lock().unwrap().clone()
    }

    /// Blocks until a job is queued and claims it (worker loop body).
    fn claim(&self) -> Arc<Job> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(job) = queue.pop_front() {
                return job;
            }
            queue = self.queue_cond.wait(queue).unwrap();
        }
    }

    /// Spawns `workers` detached worker threads draining the queue.
    pub fn spawn_workers(self: &Arc<Self>, workers: usize) {
        for i in 0..workers.max(1) {
            let registry = self.clone();
            std::thread::Builder::new()
                .name(format!("egm-worker-{i}"))
                .spawn(move || loop {
                    let job = registry.claim();
                    execute(&job);
                })
                .expect("spawn worker thread");
        }
    }
}

/// Runs every scenario of a job, streaming progress into its event log.
fn execute(job: &Arc<Job>) {
    job.set_status(JobStatus::Running, None);
    for (index, run) in job.runs.iter().enumerate() {
        job.push_event(
            "run",
            &Json::obj(vec![
                ("run", Json::num(index as f64)),
                ("label", Json::str(&run.label)),
                ("nodes", Json::num(run.scenario.node_count() as f64)),
                ("messages", Json::num(run.scenario.messages as f64)),
            ]),
            false,
        );
        let sink = Arc::new(JobSink {
            job: job.clone(),
            run: index,
        });
        let scenario = run.scenario.clone();
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let setup = runner::prepare(&scenario, None);
            runner::run_prepared_observed(&scenario, &setup, sink)
        }));
        let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        match outcome {
            Ok(outcome) => {
                let result = Json::obj(vec![
                    ("run", Json::num(index as f64)),
                    ("label", Json::str(&run.label)),
                    ("events", Json::num(outcome.events as f64)),
                    ("wall_ms", Json::num(wall_ms)),
                    (
                        "events_per_sec",
                        Json::num(outcome.events as f64 / (wall_ms / 1000.0).max(1e-9)),
                    ),
                    (
                        "delivery_fraction",
                        Json::num(outcome.report.mean_delivery_fraction),
                    ),
                    (
                        "payloads_per_delivery",
                        Json::num(outcome.report.payloads_per_delivery),
                    ),
                    ("p50_ms", Json::num(outcome.latency.p50_ms())),
                    ("p99_ms", Json::num(outcome.latency.p99_ms())),
                    ("p999_ms", Json::num(outcome.latency.p999_ms())),
                    ("windows", Json::num(outcome.shard_stats.windows as f64)),
                    ("shards", Json::num(outcome.shard_stats.shards as f64)),
                ]);
                job.inner.lock().unwrap().results.push(result.clone());
                job.push_event("result", &result, false);
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("run panicked")
                    .to_string();
                job.set_status(JobStatus::Failed, Some(format!("run {index}: {msg}")));
                return;
            }
        }
    }
    job.set_status(JobStatus::Done, None);
}

/// The [`ProgressSink`] feeding a job's event log: each engine/runner
/// event becomes one SSE frame tagged with the run index. Window and
/// chunk frames are droppable past [`MAX_JOB_EVENTS`].
#[derive(Debug)]
struct JobSink {
    job: Arc<Job>,
    run: usize,
}

impl ProgressSink for JobSink {
    fn emit(&self, event: ProgressEvent) {
        let run = ("run", Json::num(self.run as f64));
        match event {
            ProgressEvent::Window {
                window,
                now_us,
                events,
            } => self.job.push_event(
                "window",
                &Json::obj(vec![
                    run,
                    ("window", Json::num(window as f64)),
                    ("now_ms", Json::num(now_us as f64 / 1000.0)),
                    ("events", Json::num(events as f64)),
                ]),
                true,
            ),
            ProgressEvent::Chunk { now_ms, events } => self.job.push_event(
                "chunk",
                &Json::obj(vec![
                    run,
                    ("now_ms", Json::num(now_ms)),
                    ("events", Json::num(events as f64)),
                ]),
                true,
            ),
            ProgressEvent::Fault { at_ms, fault } => self.job.push_event(
                "fault",
                &Json::obj(vec![
                    run,
                    ("at_ms", Json::num(at_ms)),
                    ("action", Json::str(format!("{fault:?}"))),
                ]),
                false,
            ),
            ProgressEvent::Rerank { tick, at_ms, best } => self.job.push_event(
                "rerank",
                &Json::obj(vec![
                    run,
                    ("tick", Json::num(tick as f64)),
                    ("at_ms", Json::num(at_ms)),
                    ("best", Json::num(best as f64)),
                ]),
                false,
            ),
            ProgressEvent::Summary {
                events,
                delivery_fraction,
                p50_ms,
                p99_ms,
                p999_ms,
            } => self.job.push_event(
                "summary",
                &Json::obj(vec![
                    run,
                    ("events", Json::num(events as f64)),
                    ("delivery_fraction", Json::num(delivery_fraction)),
                    ("p50_ms", Json::num(p50_ms)),
                    ("p99_ms", Json::num(p99_ms)),
                    ("p999_ms", Json::num(p999_ms)),
                ]),
                false,
            ),
        }
    }
}

/// Parses and validates a `POST /api/jobs` body into planned runs.
///
/// Accepted fields (all optional unless noted):
/// - `preset`: a scale-preset label (`"1k"`, `"4k"`, `"10k"`, `"100k"`)
///   — mutually exclusive with `scenario`;
/// - `scenario`: `"smoke"` (24 nodes) or `"paper"` (100 nodes,
///   the default);
/// - `messages`, `seed`: workload size and experiment seed;
/// - `strategy`: `{"kind":"flat","pi":0.5}`, `{"kind":"ttl","u":2}`,
///   `{"kind":"radius","rho":1.5,"t0_ms":40.0}`, or
///   `{"kind":"ranked","best_fraction":0.2}`;
/// - `shards`: shard-count override (`0` and `1` both mean one shard,
///   which streams `chunk` progress frames; wider runs stream `window`
///   frames). Without it the count resolves like any other run: the
///   size-based default;
/// - `sweep`: `{"field":"pi"|"best_fraction","values":[..]}` — one run
///   per value, overriding `strategy`.
pub fn parse_job(body: &Json) -> Result<Vec<PlannedRun>, String> {
    if !matches!(body, Json::Obj(_)) {
        return Err("job body must be a JSON object".into());
    }
    let known = [
        "preset", "scenario", "messages", "seed", "strategy", "shards", "sweep",
    ];
    if let Json::Obj(pairs) = body {
        for (key, _) in pairs {
            if !known.contains(&key.as_str()) {
                return Err(format!("unknown field '{key}'"));
            }
        }
    }

    let messages = match body.get("messages") {
        Some(v) => {
            let m = v
                .as_u64()
                .ok_or("'messages' must be a non-negative integer")?;
            if m == 0 || m > 100_000 {
                return Err("'messages' must be in 1..=100000".into());
            }
            Some(m as usize)
        }
        None => None,
    };
    let seed = match body.get("seed") {
        Some(v) => Some(v.as_u64().ok_or("'seed' must be a non-negative integer")?),
        None => None,
    };

    // Base scenario through the same constructors the benches use.
    let mut base = match (body.get("preset"), body.get("scenario")) {
        (Some(_), Some(_)) => return Err("'preset' and 'scenario' are mutually exclusive".into()),
        (Some(p), None) => {
            let label = p.as_str().ok_or("'preset' must be a string")?;
            let preset = ScalePreset::parse(label).ok_or_else(|| {
                let valid: Vec<&str> = ScalePreset::ALL.iter().map(|p| p.label()).collect();
                format!("unknown preset '{label}' (expected {})", valid.join(", "))
            })?;
            preset.scenario(messages.unwrap_or(30), seed.unwrap_or(42))
        }
        (None, name) => {
            let name = name.map_or(Ok("paper"), |v| {
                v.as_str().ok_or("'scenario' must be a string")
            })?;
            let mut s = match name {
                "smoke" => Scenario::smoke_test(),
                "paper" => Scenario::paper_default(),
                other => {
                    return Err(format!(
                        "unknown scenario '{other}' (expected 'smoke' or 'paper')"
                    ))
                }
            };
            if let Some(m) = messages {
                s = s.with_messages(m);
            }
            if let Some(seed) = seed {
                s = s.with_seed(seed);
            }
            s
        }
    };

    if let Some(v) = body.get("shards") {
        let w = v
            .as_u64()
            .ok_or("'shards' must be a non-negative integer")?;
        if w > 64 {
            return Err("'shards' must be at most 64".into());
        }
        base = base.with_shards(Some(w as usize));
    }

    if let Some(spec) = body.get("strategy") {
        base = base.with_strategy(parse_strategy(spec)?);
    }

    let runs = match body.get("sweep") {
        None => vec![PlannedRun {
            label: base.strategy.label(),
            scenario: base,
        }],
        Some(sweep) => {
            let field = sweep
                .get("field")
                .and_then(Json::as_str)
                .ok_or("'sweep.field' must be a string")?;
            let values = sweep
                .get("values")
                .and_then(Json::as_arr)
                .ok_or("'sweep.values' must be an array of numbers")?;
            if values.is_empty() || values.len() > MAX_RUNS_PER_JOB {
                return Err(format!(
                    "'sweep.values' must hold 1..={MAX_RUNS_PER_JOB} entries"
                ));
            }
            let mut runs = Vec::with_capacity(values.len());
            for v in values {
                let x = v.as_f64().ok_or("'sweep.values' must be numbers")?;
                let strategy = match field {
                    "pi" => check_unit("pi", x).map(|pi| StrategySpec::Flat { pi })?,
                    "best_fraction" => check_fraction(x)
                        .map(|best_fraction| StrategySpec::Ranked { best_fraction })?,
                    other => {
                        return Err(format!(
                            "unknown sweep field '{other}' (expected 'pi' or 'best_fraction')"
                        ))
                    }
                };
                let scenario = base.clone().with_strategy(strategy);
                runs.push(PlannedRun {
                    label: format!("{field}={x}"),
                    scenario,
                });
            }
            runs
        }
    };
    Ok(runs)
}

fn parse_strategy(spec: &Json) -> Result<StrategySpec, String> {
    let kind = spec
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("'strategy.kind' must be a string")?;
    match kind {
        "flat" => {
            let pi = spec
                .get("pi")
                .and_then(Json::as_f64)
                .ok_or("'strategy.pi' must be a number")?;
            check_unit("pi", pi).map(|pi| StrategySpec::Flat { pi })
        }
        "ttl" => {
            let u = spec
                .get("u")
                .and_then(Json::as_u64)
                .ok_or("'strategy.u' must be a non-negative integer")?;
            if u > 64 {
                return Err("'strategy.u' must be at most 64".into());
            }
            Ok(StrategySpec::Ttl { u: u as u32 })
        }
        "radius" => {
            let rho = spec
                .get("rho")
                .and_then(Json::as_f64)
                .ok_or("'strategy.rho' must be a number")?;
            let t0_ms = spec
                .get("t0_ms")
                .and_then(Json::as_f64)
                .ok_or("'strategy.t0_ms' must be a number")?;
            if !(0.0..=1e6).contains(&rho) {
                return Err("'strategy.rho' must lie in [0, 1e6]".into());
            }
            if !(0.0..=1e6).contains(&t0_ms) {
                return Err("'strategy.t0_ms' must lie in [0, 1e6]".into());
            }
            Ok(StrategySpec::Radius { rho, t0_ms })
        }
        "ranked" => {
            let f = spec
                .get("best_fraction")
                .and_then(Json::as_f64)
                .ok_or("'strategy.best_fraction' must be a number")?;
            check_fraction(f).map(|best_fraction| StrategySpec::Ranked { best_fraction })
        }
        other => Err(format!(
            "unknown strategy kind '{other}' (expected 'flat', 'ttl', 'radius' or 'ranked')"
        )),
    }
}

fn check_unit(name: &str, x: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&x) {
        Ok(x)
    } else {
        Err(format!("'{name}' must lie in [0, 1]"))
    }
}

fn check_fraction(x: f64) -> Result<f64, String> {
    if x > 0.0 && x <= 1.0 {
        Ok(x)
    } else {
        Err("'best_fraction' must lie in (0, 1]".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_job() {
        let body = Json::parse(r#"{"scenario":"smoke","messages":5,"seed":7}"#).unwrap();
        let runs = parse_job(&body).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].scenario.messages, 5);
        assert_eq!(runs[0].scenario.seed, 7);
        assert_eq!(runs[0].scenario.node_count(), 24);
    }

    #[test]
    fn parses_a_preset_job_with_sweep() {
        let body = Json::parse(
            r#"{"preset":"1k","messages":10,"sweep":{"field":"pi","values":[0,0.5,1]}}"#,
        )
        .unwrap();
        let runs = parse_job(&body).unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].scenario.node_count(), 1000);
        assert_eq!(runs[2].label, "pi=1");
    }

    #[test]
    fn rejects_invalid_submissions() {
        for (body, needle) in [
            (r#"{"preset":"9k"}"#, "unknown preset"),
            (r#"{"scenario":"huge"}"#, "unknown scenario"),
            (
                r#"{"preset":"1k","scenario":"smoke"}"#,
                "mutually exclusive",
            ),
            (r#"{"messages":0}"#, "messages"),
            (r#"{"strategy":{"kind":"flat","pi":1.5}}"#, "[0, 1]"),
            (r#"{"bogus":1}"#, "unknown field"),
            (r#"[1]"#, "object"),
        ] {
            let err = parse_job(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn registry_runs_a_smoke_job_to_completion() {
        let registry = Arc::new(Registry::new());
        registry.spawn_workers(1);
        let body = Json::parse(r#"{"scenario":"smoke","messages":5}"#).unwrap();
        let job = registry.submit(parse_job(&body).unwrap());
        let mut seen = 0;
        let inner = loop {
            let inner = job.wait_for_events(seen);
            if inner.status.terminal() {
                break inner;
            }
            seen = inner.events.len();
        };
        assert_eq!(inner.status, JobStatus::Done, "{:?}", inner.error);
        assert_eq!(inner.results.len(), 1);
        let frames = inner.events.join("");
        assert!(frames.contains("event: chunk") || frames.contains("event: window"));
        assert!(frames.contains("event: summary"));
    }
}
