//! The `server_jobs` workload: the HTTP job service as a child process,
//! driven closed-loop over `std::net` by two client connections. Jobs are
//! tiny on purpose (24 nodes × 5 messages): HTTP parsing, JSON, the job
//! hand-off and SSE framing are most of the latency, the simulator almost
//! none.

use crate::api;
use crate::json::Json;
use crate::layers::write_trace;
use crate::stats::{median, percentile, SplitMix64};
use crate::trace::Tracer;
use crate::workloads::{peak_rss_mb, rss_mb, set_run_times, Checks, Opts, Report};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Client connections, one closed loop each (= this sandbox's cores).
const CLIENTS: usize = 2;
const JOB_MESSAGES: usize = 5;
/// The record `GET /api/bench` serves, relative to the checkout root.
const BENCH_RECORD: &str = "BENCH_events_per_sec.json";

// ---- Child process -------------------------------------------------------

/// A running server child; killed and reaped on drop.
struct ServerProc {
    child: Child,
    /// Held so the child's stdout stays open.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// Spawn → first `200`.
    ready_s: f64,
}

impl ServerProc {
    fn spawn() -> ServerProc {
        let exe = std::env::current_exe().expect("path of this executable");
        let start = Instant::now();
        let mut child = Command::new(exe)
            .arg("--serve")
            .env("EGM_SERVER_ADDR", "127.0.0.1:0")
            .env("EGM_SERVER_WORKERS", "1")
            .env("EGM_BENCH_OUT", BENCH_RECORD)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the server child");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("read the server's announcement");
        let addr: SocketAddr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unexpected server announcement {line:?}"));
        let first = request(addr, "GET", "/api/jobs", "").expect("first request");
        assert_eq!(first.status, 200, "first request must succeed");
        ServerProc {
            child,
            _stdout: stdout,
            addr,
            ready_s: start.elapsed().as_secs_f64(),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---- HTTP client ---------------------------------------------------------

struct Response {
    status: u16,
    body: String,
    /// When the first body byte arrived.
    first_body: Instant,
    /// When the server closed the connection.
    done: Instant,
}

/// One request on a fresh connection, read to EOF (the server answers
/// `Connection: close`; an SSE stream ends when its job is terminal).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut buf = Vec::with_capacity(2048);
    let mut chunk = [0u8; 4096];
    let mut header_end = None;
    let mut first_body = None;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if header_end.is_none() {
            header_end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
        }
        if first_body.is_none() && header_end.is_some_and(|end| buf.len() > end) {
            first_body = Some(Instant::now());
        }
    }
    let done = Instant::now();
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let header_end = header_end.ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| bad("header not UTF-8"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let body = String::from_utf8(buf.split_off(header_end)).map_err(|_| bad("body not UTF-8"))?;
    Ok(Response {
        status,
        body,
        first_body: first_body.unwrap_or(done),
        done,
    })
}

// ---- Jobs ----------------------------------------------------------------

/// One job as its client saw it.
#[derive(Debug, Clone, Default)]
struct Job {
    seed: u64,
    ok: bool,
    /// Whether the request phases were recorded as spans.
    traced: bool,
    /// `POST` sent → terminal SSE `status` frame read.
    latency_s: f64,
    /// `POST` sent → `201` read.
    submit_s: f64,
    /// Events request sent → first frame byte.
    first_frame_s: f64,
    /// First frame byte → end of stream.
    stream_s: f64,
    frames: u32,
    window_frames: u32,
    /// From the `result` frame.
    events: u64,
    delivery: f64,
    p99_ms: f64,
    wall_ms: f64,
}

/// Submits `body`, follows the job's event stream to its end, and checks
/// that it finished `done` with a `result` frame. Records the request
/// phases as spans when a tracer is given.
fn run_job(addr: SocketAddr, body: &str, seed: u64, spans: Option<&mut Vec<JobSpans>>) -> Job {
    let mut job = Job {
        seed,
        traced: spans.is_some(),
        ..Job::default()
    };
    let start = Instant::now();
    let Ok(submit) = request(addr, "POST", "/api/jobs", body) else {
        return job;
    };
    let id = Json::parse(&submit.body)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_f64));
    let (201, Some(id)) = (submit.status, id) else {
        return job;
    };
    let follow = Instant::now();
    let Ok(events) = request(addr, "GET", &format!("/api/jobs/{id}/events"), "") else {
        return job;
    };
    job.latency_s = (events.done - start).as_secs_f64();
    job.submit_s = (submit.done - start).as_secs_f64();
    job.first_frame_s = (events.first_body - follow).as_secs_f64();
    job.stream_s = (events.done - events.first_body).as_secs_f64();

    let mut finished = false;
    let mut has_result = false;
    for frame in events.body.split("\n\n").filter(|f| !f.is_empty()) {
        job.frames += 1;
        let Some((kind, data)) = frame
            .strip_prefix("event: ")
            .and_then(|f| f.split_once("\ndata: "))
        else {
            continue;
        };
        match kind {
            "window" => job.window_frames += 1,
            "result" => {
                let Ok(data) = Json::parse(data) else {
                    continue;
                };
                let num = |key: &str| data.get(key).and_then(Json::as_f64);
                if let (Some(events), Some(delivery), Some(p99), Some(wall)) = (
                    num("events"),
                    num("delivery_fraction"),
                    num("p99_ms"),
                    num("wall_ms"),
                ) {
                    job.events = events as u64;
                    job.delivery = delivery;
                    job.p99_ms = p99;
                    job.wall_ms = wall;
                    has_result = true;
                }
            }
            // Only the last status frame decides.
            "status" => finished = data.contains("\"done\""),
            _ => {}
        }
    }
    job.ok = events.status == 200 && has_result && finished;
    if let Some(spans) = spans {
        spans.push(JobSpans {
            start,
            submitted: submit.done,
            follow,
            first_frame: events.first_body,
            done: events.done,
        });
    }
    job
}

/// Request-phase timestamps of one traced job.
struct JobSpans {
    start: Instant,
    submitted: Instant,
    follow: Instant,
    first_frame: Instant,
    done: Instant,
}

fn smoke_body(seed: u64) -> String {
    format!("{{\"scenario\":\"smoke\",\"messages\":{JOB_MESSAGES},\"seed\":{seed},\"shards\":0}}")
}

/// When a client loop stops.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many jobs per client.
    Jobs(usize),
    /// At the deadline, but not before this many jobs per client.
    At(Instant, usize),
}

/// Closed loop: each of [`CLIENTS`] connections sends its next job only
/// after the previous one's stream ended. Job seeds come from the
/// harness's own generator, one stream per client. With `trace_odd`,
/// every other job has its request phases recorded, so traced and
/// untraced jobs see the same server state.
fn drive(addr: SocketAddr, seed: u64, stop: Stop, trace_odd: bool) -> (Vec<Job>, Vec<JobSpans>) {
    let per_client: Vec<(Vec<Job>, Vec<JobSpans>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ ((client as u64 + 1) << 32));
                    let mut jobs = Vec::new();
                    let mut spans = Vec::new();
                    loop {
                        let more = match stop {
                            Stop::Jobs(n) => jobs.len() < n,
                            Stop::At(deadline, min) => {
                                jobs.len() < min || Instant::now() < deadline
                            }
                        };
                        if !more {
                            break;
                        }
                        let job_seed = rng.next_u64() >> 32;
                        jobs.push(run_job(
                            addr,
                            &smoke_body(job_seed),
                            job_seed,
                            (trace_odd && jobs.len() % 2 == 1).then_some(&mut spans),
                        ));
                    }
                    (jobs, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut jobs = Vec::new();
    let mut spans = Vec::new();
    for (j, s) in per_client {
        jobs.extend(j);
        spans.extend(s);
    }
    (jobs, spans)
}

fn count_jobs(checks: &mut Checks, jobs: &[Job]) {
    checks.attempted += jobs.len() as u64;
    let failed = jobs.iter().filter(|j| !j.ok).count() as u64;
    if failed > 0 {
        eprintln!("check failed: {failed} jobs did not end done with a result frame");
    }
    checks.failed += failed;
}

/// A served run must equal the same scenario run in-process: the first
/// `n` jobs are replayed here and compared field by field. Returns the
/// mean top-5 % link share of the replayed runs, the one pinned number
/// the job result does not carry.
fn replay_in_process(checks: &mut Checks, jobs: &[Job], n: usize) -> f64 {
    let mut top5 = Vec::new();
    for job in jobs.iter().filter(|j| j.ok).take(n) {
        let scenario = api::smoke_job_scenario(JOB_MESSAGES, job.seed);
        let setup = api::prepare(&scenario, None);
        let outcome = api::run_prepared(&scenario, &setup);
        checks.check(
            outcome.events == job.events
                && outcome.report.mean_delivery_fraction == job.delivery
                && outcome.latency.p99_ms() == job.p99_ms,
            "served job equals the in-process run of its scenario",
        );
        top5.push(outcome.report.top5_link_share);
    }
    top5.iter().sum::<f64>() / top5.len().max(1) as f64
}

fn check_bench_endpoint(checks: &mut Checks, addr: SocketAddr) {
    // Skipped when the checkout carries no record to serve.
    let Ok(file) = std::fs::read_to_string(BENCH_RECORD) else {
        return;
    };
    let served = request(addr, "GET", "/api/bench", "");
    checks.check(
        served.is_ok_and(|r| r.status == 200 && r.body == file),
        "GET /api/bench equals the record's bytes",
    );
}

/// What both the untraced and the traced run do first: spawn (→
/// `setup_s`), warm up with a fixed number of jobs (→ peak RSS, pinned
/// simulated results), check the outputs.
struct Warm {
    server: ServerProc,
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    jobs: Vec<Job>,
    top5: f64,
}

fn warm_up(report: &mut Report, opts: &Opts) -> Warm {
    let spawns = if opts.quick { 2 } else { 15 };
    let mut setup_s = Vec::new();
    let mut server = ServerProc::spawn();
    setup_s.push(server.ready_s);
    while setup_s.len() < spawns {
        server = ServerProc::spawn();
        setup_s.push(server.ready_s);
    }
    let per_client = if opts.quick { 5 } else { 500 };
    let (jobs, _) = drive(server.addr, opts.seed, Stop::Jobs(per_client), false);
    // Read after a fixed number of jobs: the registry keeps every job, so
    // the server's RSS grows with the count.
    let peak = peak_rss_mb(&server.pid());
    count_jobs(&mut report.checks, &jobs);
    let top5 = replay_in_process(&mut report.checks, &jobs, if opts.quick { 4 } else { 20 });
    check_bench_endpoint(&mut report.checks, server.addr);
    report.config = vec![
        ("server_workers", "1".to_string()),
        ("client_connections", CLIENTS.to_string()),
        ("loop", "closed".to_string()),
        ("job", smoke_body(0)),
        ("warmup_jobs", jobs.len().to_string()),
    ];
    Warm {
        server,
        setup_s,
        peak_rss_mb: peak,
        jobs,
        top5,
    }
}

fn min_timed_jobs(opts: &Opts) -> usize {
    // p99 needs a thousand samples; the smoke test makes 50.
    (if opts.quick { 50 } else { 1000 }) / CLIENTS
}

/// Spawn → first `200` fifteen times (→ `setup_s`), 1 000 warm-up jobs, then
/// a closed loop for `--seconds`.
pub fn measure(opts: &Opts) -> Report {
    let mut report = Report::default();
    let warm = warm_up(&mut report, opts);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let stop = Stop::At(deadline, min_timed_jobs(opts));
    let (jobs, _) = drive(warm.server.addr, !opts.seed, stop, false);
    let wall = start.elapsed().as_secs_f64();
    count_jobs(&mut report.checks, &jobs);

    let done: Vec<&Job> = jobs.iter().filter(|j| j.ok).collect();
    let latencies: Vec<f64> = done.iter().map(|j| j.latency_s).collect();
    assert!(!latencies.is_empty(), "no job completed");
    report.values.set("setup_s", median(&warm.setup_s));
    set_run_times(&mut report, &latencies);
    let pinned: Vec<&Job> = warm.jobs.iter().filter(|j| j.ok).collect();
    let mean = |f: fn(&Job) -> f64| pinned.iter().map(|j| f(j)).sum::<f64>() / pinned.len() as f64;
    let v = &mut report.values;
    v.set(
        "events_per_s",
        done.iter().map(|j| j.events).sum::<u64>() as f64 / wall,
    );
    v.set("scenarios_per_s", done.len() as f64 / wall);
    v.set("peak_rss_mb", warm.peak_rss_mb);
    v.set("sim_delivery_frac", mean(|j| j.delivery));
    v.set("sim_p99_ms", mean(|j| j.p99_ms));
    v.set("sim_top5_link_share", warm.top5);
    report
        .notes
        .push(format!("{} timed jobs in {wall:.3} s", jobs.len()));
    report
}

/// The traced run: the same closed loop with the request phases of
/// every other job recorded (the rest give the untraced latency); then ten 1k-node sharded jobs for SSE under real window-frame volume,
/// and the per-layer probes on the job's scenario in-process.
pub fn trace(opts: &Opts) -> Report {
    let mut report = Report::default();
    let warm = warm_up(&mut report, opts);
    let addr = warm.server.addr;
    let rss_before = rss_mb(&warm.server.pid());
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let stop = Stop::At(deadline, min_timed_jobs(opts));
    let (jobs, job_spans) = drive(addr, !opts.seed, stop, true);
    let rss_after = rss_mb(&warm.server.pid());
    count_jobs(&mut report.checks, &jobs);
    let all: Vec<f64> = jobs.iter().filter(|j| j.ok).map(|j| j.latency_s).collect();
    let (traced, plain): (Vec<Job>, Vec<Job>) = jobs.into_iter().partition(|j| j.traced);

    let mut tr = Tracer::new();
    for (i, s) in job_spans.iter().enumerate() {
        tr.set_run(i as u32);
        let job = tr.record("server.job", "server", s.start, s.done, None);
        tr.record("server.submit", "server", s.start, s.submitted, Some(job));
        tr.record(
            "server.first_frame",
            "server",
            s.follow,
            s.first_frame,
            Some(job),
        );
        tr.record("server.stream", "server", s.first_frame, s.done, Some(job));
    }

    let ok = |jobs: &[Job], f: fn(&Job) -> f64| -> Vec<f64> {
        jobs.iter().filter(|j| j.ok).map(f).collect()
    };
    let latency = median(&ok(&traced, |j| j.latency_s));
    let v = &mut report.values;
    v.set(
        "server.submit_share",
        median(&ok(&traced, |j| j.submit_s)) / latency,
    );
    v.set(
        "server.first_frame_share",
        median(&ok(&traced, |j| j.first_frame_s)) / latency,
    );
    v.set(
        "server.stream_share",
        median(&ok(&traced, |j| j.stream_s)) / latency,
    );
    v.set(
        "server.sim_share",
        ok(&traced, |j| j.wall_ms / 1000.0).iter().sum::<f64>()
            / ok(&traced, |j| j.latency_s).iter().sum::<f64>(),
    );
    v.set(
        "server.sse_frames_per_job",
        median(&ok(&traced, |j| f64::from(j.frames))),
    );
    v.set(
        "server.latency_p99_over_p50",
        percentile(&all, 0.99) / median(&all),
    );
    v.set(
        "server.rss_per_kjob_mb",
        (rss_after - rss_before) / (plain.len() + traced.len()) as f64 * 1000.0,
    );
    let overhead = latency / median(&ok(&plain, |j| j.latency_s)) - 1.0;

    // SSE under real window-frame volume: sharded 1k-node jobs, one at a
    // time.
    let stream_jobs = if opts.quick { 2 } else { 10 };
    let body = "{\"preset\":\"1k\",\"messages\":10,\"shards\":2}";
    let streamed: Vec<Job> = (0..stream_jobs)
        .map(|_| run_job(addr, body, 42, None))
        .collect();
    count_jobs(&mut report.checks, &streamed);
    let v = &mut report.values;
    v.set(
        "server.stream_job_overhead",
        1.0 - ok(&streamed, |j| j.wall_ms / 1000.0).iter().sum::<f64>()
            / ok(&streamed, |j| j.latency_s).iter().sum::<f64>(),
    );
    v.set(
        "server.window_frames_per_job",
        median(&ok(&streamed, |j| f64::from(j.window_frames))),
    );
    drop(warm);

    // The simulator layers under one job, measured in-process.
    let scenario = api::smoke_job_scenario(JOB_MESSAGES, opts.seed);
    let config = std::mem::take(&mut report.config);
    crate::layers::trace_reference(
        &mut tr,
        &mut report,
        &scenario,
        None,
        opts.seconds / 4.0,
        opts,
    );
    report.config = config;
    // This workload's tracing is the client-side phase recording.
    report.values.set("trace.overhead_frac", overhead);
    report.values.set("trace.spans", tr.len() as f64);
    write_trace(&tr, "server_jobs", opts);
    report
}
