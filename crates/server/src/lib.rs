//! `egm_server` — the live simulation service.
//!
//! Wraps the deterministic runner in a long-running HTTP service: jobs
//! are submitted as JSON (`POST /api/jobs`), validated against the same
//! scenario builders the benches use, executed on a bounded worker pool
//! via `runner::prepare` / `run_prepared_observed`, and observed live
//! over a server-sent-event stream (`GET /api/jobs/:id/events`) fed by
//! the [`egm_simnet::ProgressSink`] hooks in the runner and the sharded
//! window loop. `GET /api/bench` serves the bench-bin record
//! re-rendered through [`json::Json`], and `/` serves a minimal vanilla-JS
//! dashboard. The full API is documented in `crates/server/README.md`;
//! the progress hooks are observe-only, so a served run is
//! byte-identical to the same scenario run from the CLI (the workload
//! `progress_determinism` test pins this).
//!
//! The transport is a plain `std::net` HTTP/1.1 + SSE implementation —
//! the build environment vendors its few dependencies offline and has
//! no async stack; see `Cargo.toml` for the trade-off note.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod jobs;
pub mod json;

use jobs::{parse_job, Registry};
use json::Json;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Embedded dashboard page, served at `/`.
pub const INDEX_HTML: &str = include_str!("../static/index.html");
/// Embedded dashboard script, served at `/app.js`.
pub const APP_JS: &str = include_str!("../static/app.js");

/// Server configuration; see [`ServerConfig::from_env`] for the
/// environment mapping.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 for ephemeral).
    pub addr: String,
    /// Worker threads executing jobs (the job queue is unbounded, the
    /// pool is not).
    pub workers: usize,
    /// Path of the benchmark record served by `GET /api/bench`.
    pub bench_path: PathBuf,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            bench_path: PathBuf::from("BENCH_events_per_sec.json"),
        }
    }
}

impl ServerConfig {
    /// Reads the configuration from the environment: `EGM_SERVER_ADDR`
    /// (default `127.0.0.1:7878`), `EGM_SERVER_WORKERS` (default 2),
    /// and `EGM_BENCH_OUT` (default `BENCH_events_per_sec.json`, the
    /// same variable the benches write through).
    ///
    /// # Panics
    ///
    /// Panics when `EGM_SERVER_WORKERS` is not a positive integer.
    pub fn from_env() -> ServerConfig {
        let defaults = ServerConfig::default();
        ServerConfig {
            addr: std::env::var("EGM_SERVER_ADDR").unwrap_or(defaults.addr),
            workers: std::env::var("EGM_SERVER_WORKERS")
                .map_or(defaults.workers, |v| parse_workers(&v)),
            bench_path: std::env::var("EGM_BENCH_OUT")
                .map(PathBuf::from)
                .unwrap_or(defaults.bench_path),
        }
    }
}

/// Parses an `EGM_SERVER_WORKERS` value, panicking naming the variable
/// and the value unless it is a positive integer: a typo must not
/// quietly start the default pool.
fn parse_workers(value: &str) -> usize {
    match value.trim().parse() {
        Ok(workers) if workers > 0 => workers,
        _ => panic!("unrecognized EGM_SERVER_WORKERS {value:?}: expected a positive integer"),
    }
}

/// Connection threads allowed to wait in `accept` at once: a thread that
/// finishes its connection while this many others wait exits, so a burst
/// of connections does not leave its threads behind.
const MAX_IDLE_THREADS: usize = 4;

struct AppState {
    listener: TcpListener,
    /// Connection threads waiting in `accept`, counting a successor from
    /// the moment its predecessor hands it the slot. Never above
    /// [`MAX_IDLE_THREADS`], and never 0 while threads can be spawned.
    idle: AtomicUsize,
    registry: Arc<Registry>,
    config: ServerConfig,
}

/// The HTTP server: a bound listener plus the job registry and worker
/// pool. Construct with [`Server::bind`], then either [`Server::serve`]
/// (blocking) or [`Server::spawn`] (returns at once, for tests).
pub struct Server {
    state: Arc<AppState>,
}

impl Server {
    /// Binds the listener and spawns the worker pool.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let registry = Arc::new(Registry::new());
        registry.spawn_workers(config.workers);
        Ok(Server {
            state: Arc::new(AppState {
                listener,
                // The slot of the first connection thread `spawn` starts.
                idle: AtomicUsize::new(1),
                registry,
                config,
            }),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.state.listener.local_addr()
    }

    /// Serves forever. Connection threads accept for themselves: each
    /// waits in `accept` on the shared listener, and the one that takes
    /// the last waiting slot starts its successor before it handles its
    /// connection, so a thread is always waiting and no connection queues
    /// behind another (an SSE stream can last minutes). A thread that
    /// finishes while a small fixed number of others wait exits. The
    /// calling thread only parks; worker and connection threads are
    /// detached, and the process exits to stop them.
    pub fn serve(self) -> io::Result<()> {
        self.spawn()?;
        loop {
            std::thread::park();
        }
    }

    /// Starts serving on background threads and returns the bound
    /// address — the test harness entry point.
    pub fn spawn(self) -> io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        spawn_connection_thread(self.state)?;
        Ok(addr)
    }

    /// Test probe, not API: reads how many connection threads wait in
    /// `accept`.
    #[doc(hidden)]
    pub fn idle_threads(&self) -> impl Fn() -> usize + Send + 'static {
        let state = self.state.clone();
        move || state.idle.load(Ordering::SeqCst)
    }
}

/// Starts a connection thread on the idle slot already counted for it.
fn spawn_connection_thread(state: Arc<AppState>) -> io::Result<()> {
    std::thread::Builder::new()
        .name("egm-conn".to_string())
        .spawn(move || connection_thread(&state))
        .map(drop)
}

/// Accepts and handles connections until it finds enough threads
/// waiting without it.
fn connection_thread(state: &Arc<AppState>) {
    loop {
        let Ok((stream, _)) = state.listener.accept() else {
            continue;
        };
        // Leave the idle count, unless this was the last waiting thread:
        // then its slot passes to a successor started before the
        // connection is handled. If no thread can be started, the slot is
        // given up and this thread comes back to `accept` when done.
        let last = state
            .idle
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |idle| {
                (idle > 1).then(|| idle - 1)
            })
            .is_err();
        if last && spawn_connection_thread(state.clone()).is_err() {
            state.idle.fetch_sub(1, Ordering::SeqCst);
        }
        handle_connection(&stream, state);
        // Wait again only while fewer than the cap do; claiming the slot
        // and checking the cap are one atomic step, so threads finishing
        // together cannot overshoot it.
        let rejoined = state
            .idle
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |idle| {
                (idle < MAX_IDLE_THREADS).then(|| idle + 1)
            })
            .is_ok();
        if !rejoined {
            return;
        }
    }
}

fn handle_connection(stream: &TcpStream, state: &AppState) {
    if let Some(req) = http::receive(stream) {
        let mut out = stream;
        let _ = route(&mut out, &req, state);
    }
}

fn route(stream: &mut impl Write, req: &http::Request, state: &AppState) -> io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => http::respond(stream, "200 OK", "text/html; charset=utf-8", INDEX_HTML),
        ("GET", "/app.js") => {
            http::respond(stream, "200 OK", "text/javascript; charset=utf-8", APP_JS)
        }
        // Every bench bin writes the record through `render_pretty`, so a
        // record nobody edited by hand is served byte for byte.
        ("GET", "/api/bench") => {
            let path = state.config.bench_path.display();
            match std::fs::read_to_string(&state.config.bench_path) {
                Ok(text) => match Json::parse(&text) {
                    Ok(record) => http::respond_json(stream, "200 OK", &record.render_pretty()),
                    Err(e) => http::respond_error(
                        stream,
                        "500 Internal Server Error",
                        &format!("benchmark record at {path} is not valid JSON: {e}"),
                    ),
                },
                Err(e) => http::respond_error(
                    stream,
                    "404 Not Found",
                    &format!("no benchmark record at {path}: {e}"),
                ),
            }
        }
        ("GET", "/api/jobs") => {
            let jobs: Vec<Json> = state
                .registry
                .all()
                .iter()
                .map(|job| job.status_json())
                .collect();
            http::respond_json(
                stream,
                "200 OK",
                &Json::obj(vec![("jobs", Json::Arr(jobs))]).render(),
            )
        }
        ("POST", "/api/jobs") => {
            let body = match std::str::from_utf8(&req.body) {
                Ok(text) => text,
                Err(_) => {
                    return http::respond_error(stream, "400 Bad Request", "body is not UTF-8")
                }
            };
            let parsed = match Json::parse(body) {
                Ok(v) => v,
                Err(e) => {
                    return http::respond_error(
                        stream,
                        "400 Bad Request",
                        &format!("invalid JSON: {e}"),
                    )
                }
            };
            match parse_job(&parsed) {
                Ok(runs) => {
                    let job = state.registry.submit(runs);
                    http::respond_json(
                        stream,
                        "201 Created",
                        &Json::obj(vec![
                            ("id", Json::num(job.id as f64)),
                            ("runs", Json::num(job.runs.len() as f64)),
                            ("status", Json::str("queued")),
                        ])
                        .render(),
                    )
                }
                Err(e) => http::respond_error(stream, "400 Bad Request", &e),
            }
        }
        ("GET", path) if path.starts_with("/api/jobs/") => {
            let rest = &path["/api/jobs/".len()..];
            let (id, events) = match rest.strip_suffix("/events") {
                Some(id) => (id, true),
                None => (rest, false),
            };
            let Ok(id) = id.parse::<u64>() else {
                return http::respond_error(stream, "400 Bad Request", "job id must be an integer");
            };
            let Some(job) = state.registry.get(id) else {
                return http::respond_error(stream, "404 Not Found", &format!("no job {id}"));
            };
            if events {
                stream_job_events(stream, &job)
            } else {
                http::respond_json(stream, "200 OK", &job.status_json().render())
            }
        }
        _ => http::respond_error(stream, "404 Not Found", "no such route"),
    }
}

/// Streams a job's event log as SSE: replay from the start, then follow
/// the tail until the job reaches a terminal status and every frame has
/// been flushed (the stream then ends; `EventSource` clients should
/// close on the final `status` event to avoid auto-reconnect). Each
/// wakeup sends everything logged since the last one as one batch; the
/// first batch carries the response head.
fn stream_job_events(stream: &mut impl Write, job: &jobs::Job) -> io::Result<()> {
    let mut sse = http::start_sse(stream);
    let mut sent = 0usize;
    loop {
        let done = {
            let inner = job.wait_for_events(sent);
            for frame in &inner.events[sent..] {
                sse.push(frame);
            }
            sent = inner.events.len();
            inner.status.terminal()
        };
        sse.send()?;
        if done {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_workers;

    #[test]
    fn workers_parse_as_positive_integers() {
        assert_eq!(parse_workers("1"), 1);
        assert_eq!(parse_workers(" 8 "), 8);
    }

    #[test]
    #[should_panic(expected = "unrecognized EGM_SERVER_WORKERS \"two\"")]
    fn a_typoed_worker_count_panics_instead_of_taking_the_default() {
        parse_workers("two");
    }

    #[test]
    #[should_panic(expected = "unrecognized EGM_SERVER_WORKERS \"0\"")]
    fn zero_workers_panics_instead_of_taking_the_default() {
        parse_workers("0");
    }
}
