//! End-to-end HTTP API tests: spawn the server on an ephemeral port and
//! exercise every documented endpoint with raw `std::net` requests —
//! the same surface the `server-smoke` CI job drives with `curl`.

use egm_server::json::Json;
use egm_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn bench_record_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_events_per_sec.json")
}

fn spawn_server() -> SocketAddr {
    spawn_server_serving(bench_record_path())
}

fn spawn_server_serving(bench_path: PathBuf) -> SocketAddr {
    bind_server(bench_path)
        .spawn()
        .expect("spawn connection threads")
}

fn bind_server(bench_path: PathBuf) -> Server {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        bench_path,
    };
    Server::bind(config).expect("bind ephemeral port")
}

/// One request/response over a fresh connection (the server speaks
/// `Connection: close`). Returns `(status_line, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .lines()
        .next()
        .expect("status line present")
        .to_string();
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn get_json(addr: SocketAddr, path: &str) -> (String, Json) {
    let (status, body) = request(addr, "GET", path, None);
    (status, Json::parse(&body).expect("JSON body"))
}

#[test]
fn bench_endpoint_round_trips_the_checked_in_record() {
    let addr = spawn_server();
    let (status, body) = request(addr, "GET", "/api/bench", None);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let on_disk = std::fs::read_to_string(bench_record_path()).expect("checked-in bench record");
    // Json::parse -> render_pretty must be the identity on the
    // checked-in file: every bin writes it through render_pretty, so the
    // served bytes match the repository bytes exactly.
    assert_eq!(body, on_disk);
}

#[test]
fn a_corrupt_bench_record_is_a_server_error() {
    let path = std::env::temp_dir().join(format!("egm_corrupt_bench_{}.json", std::process::id()));
    std::fs::write(&path, "{\"scale\": {\"events\": 1},").expect("write corrupt record");
    let addr = spawn_server_serving(path);
    let (status, body) = request(addr, "GET", "/api/bench", None);
    assert_eq!(status, "HTTP/1.1 500 Internal Server Error");
    assert!(body.contains("not valid JSON"), "{body}");
}

#[test]
fn dashboard_assets_are_served() {
    let addr = spawn_server();
    let (status, body) = request(addr, "GET", "/", None);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("<script src=\"/app.js\">"));
    let (status, body) = request(addr, "GET", "/app.js", None);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("EventSource"));
}

#[test]
fn rejects_bad_submissions_and_unknown_routes() {
    let addr = spawn_server();
    let (status, body) = request(addr, "POST", "/api/jobs", Some("{not json"));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("invalid JSON"));

    let (status, body) = request(
        addr,
        "POST",
        "/api/jobs",
        Some(r#"{"scenario":"smoke","bogus":1}"#),
    );
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("unknown field"));

    let (status, _) = request(addr, "GET", "/api/jobs/9999", None);
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    let (status, _) = request(addr, "GET", "/api/nope", None);
    assert_eq!(status, "HTTP/1.1 404 Not Found");
}

#[test]
fn a_million_node_preset_is_refused_and_never_queued() {
    let addr = spawn_server();
    let (status, body) = request(addr, "POST", "/api/jobs", Some(r#"{"preset":"1m"}"#));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("unknown preset '1m'"), "{body}");
    assert!(body.contains("(expected 1k, 4k, 10k, 100k)"), "{body}");
    let (status, jobs) = get_json(addr, "/api/jobs");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(jobs.get("jobs"), Some(&Json::Arr(Vec::new())));
}

#[test]
fn deeply_nested_bodies_are_refused_without_killing_the_server() {
    let addr = spawn_server();
    // One parser frame per `[` used to overflow the connection thread's
    // stack, which aborts the whole process.
    let (status, body) = request(addr, "POST", "/api/jobs", Some(&"[".repeat(100_000)));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("nesting deeper than"), "{body}");
    let (status, _) = request(addr, "GET", "/api/jobs", None);
    assert_eq!(status, "HTTP/1.1 200 OK");
}

/// Submits a job and returns its id.
fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let (status, body) = request(addr, "POST", "/api/jobs", Some(spec));
    assert_eq!(status, "HTTP/1.1 201 Created", "submit failed: {body}");
    Json::parse(&body)
        .expect("submit response JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("job id")
}

/// Sends `GET /api/jobs/:id/events` on `stream`.
fn request_events(mut stream: &TcpStream, id: u64) {
    write!(
        stream,
        "GET /api/jobs/{id}/events HTTP/1.1\r\nHost: test\r\n\r\n"
    )
    .expect("write events request");
}

/// Opens a job's SSE stream and reads its status line.
fn open_events(addr: SocketAddr, id: u64) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect SSE");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    request_events(&stream, id);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("SSE status line");
    assert!(line.starts_with("HTTP/1.1 200 OK"), "SSE refused: {line}");
    reader
}

/// Reads an SSE stream to its end (EOF once the job is terminal and
/// flushed) and returns the `event:` kinds in order.
fn collect_events(reader: &mut impl BufRead) -> Vec<String> {
    let mut kinds = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read SSE frame") == 0 {
            return kinds;
        }
        if let Some(kind) = line.trim_end().strip_prefix("event: ") {
            kinds.push(kind.to_string());
        }
    }
}

/// Submits a job, follows its SSE stream to completion, and returns the
/// collected `event:` kinds in order.
fn run_job_and_collect_events(addr: SocketAddr, spec: &str) -> (u64, Vec<String>) {
    let id = submit(addr, spec);
    (id, collect_events(&mut open_events(addr, id)))
}

#[test]
fn smoke_job_streams_progress_and_completes() {
    let addr = spawn_server();
    let (id, kinds) = run_job_and_collect_events(
        addr,
        r#"{"scenario":"smoke","messages":5,"seed":7,"strategy":{"kind":"ranked","best_fraction":0.25}}"#,
    );

    // The smoke scenario runs on one shard, so progress arrives as
    // runner-level chunk frames.
    assert!(
        kinds.iter().any(|k| k == "chunk" || k == "window"),
        "no progress frames in {kinds:?}"
    );
    assert!(kinds.iter().any(|k| k == "summary"));
    assert!(kinds.iter().any(|k| k == "result"));
    assert_eq!(kinds.last().map(String::as_str), Some("status"));

    let (status, job) = get_json(addr, &format!("/api/jobs/{id}"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(job.get("done_runs").and_then(Json::as_u64), Some(1));

    let (status, jobs) = get_json(addr, "/api/jobs");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        jobs.get("jobs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
}

#[test]
fn sweep_job_runs_every_value() {
    let addr = spawn_server();
    let (id, kinds) = run_job_and_collect_events(
        addr,
        r#"{"scenario":"smoke","messages":3,"seed":1,"strategy":{"kind":"ranked","best_fraction":0.5},"sweep":{"field":"best_fraction","values":[0.25,0.5]}}"#,
    );
    assert_eq!(kinds.iter().filter(|k| *k == "result").count(), 2);
    let (_, job) = get_json(addr, &format!("/api/jobs/{id}"));
    assert_eq!(job.get("done_runs").and_then(Json::as_u64), Some(2));
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
}

/// The acceptance-criterion run: the 1k preset (1000 nodes) on two
/// shards, so progress must arrive as conservative-window frames — at
/// least one per executed window batch — and on one shard, where the
/// same job streams chunk frames instead. Slower than the tier-1 budget
/// allows, hence ignored by default; CI's `server-smoke` job drives the
/// same path over curl.
#[test]
#[ignore = "multi-second 1k-preset run; exercised by the server-smoke CI job"]
fn preset_1k_job_streams_window_events_to_completion() {
    let addr = spawn_server();
    let (_, kinds) = run_job_and_collect_events(
        addr,
        r#"{"preset":"1k","messages":10,"seed":42,"shards":0}"#,
    );
    assert!(kinds.iter().any(|k| k == "chunk"), "no chunks: {kinds:?}");
    assert!(!kinds.iter().any(|k| k == "window"), "windows: {kinds:?}");

    let (id, kinds) = run_job_and_collect_events(
        addr,
        r#"{"preset":"1k","messages":10,"seed":42,"shards":2}"#,
    );
    let windows = kinds.iter().filter(|k| *k == "window").count() as u64;
    assert!(windows >= 1, "no window frames in {kinds:?}");
    let (_, job) = get_json(addr, &format!("/api/jobs/{id}"));
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
    let results = job.get("results").and_then(Json::as_arr).expect("results");
    let reported = results[0]
        .get("windows")
        .and_then(Json::as_u64)
        .expect("windows");
    // One SSE window frame per executed window batch (minus any frames
    // dropped past the event-log cap, which a 10-message run never hits).
    assert_eq!(windows, reported);
}

/// Sends raw bytes and returns the status line of the answer (empty if
/// the server closed without one).
fn raw_status(addr: SocketAddr, head: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(head).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response.lines().next().unwrap_or_default().to_string()
}

#[test]
fn oversized_and_malformed_heads_are_answered_and_closed() {
    use egm_server::http::{MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES};
    let addr = spawn_server();
    const TOO_LARGE: &str = "HTTP/1.1 431 Request Header Fields Too Large";

    // A header line that never ends within the limit (the tail the
    // server did not read must not cost the client its answer).
    let long = format!(
        "GET /api/jobs HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(4 * MAX_LINE_BYTES)
    );
    assert_eq!(raw_status(addr, long.as_bytes()), TOO_LARGE);
    // The same for the request line itself.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
    assert_eq!(raw_status(addr, long.as_bytes()), TOO_LARGE);

    let many = format!(
        "GET /api/jobs HTTP/1.1\r\n{}\r\n",
        "X-Pad: 1\r\n".repeat(MAX_HEADERS + 1)
    );
    assert_eq!(raw_status(addr, many.as_bytes()), TOO_LARGE);

    let length =
        |value: &str| format!("POST /api/jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
    for over in [
        "999999999999".to_string(),
        "9".repeat(40),
        (MAX_BODY_BYTES + 1).to_string(),
    ] {
        assert_eq!(
            raw_status(addr, length(&over).as_bytes()),
            "HTTP/1.1 413 Payload Too Large",
            "Content-Length: {over}"
        );
    }
    for bad in ["abc", "-1", "+5", ""] {
        assert_eq!(
            raw_status(addr, length(bad).as_bytes()),
            "HTTP/1.1 400 Bad Request",
            "Content-Length: {bad:?}"
        );
    }
    assert_eq!(
        raw_status(addr, b"NONSENSE\r\n\r\n"),
        "HTTP/1.1 400 Bad Request"
    );

    // Every limit met exactly is still a valid request: the longest
    // legal header line, the most header lines, the largest body.
    let spec = r#"{"scenario":"smoke","messages":2}"#;
    let body = format!("{spec}{}", " ".repeat(MAX_BODY_BYTES - spec.len()));
    let length_line = format!("Content-Length: {}\r\n", body.len());
    let pad_line = format!(
        "X-Pad: {}\r\n",
        "a".repeat(MAX_LINE_BYTES - "X-Pad: \r\n".len())
    );
    assert_eq!(pad_line.len(), MAX_LINE_BYTES);
    let filler = "X-Pad: 1\r\n".repeat(MAX_HEADERS - 2);
    let full = format!("POST /api/jobs HTTP/1.1\r\n{length_line}{pad_line}{filler}\r\n{body}");
    assert_eq!(raw_status(addr, full.as_bytes()), "HTTP/1.1 201 Created");
}

/// The small job the connection tests run beside held connections.
const SMOKE_JOB: &str = r#"{"scenario":"smoke","messages":5,"seed":7}"#;

#[test]
fn silent_and_trickling_clients_are_answered_408_while_a_job_completes() {
    let addr = spawn_server();
    let opened = Instant::now();
    let silent = TcpStream::connect(addr).expect("connect");
    // One byte every 200 ms: each read succeeds, only the whole-request
    // deadline stops it.
    let trickle = TcpStream::connect(addr).expect("connect");
    let mut writer = trickle.try_clone().expect("clone");
    std::thread::spawn(move || {
        for byte in b"GET /api/jobs HTTP/1.1\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" {
            if writer.write_all(&[*byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(200));
        }
    });

    let (_, kinds) = run_job_and_collect_events(addr, SMOKE_JOB);
    assert_eq!(kinds.last().map(String::as_str), Some("status"));

    for mut client in [silent, trickle] {
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut answer = String::new();
        client.read_to_string(&mut answer).expect("read the answer");
        assert!(
            answer.starts_with("HTTP/1.1 408 Request Timeout"),
            "{answer}"
        );
    }
    // The head timeout is 2 s, for the whole request as for each read.
    let held = opened.elapsed();
    assert!(held < Duration::from_secs(5), "held for {held:?}");
}

#[test]
fn held_streams_and_silent_connections_do_not_starve_a_new_job() {
    let addr = spawn_server();
    // Runs for seconds even in release builds; nothing waits for it.
    let long = submit(addr, r#"{"preset":"1k","messages":1000}"#);
    let held: Vec<_> = (0..16).map(|_| open_events(addr, long)).collect();
    let silent: Vec<_> = (0..4)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();

    let (id, kinds) = run_job_and_collect_events(addr, SMOKE_JOB);
    assert_eq!(kinds.last().map(String::as_str), Some("status"));
    let (_, job) = get_json(addr, &format!("/api/jobs/{id}"));
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
    // The held streams stayed open throughout: their job still runs.
    let (_, job) = get_json(addr, &format!("/api/jobs/{long}"));
    assert_eq!(job.get("status").and_then(Json::as_str), Some("running"));
    drop((held, silent));
}

#[test]
fn after_a_burst_of_streams_at_most_four_threads_wait_in_accept() {
    let server = bind_server(bench_record_path());
    let idle = server.idle_threads();
    let addr = server.spawn().expect("spawn connection threads");
    let (id, _) = run_job_and_collect_events(addr, SMOKE_JOB);

    // Connect all first, so every stream holds a thread at once.
    let burst: Vec<_> = (0..32)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    for stream in &burst {
        request_events(stream, id);
    }
    for stream in burst {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let kinds = collect_events(&mut BufReader::new(stream));
        assert_eq!(kinds.last().map(String::as_str), Some("status"));
    }

    // The cap is 4; one thread always waits for the next connection.
    let (status, _) = request(addr, "GET", "/api/jobs", None);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!((1..=4).contains(&idle()), "{} threads wait", idle());
}
