//! Minimal HTTP/1.1 plumbing: request parsing, response writing, and
//! SSE framing over a plain [`TcpStream`].
//!
//! One connection serves one request (`Connection: close`), which keeps
//! the server free of keep-alive state machines; SSE connections stay
//! open for the lifetime of their stream. Every part of a request is
//! bounded before it is buffered: the request line and each header line
//! by [`MAX_LINE_BYTES`], the header count by [`MAX_HEADERS`], the body
//! by [`MAX_BODY_BYTES`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on accepted request bodies (jobs are small JSON specs).
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Upper bound on the request line and on each header line, terminator
/// included.
pub const MAX_LINE_BYTES: usize = 8 << 10;
/// Upper bound on the number of header lines in one request.
pub const MAX_HEADERS: usize = 64;
/// How long [`refuse`] keeps discarding the client's input before it
/// closes.
const LINGER: Duration = Duration::from_millis(250);

/// A parsed HTTP request: method, percent-decoded-free path, and body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Request path without the query string.
    pub path: String,
    /// Raw body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Why [`read_request`] stopped reading a request: the status line and
/// message [`refuse`] answers with before the connection is closed.
#[derive(Debug)]
pub struct Refusal {
    /// Status code and reason phrase.
    pub status: &'static str,
    /// Text of the JSON error envelope.
    pub message: &'static str,
}

const LINE_TOO_LONG: Refusal = Refusal {
    status: "431 Request Header Fields Too Large",
    message: "request line or header line too long",
};
const TOO_MANY_HEADERS: Refusal = Refusal {
    status: "431 Request Header Fields Too Large",
    message: "too many header lines",
};
const BODY_TOO_LARGE: Refusal = Refusal {
    status: "413 Payload Too Large",
    message: "request body too large",
};
const BAD_REQUEST: Refusal = Refusal {
    status: "400 Bad Request",
    message: "malformed request head",
};

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] without
/// ever buffering more than that. `Ok(None)` means the peer closed (or
/// the read failed) before the line ended.
fn read_line(stream: &mut BufReader<TcpStream>) -> Result<Option<String>, Refusal> {
    let mut line = Vec::new();
    let Ok(read) = stream
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut line)
    else {
        return Ok(None);
    };
    if line.last() != Some(&b'\n') {
        return if read == MAX_LINE_BYTES {
            Err(LINE_TOO_LONG)
        } else {
            Ok(None)
        };
    }
    String::from_utf8(line).map(Some).map_err(|_| BAD_REQUEST)
}

/// Reads one request from the stream. `Ok(None)` means the connection
/// closed before a whole request arrived (the caller just drops it);
/// `Err` is a request the server will not read to the end — over a limit
/// or malformed — which the caller answers through [`refuse`].
pub fn read_request(stream: &mut BufReader<TcpStream>) -> Result<Option<Request>, Refusal> {
    let Some(line) = read_line(stream)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(BAD_REQUEST);
    };
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    for seen in 0.. {
        let Some(header) = read_line(stream)? else {
            return Ok(None);
        };
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if seen == MAX_HEADERS {
            return Err(TOO_MANY_HEADERS);
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let digits = value.trim();
                if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(BAD_REQUEST);
                }
                // A digit string `usize` cannot hold is over the limit too.
                content_length = match digits.parse() {
                    Ok(n) if n <= MAX_BODY_BYTES => n,
                    _ => return Err(BODY_TOO_LARGE),
                };
            }
        }
    }
    let mut body = vec![0u8; content_length];
    if stream.read_exact(&mut body).is_err() {
        return Ok(None);
    }
    Ok(Some(Request {
        method: method.to_string(),
        path,
        body,
    }))
}

/// Answers a request [`read_request`] refused, then closes. What the
/// client has already sent is read and discarded for up to 250 ms
/// first: closing a socket with unread input resets the connection, and
/// the reset can reach the client ahead of the answer.
pub fn refuse(stream: &mut TcpStream, unread: &mut BufReader<TcpStream>, refusal: &Refusal) {
    let _ = respond_error(stream, refusal.status, refusal.message);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER));
    let until = Instant::now() + LINGER;
    let mut discard = [0u8; 4096];
    while Instant::now() < until && matches!(unread.read(&mut discard), Ok(n) if n > 0) {}
}

/// Writes a complete response with the given status line, content type
/// and body, then closes (via `Connection: close`).
pub fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nAccess-Control-Allow-Origin: *\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Writes a JSON response.
pub fn respond_json(stream: &mut TcpStream, status: &str, body: &str) -> io::Result<()> {
    respond(stream, status, "application/json", body)
}

/// Writes a JSON error envelope `{"error": ...}`.
pub fn respond_error(stream: &mut TcpStream, status: &str, message: &str) -> io::Result<()> {
    let body = crate::json::Json::obj(vec![("error", crate::json::Json::str(message))]).render();
    respond_json(stream, status, &body)
}

/// Starts an SSE response: headers only; the caller then writes frames
/// (`event: ...\ndata: ...\n\n`) as they become available and keeps the
/// connection open until the stream ends.
pub fn start_sse(stream: &mut TcpStream) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nAccess-Control-Allow-Origin: *\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}
