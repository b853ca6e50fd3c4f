//! Minimal HTTP/1.1 plumbing: request parsing, response writing, and
//! SSE framing.
//!
//! One connection serves one request (`Connection: close`), which keeps
//! the server free of keep-alive state machines; SSE connections stay
//! open for the lifetime of their stream. Every part of a request is
//! bounded before it is buffered: the request line and each header line
//! by [`MAX_LINE_BYTES`], the header count by [`MAX_HEADERS`], the body
//! by [`MAX_BODY_BYTES`], and the time the client takes to send it all
//! by a head timeout (answered `408`). Writes have a timeout too, so a
//! client that stops reading frees its connection thread.
//!
//! Every response leaves in one `write_all`: [`respond`] renders head and
//! body into one buffer, and an SSE stream ([`start_sse`]) holds its head
//! back for the first batch of frames and then writes each batch at
//! once. The writers take any [`Write`], so that property is testable
//! without a socket.

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
/// How long a client may take to send its whole request, and how long
/// any one read of it may wait: a silent client is answered `408` after
/// this long, one that trickles bytes after at most twice this long.
const HEAD_TIMEOUT: Duration = Duration::from_secs(2);
/// How long one write may block on a client that does not read before
/// the connection is given up.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long [`refuse`] keeps discarding the client's input before it
/// closes.
const LINGER: Duration = Duration::from_millis(250);

/// The head of every SSE response.
const SSE_HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nAccess-Control-Allow-Origin: *\r\nConnection: close\r\n\r\n";

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
/// message the server answers with before the connection is closed.
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
const REQUEST_TIMEOUT: Refusal = Refusal {
    status: "408 Request Timeout",
    message: "request not received in time",
};

/// Whether a read failed because the client stayed silent past a
/// timeout (a socket read timeout surfaces as `WouldBlock` on Unix).
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] without
/// ever buffering more than that. `Ok(None)` means the peer closed (or
/// the read failed) before the line ended.
fn read_line(stream: &mut impl BufRead) -> Result<Option<String>, Refusal> {
    let mut line = Vec::new();
    let read = match stream
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut line)
    {
        Ok(read) => read,
        Err(e) if timed_out(&e) => return Err(REQUEST_TIMEOUT),
        Err(_) => return Ok(None),
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
/// `Err` is a request the server will not read to the end — over a
/// limit, malformed, or too slow — which [`receive`] answers with the
/// refusal's status before closing.
pub fn read_request(stream: &mut impl BufRead) -> Result<Option<Request>, Refusal> {
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
    match stream.read_exact(&mut body) {
        Ok(()) => Ok(Some(Request {
            method: method.to_string(),
            path,
            body,
        })),
        Err(e) if timed_out(&e) => Err(REQUEST_TIMEOUT),
        Err(_) => Ok(None),
    }
}

/// The request side of a connection: every read fails once
/// [`HEAD_TIMEOUT`] has passed since the connection was accepted, so a
/// client that trickles its request gets no more time than a silent one
/// (the socket's read timeout bounds each single wait).
struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if Instant::now() >= self.until {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.read(buf)
    }
}

/// Reads the one request a connection carries, after giving the
/// connection its read and write timeouts. `None` means there is nothing
/// to route: the peer closed early, or the request was refused and has
/// already been answered.
pub fn receive(stream: &TcpStream) -> Option<Request> {
    stream.set_read_timeout(Some(HEAD_TIMEOUT)).ok()?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok()?;
    let mut reader = BufReader::new(Deadline {
        stream,
        until: Instant::now() + HEAD_TIMEOUT,
    });
    match read_request(&mut reader) {
        Ok(request) => request,
        Err(refusal) => {
            refuse(stream, &refusal);
            None
        }
    }
}

/// Answers a refused request, then closes. What the client has already
/// sent is read and discarded for up to 250 ms first: closing a socket
/// with unread input resets the connection, and the reset can reach the
/// client ahead of the answer.
fn refuse(mut stream: &TcpStream, refusal: &Refusal) {
    let _ = respond_error(&mut stream, refusal.status, refusal.message);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER));
    let until = Instant::now() + LINGER;
    let mut discard = [0u8; 4096];
    while Instant::now() < until && matches!(stream.read(&mut discard), Ok(n) if n > 0) {}
}

/// Writes a complete response with the given status line, content type
/// and body in one `write_all`, then closes (via `Connection: close`).
pub fn respond(
    out: &mut impl Write,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nAccess-Control-Allow-Origin: *\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    out.write_all(response.as_bytes())?;
    out.flush()
}

/// Writes a JSON response.
pub fn respond_json(out: &mut impl Write, status: &str, body: &str) -> io::Result<()> {
    respond(out, status, "application/json", body)
}

/// Writes a JSON error envelope `{"error": ...}`.
pub fn respond_error(out: &mut impl Write, status: &str, message: &str) -> io::Result<()> {
    let body = crate::json::Json::obj(vec![("error", crate::json::Json::str(message))]).render();
    respond_json(out, status, &body)
}

/// An SSE response in progress: frames queue with [`SseStream::push`]
/// and leave together, one `write_all` per [`SseStream::send`].
#[derive(Debug)]
pub struct SseStream<W> {
    out: W,
    batch: String,
}

/// Starts an SSE response on `out`. Nothing is written yet: the head
/// goes out with the first batch of frames.
pub fn start_sse<W: Write>(out: W) -> SseStream<W> {
    SseStream {
        out,
        batch: SSE_HEAD.to_string(),
    }
}

impl<W: Write> SseStream<W> {
    /// Queues one pre-rendered frame (`event: ...\ndata: ...\n\n`).
    pub fn push(&mut self, frame: &str) {
        self.batch.push_str(frame);
    }

    /// Writes everything queued since the last call — the head included,
    /// the first time — in one `write_all`; nothing when nothing is
    /// queued.
    pub fn send(&mut self) -> io::Result<()> {
        self.out.write_all(self.batch.as_bytes())?;
        self.batch.clear();
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A writer that keeps each `write` call it receives as one entry.
    #[derive(Clone, Default)]
    struct WriteLog(Rc<RefCell<Vec<String>>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let text = String::from_utf8(buf.to_vec()).expect("UTF-8 output");
            self.0.borrow_mut().push(text);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl WriteLog {
        fn writes(&self) -> Vec<String> {
            self.0.borrow().clone()
        }
    }

    #[test]
    fn a_response_is_one_write_of_head_and_body() {
        let log = WriteLog::default();
        respond_json(&mut log.clone(), "201 Created", "{\"id\":0}").unwrap();
        assert_eq!(
            log.writes(),
            [
                "HTTP/1.1 201 Created\r\nContent-Type: application/json\r\nContent-Length: 8\r\n\
              Access-Control-Allow-Origin: *\r\nConnection: close\r\n\r\n{\"id\":0}"
            ]
        );
    }

    #[test]
    fn an_sse_stream_writes_its_head_with_the_first_batch_then_one_write_per_batch() {
        let log = WriteLog::default();
        let queued = "event: status\ndata: {\"status\":\"queued\"}\n\n";
        let running = "event: status\ndata: {\"status\":\"running\"}\n\n";
        let done = "event: status\ndata: {\"status\":\"done\"}\n\n";

        let mut sse = start_sse(log.clone());
        assert!(
            log.writes().is_empty(),
            "the head waits for the first batch"
        );
        sse.push(queued);
        sse.push(running);
        sse.send().unwrap();
        let head =
            "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\n\
                    Access-Control-Allow-Origin: *\r\nConnection: close\r\n\r\n";
        assert_eq!(log.writes(), [format!("{head}{queued}{running}")]);

        sse.push(done);
        sse.send().unwrap();
        sse.send().unwrap();
        assert_eq!(log.writes().len(), 2, "an empty batch writes nothing");
        assert_eq!(log.writes()[1], done);
    }

    #[test]
    fn a_read_that_times_out_is_refused_408() {
        struct Silent;
        impl Read for Silent {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::WouldBlock.into())
            }
        }
        let refusal = read_request(&mut BufReader::new(Silent)).unwrap_err();
        assert_eq!(refusal.status, "408 Request Timeout");

        // The same once the head is in but the body stalls.
        let head: &[u8] = b"POST /api/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nab";
        let refusal = read_request(&mut BufReader::new(head.chain(Silent))).unwrap_err();
        assert_eq!(refusal.status, "408 Request Timeout");
    }
}
