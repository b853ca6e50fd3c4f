//! Property suite for the request reader: no byte stream makes
//! `read_request` panic or hand back a request over its limits, and every
//! well-formed request comes back exactly as it was written. Streams are
//! built from drawn `u64` words so the vendored proptest (ranges and
//! vectors only) can reach request lines, headers and bodies. The
//! over-limit statuses are pinned end to end in `http_api.rs`.

use egm_server::http::{read_request, MAX_BODY_BYTES, MAX_HEADERS};
use proptest::prelude::*;

/// Upper bound on a drawn byte stream.
const MAX_STREAM_BYTES: usize = 16 << 10;

/// Pieces of HTTP, so lossy streams get past the request line and into
/// headers, lengths and bodies before they go wrong. The run of `a`s
/// reaches the line-length limit.
const FRAGMENTS: [&[u8]; 16] = [
    b"GET ",
    b"POST ",
    b"/api/jobs",
    b"?",
    b"q=1&r",
    b" HTTP/1.1",
    b"\r\n",
    b"\n",
    b"Content-Length: ",
    b"content-length:",
    b"7",
    b"18446744073709551616",
    b"X-Filler: v",
    b":",
    b" ",
    &[b'a'; 1024],
];

const METHODS: [&str; 6] = ["GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS"];
const WORDS: [&str; 8] = ["api", "jobs", "events", "bench", "0", "42", "x-y", "a.b"];
const LENGTH_NAMES: [&str; 3] = ["Content-Length", "content-length", "CONTENT-LENGTH"];

/// `/`-joined path words picked by the bits of `word`: the root for an
/// empty draw, up to seven segments otherwise.
fn path_from(word: u64) -> String {
    let segments: Vec<&str> = (0..word % 8)
        .map(|i| WORDS[((word >> (3 + 3 * i)) & 7) as usize])
        .collect();
    format!("/{}", segments.join("/"))
}

proptest! {
    #[test]
    fn arbitrary_streams_never_panic_or_exceed_limits(
        draws in prop::collection::vec(0u64..u64::MAX, 0..4_000),
    ) {
        // A quarter of the draws are raw bytes, the rest fragments.
        let mut bytes: Vec<u8> = draws
            .iter()
            .flat_map(|&d| match d % 4 {
                0 => vec![(d >> 8) as u8],
                _ => FRAGMENTS[(d >> 8) as usize % FRAGMENTS.len()].to_vec(),
            })
            .collect();
        bytes.truncate(MAX_STREAM_BYTES);
        // Returning at all is the property; what is accepted obeys the
        // limits.
        if let Ok(Some(request)) = read_request(&mut bytes.as_slice()) {
            prop_assert!(request.body.len() <= MAX_BODY_BYTES);
            prop_assert!(!request.path.contains('?'), "{:?}", request.path);
        }
    }

    #[test]
    fn well_formed_requests_round_trip(
        shape in (0usize..METHODS.len(), 0u64..u64::MAX, 0u64..u64::MAX),
        fillers in 0usize..MAX_HEADERS,
        body in prop::collection::vec(0u32..256, 0..4_097),
    ) {
        let (method, path_word, query_word) = shape;
        let method = METHODS[method];
        let path = path_from(path_word);
        let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();

        // Filler headers plus one Content-Length among them: at most
        // `MAX_HEADERS` header lines in all.
        let mut headers: Vec<String> = (0..fillers)
            .map(|i| format!("X-Filler-{i}: {}", WORDS[i % WORDS.len()]))
            .collect();
        let name = LENGTH_NAMES[(query_word >> 8) as usize % LENGTH_NAMES.len()];
        let at = (query_word >> 16) as usize % (fillers + 1);
        headers.insert(at, format!("{name}: {}", body.len()));

        let target = match query_word % 3 {
            0 => path.clone(),
            1 => format!("{path}?"),
            _ => format!("{path}?{}={}", WORDS[query_word as usize % 8], query_word >> 32),
        };
        let mut stream = format!("{method} {target} HTTP/1.1\r\n").into_bytes();
        for header in &headers {
            stream.extend_from_slice(header.as_bytes());
            stream.extend_from_slice(b"\r\n");
        }
        stream.extend_from_slice(b"\r\n");
        stream.extend_from_slice(&body);

        let request = read_request(&mut stream.as_slice())
            .unwrap_or_else(|refusal| panic!("refused {refusal:?}"))
            .expect("a whole request");
        prop_assert_eq!(request.method, method);
        prop_assert_eq!(request.path, path);
        prop_assert_eq!(request.body, body);
    }
}
