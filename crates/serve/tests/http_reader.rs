//! Delivery-independence of the request reader.
//!
//! A socket hands [`read_request_limited`] whatever byte slices the network
//! produced. What a request parses to must depend on its bytes alone: for
//! every entry in the corpus, 1-byte reads, random-size reads and
//! whole-buffer delivery give the same request or the same error, and that
//! outcome is the one the corpus expects.
//!
//! The corpus includes heads on both sides of the `MAX_HEAD` boundary, where
//! a limit checked only between reads made the outcome depend on the read
//! sizes.

use dfp_serve::http::{read_request_limited, HttpError, Request, MAX_HEAD};
use dfp_serve::ServerConfig;
use proptest::prelude::*;
use std::io::{self, Read};
use std::sync::OnceLock;

/// Body limit of a default server.
fn max_body() -> usize {
    ServerConfig::default().max_body_bytes
}

/// The outcome a corpus entry must produce under every delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    Request,
    BadRequest,
    TooLarge,
    Io,
}

fn kind(outcome: &Result<Request, HttpError>) -> Want {
    match outcome {
        Ok(_) => Want::Request,
        Err(HttpError::BadRequest(_)) => Want::BadRequest,
        Err(HttpError::TooLarge) => Want::TooLarge,
        Err(HttpError::Io) => Want::Io,
    }
}

/// Renders a raw request with an explicit `X-Request-Id`.
fn raw(
    method: &str,
    path: &str,
    version: &str,
    rid: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> Vec<u8> {
    let mut head = format!("{method} {path} {version}\r\nHost: t\r\nX-Request-Id: {rid}\r\n");
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if !body.is_empty() {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// A request whose head (the bytes before `\r\n\r\n`) is exactly
/// `head_len` bytes long, followed by `body`.
fn padded_head(head_len: usize, rid: &str, body: &str) -> Vec<u8> {
    let base = format!(
        "POST /predict HTTP/1.1\r\nX-Request-Id: {rid}\r\nContent-Length: {}\r\nx-pad: ",
        body.len()
    );
    let pad = head_len
        .checked_sub(base.len())
        .expect("head_len larger than the fixed prefix");
    let mut out = base.into_bytes();
    out.extend(std::iter::repeat_n(b'a', pad));
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body.as_bytes());
    out
}

/// Every request shape the live serve tests send, plus malformed,
/// truncated and limit-straddling entries, each with its outcome.
fn corpus() -> &'static Vec<(Vec<u8>, Want)> {
    static CORPUS: OnceLock<Vec<(Vec<u8>, Want)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let close = [("Connection", "close")];
        let rows = "v1,v1,v0\nv1,v2,v1\n";
        let truncated = {
            let mut v = raw("POST", "/predict", "HTTP/1.1", "eof", &[], rows);
            v.truncate(v.len() - 5);
            v
        };
        vec![
            (
                raw("GET", "/healthz", "HTTP/1.1", "hz", &close, ""),
                Want::Request,
            ),
            (
                raw("GET", "/healthz", "HTTP/1.1", "hz-keep", &[], ""),
                Want::Request,
            ),
            (
                raw("GET", "/healthz", "HTTP/1.0", "hz-10", &[], ""),
                Want::Request,
            ),
            (
                raw("POST", "/predict", "HTTP/1.1", "pr", &close, rows),
                Want::Request,
            ),
            (
                raw("POST", "/predict", "HTTP/1.1", "pr-keep", &[], "v1,v2,v0\n"),
                Want::Request,
            ),
            (
                raw("POST", "/predict", "HTTP/1.1", "pr-empty", &[], "\n\n"),
                Want::Request,
            ),
            (
                raw("POST", "/predict", "HTTP/1.1", "pr-bad", &[], "nope,v1\n"),
                Want::Request,
            ),
            (
                raw("GET", "/no-such-route", "HTTP/1.1", "nf", &close, ""),
                Want::Request,
            ),
            (
                raw("PUT", "/predict", "HTTP/1.1", "method", &[], "v1,v1,v0\n"),
                Want::Request,
            ),
            (b"NOT-HTTP\r\n\r\n".to_vec(), Want::BadRequest),
            (
                b"POST /predict HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n".to_vec(),
                Want::TooLarge,
            ),
            // EOF inside the declared body, and inside the head.
            (truncated, Want::Io),
            (b"GET /healthz HTTP/1.1\r\nHost: t\r\n".to_vec(), Want::Io),
            // The head limit, with a body riding in the same reads.
            (padded_head(MAX_HEAD - 1, "under", rows), Want::Request),
            (padded_head(MAX_HEAD, "at", rows), Want::Request),
            (padded_head(MAX_HEAD + 1, "over", rows), Want::TooLarge),
            (padded_head(MAX_HEAD + 600, "over-600", ""), Want::TooLarge),
            (
                padded_head(MAX_HEAD + 1100, "over-1100", ""),
                Want::TooLarge,
            ),
            // No terminator at all, 20k of head bytes.
            (
                {
                    let mut v = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
                    v.extend(std::iter::repeat_n(b'a', 20_000));
                    v
                },
                Want::TooLarge,
            ),
        ]
    })
}

/// Hands out `raw` in reads of the given sizes, cycled.
struct Chunked<'a> {
    raw: &'a [u8],
    sizes: &'a [usize],
    turn: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let size = self.sizes[self.turn % self.sizes.len()].max(1);
        self.turn += 1;
        let n = size.min(buf.len()).min(self.raw.len());
        buf[..n].copy_from_slice(&self.raw[..n]);
        self.raw = &self.raw[n..];
        Ok(n)
    }
}

fn read_in(raw: &[u8], sizes: &[usize]) -> Result<Request, HttpError> {
    let mut reader = Chunked {
        raw,
        sizes,
        turn: 0,
    };
    read_request_limited(&mut reader, max_body())
}

/// Whole-buffer delivery: each read returns as much as the reader asks for.
fn read_whole(raw: &[u8]) -> Result<Request, HttpError> {
    read_request_limited(&mut &raw[..], max_body())
}

/// Every entry, under whole-buffer delivery, 1-byte reads and fixed read
/// sizes on either side of the reader's own buffer, gives its expected
/// outcome — and the same one each time.
#[test]
fn every_delivery_gives_the_expected_outcome() {
    for (i, (rawb, want)) in corpus().iter().enumerate() {
        let whole = read_whole(rawb);
        assert_eq!(kind(&whole), *want, "entry {i}: {whole:?}");
        for sizes in [&[1][..], &[100], &[512], &[1024], &[1000, 7, 3000]] {
            let outcome = read_in(rawb, sizes);
            assert_eq!(outcome, whole, "entry {i} diverged with reads of {sizes:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any random split of any entry parses to exactly what whole-buffer
    /// delivery gives: same request, or same error.
    #[test]
    fn random_read_sizes_match_whole_buffer_delivery(
        case in 0usize..corpus().len(),
        sizes in prop::collection::vec(1usize..2048, 1..24),
    ) {
        let rawb = &corpus()[case].0;
        prop_assert_eq!(read_in(rawb, &sizes), read_whole(rawb));
    }
}
