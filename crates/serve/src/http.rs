//! A deliberately minimal HTTP/1.1 subset: enough to parse the request line,
//! headers and a `Content-Length` body, and to render plain responses. No
//! chunked encoding and no connection reuse — the serving layer favours
//! predictability over protocol coverage, so every connection carries one
//! exchange and every response says `Connection: close`.

use std::io::Read;

/// Upper bound on request-head bytes (request line + headers, the bytes
/// before the `\r\n\r\n` terminator).
pub const MAX_HEAD: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included if any.
    pub path: String,
    /// Headers in arrival order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (case-insensitive), if the header was sent.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Connection closed or timed out mid-request.
    Io,
    /// Malformed request line or headers.
    BadRequest(&'static str),
    /// Head or body exceeded the fixed limits.
    TooLarge,
}

/// Reads one request from the stream, rejecting bodies over `max_body`
/// bytes with [`HttpError::TooLarge`] — before buffering them.
///
/// The head limit is a property of the bytes alone, whatever sizes the
/// reads return: a head of at most [`MAX_HEAD`] bytes is accepted, and a
/// longer one is rejected as soon as more than `MAX_HEAD + 3` bytes hold no
/// terminator (a terminator starting at `MAX_HEAD` still fits in that).
pub fn read_request_limited<S: Read>(
    stream: &mut S,
    max_body: usize,
) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Bytes already searched; a terminator may straddle the last read, so
    // the next search starts three bytes before them.
    let mut searched: usize = 0;
    let head_end = loop {
        let from = searched.saturating_sub(3);
        if let Some(pos) = find_head_end(&buf[from..]) {
            if from + pos > MAX_HEAD {
                return Err(HttpError::TooLarge);
            }
            break from + pos;
        }
        if buf.len() > MAX_HEAD + 3 {
            return Err(HttpError::TooLarge);
        }
        searched = buf.len();
        let n = stream.read(&mut chunk).map_err(|_| HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Io);
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = parse_head(&buf[..head_end])?;
    if head.content_length > max_body {
        return Err(HttpError::TooLarge);
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < head.content_length {
        let n = stream.read(&mut chunk).map_err(|_| HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Io);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(head.content_length);

    Ok(head.into_request(body))
}

/// A parsed request head: everything before the body, plus the
/// `Content-Length` the reader needs to frame the body.
#[derive(Debug)]
pub struct ParsedHead {
    /// Request method, as received.
    pub method: String,
    /// Request path, query string included.
    pub path: String,
    /// Headers in arrival order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Declared body length (`0` when no `Content-Length` was sent).
    pub content_length: usize,
}

impl ParsedHead {
    /// Completes the request with its body bytes.
    pub fn into_request(self, body: Vec<u8>) -> Request {
        Request {
            method: self.method,
            path: self.path,
            headers: self.headers,
            body,
        }
    }
}

/// Parses a complete request head (the bytes before `\r\n\r\n`, exclusive).
pub fn parse_head(head: &[u8]) -> Result<ParsedHead, HttpError> {
    let head =
        std::str::from_utf8(head).map_err(|_| HttpError::BadRequest("non-UTF-8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::BadRequest("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::BadRequest("missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(HttpError::BadRequest("missing path"))?
        .to_string();
    if !parts
        .next()
        .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.1") || v.eq_ignore_ascii_case("HTTP/1.0"))
    {
        return Err(HttpError::BadRequest("missing or unsupported HTTP version"));
    }

    let mut content_length = 0usize;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::BadRequest("bad content-length"))?;
            }
            headers.push((name, value.to_string()));
        }
    }
    Ok(ParsedHead {
        method,
        path,
        headers,
        content_length,
    })
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Renders a complete response to bytes, always with `Connection: close`.
pub fn render_response(
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(raw: &[u8]) -> Result<Request, HttpError> {
        read_request_limited(&mut &raw[..], 16 * 1024 * 1024)
    }

    #[test]
    fn parses_get() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read(raw).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.header("x-request-id"), None);
    }

    #[test]
    fn headers_are_lowercased_and_trimmed() {
        let raw = b"GET / HTTP/1.1\r\nX-Request-Id:  abc-123 \r\n\r\n";
        let req = read(raw).unwrap();
        assert_eq!(req.header("X-Request-Id"), Some("abc-123"));
        assert_eq!(req.headers[0].0, "x-request-id");
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /predict HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let req = read(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn body_truncated_to_content_length() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nabcdef";
        let req = read(raw).unwrap();
        assert_eq!(req.body, b"ab");
    }

    #[test]
    fn rejects_garbage() {
        let raw = b"NOT-HTTP\r\n\r\n";
        assert!(matches!(read(raw), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn rejects_oversized_content_length() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n";
        assert_eq!(read(raw), Err(HttpError::TooLarge));
    }

    #[test]
    fn custom_body_limit_applies() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(
            read_request_limited(&mut &raw[..], 4),
            Err(HttpError::TooLarge)
        );
        assert!(read_request_limited(&mut &raw[..], 5).is_ok());
    }

    #[test]
    fn eof_mid_request_is_io() {
        let raw = b"GET /x HTTP/1.1\r\n";
        assert_eq!(read(raw), Err(HttpError::Io));
    }

    #[test]
    fn response_shape() {
        let out = render_response(200, "OK", "text/plain", &[], b"yes");
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 3\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.ends_with("\r\n\r\nyes"));
    }

    #[test]
    fn extra_headers_land_in_head() {
        let out = render_response(
            503,
            "Service Unavailable",
            "text/plain",
            &[("Retry-After", "1")],
            b"busy",
        );
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Retry-After: 1\r\n"));
        assert!(s.ends_with("\r\n\r\nbusy"));
    }
}
