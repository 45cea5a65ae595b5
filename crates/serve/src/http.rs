//! A hand-rolled HTTP/1.1 request parser and response writer.
//!
//! The workspace builds with no registry access, so the serve stack cannot
//! pull hyper or httparse; this module implements the subset the lookup
//! service needs: request line + headers + `Content-Length` bodies,
//! keep-alive, and pipelining. The parser is an incremental push parser —
//! bytes arrive in arbitrary splits via [`RequestParser::feed`] and
//! [`RequestParser::poll`] yields complete requests — because a TCP read
//! boundary carries no message semantics and the property tests feed every
//! possible split. A polled [`Request`] borrows the parser's buffer, so
//! parsing copies and allocates nothing.
//!
//! Error behavior is the contract the battery pins: malformed input of any
//! shape must never panic and must map to a *deterministic* 400 (same
//! bytes in, same diagnostic out). Unsupported features are rejected
//! explicitly (chunked transfer encoding) rather than misparsed.
//!
//! A response is a head written by `write_head` plus the body bytes, sent
//! together by `write_parts` without being copied into one buffer.

use std::io::{self, IoSlice, Write};

use p2o_util::json::write_u64;

/// Maximum size of the request line + header section, in bytes.
pub const MAX_HEAD: usize = 8 * 1024;
/// Maximum `Content-Length` accepted, in bytes.
pub const MAX_BODY: usize = 1024 * 1024;
/// The request-buffer capacity a parser keeps between requests. A
/// 1,000-line `/batch` body of xl-world queries is about 16 KB (32 KiB of
/// capacity as 16 KiB reads arrive), and one of the longest CIDRs (44 B a
/// line) 44 KB; both fit. [`RequestParser::release`] gives back the excess
/// of a larger request.
pub const KEPT_REQUEST_CAPACITY: usize = 64 << 10;

/// A malformed request: the connection should answer 400 and close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One parsed HTTP/1.1 request, borrowed from the parser's buffer: it
/// lives until the next [`RequestParser::feed`] or
/// [`RequestParser::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    /// The method verb, as sent (e.g. `GET`).
    pub method: &'a str,
    /// The request-target, as sent (path + optional `?query`).
    pub target: &'a str,
    /// The header lines as sent, after the request line.
    header_lines: &'a str,
    /// The message body (empty without `Content-Length`).
    pub body: &'a [u8],
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl<'a> Request<'a> {
    /// The target's path component (everything before `?`).
    pub fn path(&self) -> &'a str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => self.target,
        }
    }

    /// The target's query component (everything after `?`), if any.
    pub fn query(&self) -> Option<&'a str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The value of query parameter `key` (`key=value`, `&`-separated).
    pub fn query_param(&self, key: &str) -> Option<&'a str> {
        self.query()?
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// Header `(name, value)` pairs in the order sent: names as sent,
    /// values trimmed.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        header_lines(self.header_lines)
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name, value.trim()))
    }

    /// The first value of header `name`, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }
}

/// Incremental request parser: [`feed`] bytes, [`poll`] requests.
///
/// [`feed`]: RequestParser::feed
/// [`poll`]: RequestParser::poll
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// How many bytes at the front of `buf` polled requests (and the
    /// noise between them) have consumed; the next `feed` drops them.
    consumed: usize,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends bytes read from the connection, first dropping what the
    /// requests polled so far consumed.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Gives back the buffer's capacity above [`KEPT_REQUEST_CAPACITY`]
    /// when nothing past the requests polled so far is buffered; called
    /// once each response is written, so an idle connection does not hold
    /// the largest request it was sent.
    pub fn release(&mut self) {
        if self.buffered() == 0 && self.buf.capacity() > KEPT_REQUEST_CAPACITY {
            self.buf.clear();
            self.consumed = 0;
            self.buf.shrink_to(KEPT_REQUEST_CAPACITY);
        }
    }

    /// Yields the next complete request, `None` when more bytes are
    /// needed, or the deterministic 400 for malformed input. Pipelined
    /// requests come out one `poll` at a time.
    pub fn poll(&mut self) -> Result<Option<Request<'_>>, BadRequest> {
        // Robustness (RFC 9112 §2.2): skip CRLF/LF noise between messages.
        self.consumed += self.buf[self.consumed..]
            .iter()
            .take_while(|&&b| b == b'\r' || b == b'\n')
            .count();
        let buf = &self.buf[self.consumed..];
        let Some(head_len) = find_head_end(buf) else {
            if buf.len() > MAX_HEAD {
                return Err(head_too_large());
            }
            return Ok(None);
        };
        if head_len > MAX_HEAD {
            return Err(head_too_large());
        }
        let head = std::str::from_utf8(&buf[..head_len])
            .map_err(|_| BadRequest("header section is not valid UTF-8".into()))?;
        // A head always holds the newline that ends it.
        let (request_line, header_lines) = head.split_once('\n').unwrap_or((head, ""));
        let (method, target, version) = parse_request_line(request_line)?;
        let framing = Framing::scan(header_lines)?;
        let total = head_len + framing.body_length()?;
        if buf.len() < total {
            return Ok(None);
        }
        let keep_alive = match framing.connection {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => version == "HTTP/1.1",
        };
        self.consumed += total;
        Ok(Some(Request {
            method,
            target,
            header_lines,
            body: &buf[head_len..total],
            keep_alive,
        }))
    }
}

fn head_too_large() -> BadRequest {
    BadRequest(format!("header section exceeds {MAX_HEAD} bytes"))
}

/// Finds the end of the header section: offset just past `\r\n\r\n` (or a
/// lenient `\n\n`).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(k) = buf[from..].iter().position(|&b| b == b'\n') {
        let i = from + k;
        // "\n\r\n" / "\n\n" both terminate.
        match buf.get(i + 1) {
            Some(b'\n') => return Some(i + 2),
            Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
            _ => from = i + 1,
        }
    }
    None
}

/// Splits and checks the request line (without its newline) into method,
/// target and version.
fn parse_request_line(line: &str) -> Result<(&str, &str, &str), BadRequest> {
    let line = line.trim_end_matches('\r');
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(BadRequest(format!("bad method in request line {line:?}")));
    }
    if target.is_empty() || !target.starts_with('/') {
        return Err(BadRequest(format!(
            "bad request-target in request line {line:?}"
        )));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(BadRequest(format!(
            "unsupported protocol version in request line {line:?}"
        )));
    }
    if parts.next().is_some() {
        return Err(BadRequest(format!("malformed request line {line:?}")));
    }
    Ok((method, target, version))
}

/// The header lines of a head, up to the blank line that ends it.
fn header_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(|line| line.trim_end_matches('\r'))
        .take_while(|line| !line.is_empty())
}

/// What the headers say about framing and the connection, gathered in the
/// one pass that checks every header line.
#[derive(Default)]
struct Framing<'a> {
    /// The first `Content-Length` value.
    content_length: Option<&'a str>,
    /// A later `Content-Length` differs from the first.
    conflicting_lengths: bool,
    /// Any `Transfer-Encoding` header was sent.
    transfer_encoding: bool,
    /// The first `Connection` value.
    connection: Option<&'a str>,
}

impl<'a> Framing<'a> {
    /// Checks each header line's shape, in order, and notes the framing
    /// headers. Names match case-insensitively; values are trimmed.
    fn scan(text: &'a str) -> Result<Framing<'a>, BadRequest> {
        let mut framing = Framing::default();
        for line in header_lines(text) {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| BadRequest(format!("header line without a colon: {line:?}")))?;
            if name.is_empty()
                || !name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return Err(BadRequest(format!("bad header name {name:?}")));
            }
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                match framing.content_length {
                    None => framing.content_length = Some(value),
                    Some(first) => framing.conflicting_lengths |= first != value,
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                framing.transfer_encoding = true;
            } else if name.eq_ignore_ascii_case("connection") && framing.connection.is_none() {
                framing.connection = Some(value);
            }
        }
        Ok(framing)
    }

    /// The body length: 0 without `Content-Length`, rejecting chunked
    /// encoding, conflicting duplicates, non-numeric and oversized
    /// lengths.
    fn body_length(&self) -> Result<usize, BadRequest> {
        if self.transfer_encoding {
            return Err(BadRequest("chunked transfer encoding not supported".into()));
        }
        let Some(first) = self.content_length else {
            return Ok(0);
        };
        if self.conflicting_lengths {
            return Err(BadRequest("conflicting Content-Length headers".into()));
        }
        let n: usize = first
            .parse()
            .map_err(|_| BadRequest(format!("bad Content-Length {first:?}")))?;
        if n > MAX_BODY {
            return Err(BadRequest(format!(
                "Content-Length {n} exceeds the {MAX_BODY}-byte limit"
            )));
        }
        Ok(n)
    }
}

/// The reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response header's value: text as given, or a number in decimal.
#[derive(Clone, Copy)]
pub(crate) enum HeaderValue<'a> {
    /// Written as is.
    Text(&'a str),
    /// Written in decimal.
    Number(u64),
}

/// The headers that stamp every response: the serial and digest of the
/// snapshot that answered it, and its request id.
pub(crate) fn stamp(
    serial: u64,
    snapshot: &str,
    request_id: u64,
) -> [(&'static str, HeaderValue<'_>); 3] {
    [
        ("X-P2O-Serial", HeaderValue::Number(serial)),
        ("X-P2O-Snapshot", HeaderValue::Text(snapshot)),
        ("X-P2O-Request-Id", HeaderValue::Number(request_id)),
    ]
}

/// Appends the head of one HTTP/1.1 response to `out`: the status line,
/// `Content-Type`, `Content-Length` framing for a body of `content_length`
/// bytes, each of `headers`, and the blank line that ends the head. Text
/// is appended as is and numbers are written by [`write_u64`]; nothing is
/// formatted.
pub(crate) fn write_head<'a>(
    out: &mut String,
    status: u16,
    content_type: &str,
    content_length: usize,
    headers: impl IntoIterator<Item = (&'a str, HeaderValue<'a>)>,
) {
    // Writes into a `String` cannot fail.
    out.push_str("HTTP/1.1 ");
    let _ = write_u64(out, status.into());
    out.push(' ');
    out.push_str(reason(status));
    out.push_str("\r\nContent-Type: ");
    out.push_str(content_type);
    out.push_str("\r\nContent-Length: ");
    let _ = write_u64(out, content_length as u64);
    out.push_str("\r\n");
    for (name, value) in headers {
        out.push_str(name);
        out.push_str(": ");
        match value {
            HeaderValue::Text(text) => out.push_str(text),
            HeaderValue::Number(n) => {
                let _ = write_u64(out, n);
            }
        }
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
}

/// Serializes one HTTP/1.1 response with `Content-Length` framing: the
/// head `write_head` writes, then the body.
pub fn response(
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
) -> Vec<u8> {
    let mut head = String::with_capacity(body.len() + 256);
    let headers = extra_headers
        .iter()
        .map(|(name, value)| (name.as_str(), HeaderValue::Text(value)));
    write_head(&mut head, status, content_type, body.len(), headers);
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Writes `parts` through `out`, in order, as if joined: one
/// `write_vectored` over every part not yet sent, repeated after a short
/// write and retried when `Interrupted`. A response's head, body and tail
/// go out without being copied into one buffer.
pub(crate) fn write_parts<W: Write + ?Sized>(
    out: &mut W,
    mut parts: &mut [IoSlice<'_>],
) -> io::Result<()> {
    // Advancing by 0 drops leading empty parts, so `write_vectored` never
    // sees only empty parts and a 0 return means the writer is done.
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match out.write_vectored(parts) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write the whole response",
                ));
            }
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `bytes` to `parser` and polls once.
    fn parse_one<'p>(
        parser: &'p mut RequestParser,
        bytes: &[u8],
    ) -> Result<Option<Request<'p>>, BadRequest> {
        parser.feed(bytes);
        parser.poll()
    }

    fn is_rejected(bytes: &[u8]) -> bool {
        parse_one(&mut RequestParser::new(), bytes).is_err()
    }

    /// After a 1 MiB body is answered, the buffer keeps at most the kept
    /// capacity; a request buffered behind it keeps the buffer whole until
    /// it is polled, and a small request's capacity is kept.
    #[test]
    fn release_gives_back_a_large_body_once_answered() {
        let body = vec![b'\n'; MAX_BODY];
        let head = format!("POST /batch HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n");
        let next = b"GET /health HTTP/1.1\r\n\r\n";
        let mut p = RequestParser::new();
        p.feed(head.as_bytes());
        p.feed(&body);
        p.feed(next);
        assert_eq!(p.poll().unwrap().unwrap().body.len(), MAX_BODY);
        p.release();
        assert!(p.buf.capacity() > MAX_BODY, "the pipelined request is kept");
        assert_eq!(p.poll().unwrap().unwrap().target, "/health");
        p.release();
        assert!(
            p.buf.capacity() <= KEPT_REQUEST_CAPACITY,
            "kept {} bytes",
            p.buf.capacity()
        );
        assert_eq!(p.buffered(), 0);
        // A request below the kept capacity keeps the buffer as it is.
        p.feed(next);
        let capacity = p.buf.capacity();
        assert_eq!(p.poll().unwrap().unwrap().target, "/health");
        p.release();
        assert_eq!(p.buf.capacity(), capacity);
        // And the parser still parses what comes next.
        p.feed(head.as_bytes());
        p.feed(&body);
        assert_eq!(p.poll().unwrap().unwrap().body.len(), MAX_BODY);
        p.release();
        assert!(p.buf.capacity() <= KEPT_REQUEST_CAPACITY);
    }

    #[test]
    fn parses_a_simple_get() {
        let mut p = RequestParser::new();
        let raw = b"GET /prefix/1.2.3.0%2f24 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = parse_one(&mut p, raw).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/prefix/1.2.3.0%2f24");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn body_follows_content_length_and_pipelines() {
        let mut p = RequestParser::new();
        p.feed(
            b"POST /batch HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /health HTTP/1.1\r\n\r\n",
        );
        let first = p.poll().unwrap().unwrap();
        assert_eq!(first.body, b"abcd");
        let second = p.poll().unwrap().unwrap();
        assert_eq!(second.target, "/health");
        assert_eq!(p.poll().unwrap(), None);
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn split_feeds_reassemble() {
        let raw = b"GET /dump?serial=3 HTTP/1.1\r\nHost: a\r\n\r\n";
        let mut p = RequestParser::new();
        for b in raw.iter() {
            assert_eq!(p.poll().unwrap(), None);
            p.feed(&[*b]);
        }
        let req = p.poll().unwrap().unwrap();
        assert_eq!(req.path(), "/dump");
        assert_eq!(req.query_param("serial"), Some("3"));
    }

    #[test]
    fn feed_drops_what_polled_requests_consumed() {
        let mut p = RequestParser::new();
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HT");
        assert_eq!(p.poll().unwrap().unwrap().target, "/a");
        assert_eq!(p.poll().unwrap(), None);
        assert_eq!(p.buffered(), 9);
        p.feed(b"TP/1.1\r\n\r\n");
        assert_eq!(p.buf.len(), p.buffered(), "the first request was dropped");
        assert_eq!(p.poll().unwrap().unwrap().target, "/b");
    }

    #[test]
    fn headers_keep_their_order_names_and_trimmed_values() {
        let mut p = RequestParser::new();
        let raw = b"GET / HTTP/1.1\r\nX-A:  1 \r\nx-a: 2\r\nHost:\th\r\n\r\n";
        let req = parse_one(&mut p, raw).unwrap().unwrap();
        let headers: Vec<_> = req.headers().collect();
        assert_eq!(headers, [("X-A", "1"), ("x-a", "2"), ("Host", "h")]);
        assert_eq!(req.header("x-a"), Some("1"));
    }

    #[test]
    fn malformed_inputs_are_deterministic_errors() {
        assert!(is_rejected(b"get /x HTTP/1.1\r\n\r\n"));
        assert!(is_rejected(b"GET x HTTP/1.1\r\n\r\n"));
        assert!(is_rejected(b"GET /x HTTP/2\r\n\r\n"));
        assert!(is_rejected(b"GET /x HTTP/1.1\r\nbad line\r\n\r\n"));
        assert!(is_rejected(
            b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
        ));
        assert!(is_rejected(
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        ));
        let bad = b"GET x HTTP/1.1\r\n\r\n";
        let twice = [
            parse_one(&mut RequestParser::new(), bad).unwrap_err(),
            parse_one(&mut RequestParser::new(), bad).unwrap_err(),
        ];
        assert_eq!(twice[0], twice[1]);
    }

    #[test]
    fn oversized_heads_and_bodies_are_rejected() {
        let mut p = RequestParser::new();
        p.feed(b"GET /x HTTP/1.1\r\nX-Pad: ");
        p.feed(&vec![b'a'; MAX_HEAD + 1]);
        assert!(p.poll().is_err());
        let huge = format!(
            "POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(is_rejected(huge.as_bytes()));
    }

    #[test]
    fn http10_defaults_to_close() {
        for raw in [
            &b"GET /health HTTP/1.0\r\n\r\n"[..],
            b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n",
        ] {
            let mut p = RequestParser::new();
            assert!(!parse_one(&mut p, raw).unwrap().unwrap().keep_alive);
        }
    }

    fn head(status: u16, content_length: usize, serial: u64, id: u64) -> String {
        let mut out = String::new();
        let stamp = stamp(serial, "5f3a9c2e1b7d4068", id);
        write_head(&mut out, status, "application/json", content_length, stamp);
        out
    }

    #[test]
    fn heads_are_pinned_byte_for_byte() {
        let stamped = |line: &str, len: &str, serial: &str, id: &str| {
            format!(
                "HTTP/1.1 {line}\r\nContent-Type: application/json\r\nContent-Length: {len}\r\n\
                 X-P2O-Serial: {serial}\r\nX-P2O-Snapshot: 5f3a9c2e1b7d4068\r\n\
                 X-P2O-Request-Id: {id}\r\n\r\n"
            )
        };
        assert_eq!(head(200, 1234, 3, 42), stamped("200 OK", "1234", "3", "42"));
        assert_eq!(
            head(404, 61, 0, 7),
            stamped("404 Not Found", "61", "0", "7")
        );
        // The early rejects: a parse-error 400 and a connection-limit 503.
        assert_eq!(
            head(400, 0, 0, 1),
            stamped("400 Bad Request", "0", "0", "1")
        );
        assert_eq!(
            head(503, 37, u64::MAX, 18_446_744_073_709_551_614),
            stamped(
                "503 Service Unavailable",
                "37",
                "18446744073709551615",
                "18446744073709551614"
            )
        );
    }

    #[test]
    fn response_is_the_head_then_the_body() {
        let body = b"{\"error\":\"x\"}\n";
        let headers = [
            ("X-P2O-Serial".to_string(), "3".to_string()),
            ("X-P2O-Snapshot".to_string(), "5f3a9c2e1b7d4068".to_string()),
            ("X-P2O-Request-Id".to_string(), "42".to_string()),
        ];
        for status in [200, 404, 400, 503] {
            let mut expected = head(status, body.len(), 3, 42).into_bytes();
            expected.extend_from_slice(body);
            assert_eq!(
                response(status, "application/json", &headers, body),
                expected
            );
        }
    }

    #[test]
    fn response_is_framed() {
        let bytes = response(404, "application/json", &[], b"{}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// A writer that takes at most `max` bytes per call, across slices,
    /// and fails every `interrupt_every`-th call with `Interrupted`.
    struct Trickle {
        written: Vec<u8>,
        max: usize,
        calls: usize,
        interrupt_every: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(self.interrupt_every) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let budget = 1 + self.calls * 7 % self.max;
            let mut taken = 0;
            for buf in bufs {
                let take = buf.len().min(budget - taken);
                self.written.extend_from_slice(&buf[..take]);
                taken += take;
                if taken == budget {
                    break;
                }
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_parts_survives_short_writes_and_interrupts() {
        let long: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let cases: [&[&[u8]]; 6] = [
            &[b"head", b"body", b"tail"],
            &[b"", b"body", b""],
            &[b"", b"", b""],
            &[b"head", b"", &long],
            &[&long, b"", b"", b"x"],
            &[b"", &long, &long],
        ];
        for max in [1, 2, 3, 7, 64, 10_000] {
            for interrupt_every in [2, 3, 1000] {
                for parts in cases {
                    let mut out = Trickle {
                        written: Vec::new(),
                        max,
                        calls: 0,
                        interrupt_every,
                    };
                    let mut slices: Vec<IoSlice<'_>> =
                        parts.iter().map(|p| IoSlice::new(p)).collect();
                    write_parts(&mut out, &mut slices).unwrap();
                    assert_eq!(out.written, parts.concat(), "max {max}");
                }
            }
        }
    }

    #[test]
    fn write_parts_reports_a_writer_that_stops() {
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut slices = [IoSlice::new(b"head")];
        let err = write_parts(&mut Closed, &mut slices).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        write_parts(&mut Closed, &mut [IoSlice::new(b"")]).expect("nothing to write");
    }
}
