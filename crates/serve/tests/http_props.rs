//! Property battery for the HTTP/1.1 request parser and the server's
//! error mapping (ISSUE 6 satellite 1).
//!
//! The parser is an incremental push parser, so the properties revolve
//! around *framing under adversity*:
//!
//! - a well-formed request must parse identically no matter how its bytes
//!   are split across `feed()` calls (a TCP read boundary carries no
//!   message semantics);
//! - pipelined request sequences come out whole and in order under any
//!   split pattern;
//! - arbitrary byte noise, oversized heads, and hostile `Content-Length`
//!   values must never panic and must produce the *same* diagnostic every
//!   time (deterministic 400s);
//! - at the socket level, malformed CIDRs map to 400 and uncovered
//!   prefixes to 404, byte-for-byte reproducibly;
//! - the in-place parser, whose requests borrow its buffer, answers every
//!   input under every split exactly as the owning parser it replaced
//!   (kept below as `reference`): the same method, target, headers, body
//!   and keep-alive, or the same error text.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p2o_serve::http::{RequestParser, MAX_HEAD};
use p2o_serve::HttpClient;

const ROUNDS: usize = 400;

/// An owned copy of one parsed request: a borrowed `Request` does not
/// outlive the parser's next `poll`. Header names are lowercased, as the
/// reference parser stores them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OwnedRequest {
    method: String,
    target: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    keep_alive: bool,
}

/// A push parser as the tests drive it: bytes in, owned requests out.
trait Parser {
    fn feed(&mut self, bytes: &[u8]);
    fn poll_owned(&mut self) -> Result<Option<OwnedRequest>, String>;
}

impl Parser for RequestParser {
    fn feed(&mut self, bytes: &[u8]) {
        RequestParser::feed(self, bytes);
    }

    fn poll_owned(&mut self) -> Result<Option<OwnedRequest>, String> {
        match self.poll() {
            Ok(Some(req)) => Ok(Some(OwnedRequest {
                method: req.method.to_string(),
                target: req.target.to_string(),
                headers: req
                    .headers()
                    .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
                    .collect(),
                body: req.body.to_vec(),
                keep_alive: req.keep_alive,
            })),
            Ok(None) => Ok(None),
            Err(e) => Err(e.0),
        }
    }
}

/// Feeds `raw` into `parser` in chunks of the given sizes (the last chunk
/// takes the rest), polling after each feed, and collects every request
/// (plus a terminal error, if any).
fn run(
    mut parser: impl Parser,
    raw: &[u8],
    chunks: &[usize],
) -> (Vec<OwnedRequest>, Option<String>) {
    let mut requests = Vec::new();
    let mut offset = 0;
    for &take in chunks {
        let take = take.min(raw.len() - offset);
        parser.feed(&raw[offset..offset + take]);
        offset += take;
        loop {
            match parser.poll_owned() {
                Ok(Some(req)) => requests.push(req),
                Ok(None) => break,
                Err(e) => return (requests, Some(e)),
            }
        }
    }
    (requests, None)
}

/// Chunk sizes, chosen by `rng`, that split `len` bytes.
fn random_chunks(len: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut offset = 0;
    while offset < len {
        let take = rng.random_range(1..=(len - offset).min(97));
        chunks.push(take);
        offset += take;
    }
    chunks
}

/// Feeds `raw` into a fresh parser in chunks chosen by `rng` and collects
/// every request (plus a terminal error, if any).
fn parse_split(raw: &[u8], rng: &mut StdRng) -> (Vec<OwnedRequest>, Option<String>) {
    run(RequestParser::new(), raw, &random_chunks(raw.len(), rng))
}

/// A generator of well-formed requests with randomized shape.
fn arbitrary_request(rng: &mut StdRng) -> (Vec<u8>, String, String, usize) {
    let methods = ["GET", "POST", "PUT", "DELETE"];
    let method = methods[rng.random_range(0..methods.len())].to_string();
    let target = match rng.random_range(0..4u32) {
        0 => "/health".to_string(),
        1 => format!("/prefix/10.{}.0.0%2f16", rng.random_range(0..256u32)),
        2 => format!("/dump?serial={}", rng.random_range(0..9u32)),
        _ => "/batch".to_string(),
    };
    let body_len = if method == "POST" {
        rng.random_range(0..512usize)
    } else {
        0
    };
    let mut raw = format!("{method} {target} HTTP/1.1\r\nHost: test\r\n");
    for i in 0..rng.random_range(0..5u32) {
        raw.push_str(&format!(
            "X-Extra-{i}: v{}\r\n",
            rng.random_range(0..100u32)
        ));
    }
    if body_len > 0 || rng.random_bool(0.5) {
        raw.push_str(&format!("Content-Length: {body_len}\r\n"));
    }
    raw.push_str("\r\n");
    let mut bytes = raw.into_bytes();
    for _ in 0..body_len {
        bytes.push(rng.random_range(0..=255u32) as u8);
    }
    (bytes, method, target, body_len)
}

#[test]
fn wellformed_requests_survive_any_split() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for round in 0..ROUNDS {
        let (raw, method, target, body_len) = arbitrary_request(&mut rng);
        let (requests, error) = parse_split(&raw, &mut rng);
        assert_eq!(error, None, "round {round}: spurious error on {target}");
        assert_eq!(requests.len(), 1, "round {round}");
        assert_eq!(requests[0].method, method);
        assert_eq!(requests[0].target, target);
        assert_eq!(requests[0].body.len(), body_len);
    }
}

#[test]
fn pipelined_sequences_come_out_in_order_under_any_split() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for round in 0..ROUNDS / 4 {
        let n = rng.random_range(2..6usize);
        let mut raw = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..n {
            let (bytes, _, target, _) = arbitrary_request(&mut rng);
            raw.extend_from_slice(&bytes);
            expected.push(target);
        }
        let (requests, error) = parse_split(&raw, &mut rng);
        assert_eq!(error, None, "round {round}");
        let targets: Vec<String> = requests.into_iter().map(|r| r.target).collect();
        assert_eq!(targets, expected, "round {round}");
    }
}

#[test]
fn random_noise_never_panics_and_errors_deterministically() {
    let mut rng = StdRng::seed_from_u64(0xBAD5EED);
    for _ in 0..ROUNDS {
        let len = rng.random_range(1..2048usize);
        let mut noise = Vec::with_capacity(len);
        for _ in 0..len {
            // Bias toward ASCII so some inputs get past the request line.
            let b = if rng.random_bool(0.8) {
                rng.random_range(0x20..0x7Fu32) as u8
            } else {
                rng.random_range(0..=255u32) as u8
            };
            noise.push(b);
        }
        // Whatever happens, it must not panic, and a byte-identical rerun
        // must reach the same verdict.
        let run = |input: &[u8]| {
            let mut p = RequestParser::new();
            p.feed(input);
            let mut outcomes = Vec::new();
            loop {
                match p.poll() {
                    Ok(Some(req)) => outcomes.push(format!("req:{} {}", req.method, req.target)),
                    Ok(None) => break,
                    Err(e) => {
                        outcomes.push(format!("err:{}", e.0));
                        break;
                    }
                }
            }
            outcomes
        };
        assert_eq!(run(&noise), run(&noise));
    }
}

#[test]
fn hostile_framing_is_rejected_not_misread() {
    // Oversized header section: error, regardless of split pattern.
    let mut rng = StdRng::seed_from_u64(1);
    let mut raw = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
    raw.extend(std::iter::repeat_n(b'a', MAX_HEAD + 64));
    let (_, error) = parse_split(&raw, &mut rng);
    assert!(error.is_some(), "oversized head must error");

    // Negative / overflowing / plural Content-Length values.
    for cl in ["-1", "18446744073709551617", "7, 9", "0x10"] {
        let raw = format!("POST /batch HTTP/1.1\r\nContent-Length: {cl}\r\n\r\n");
        let mut p = RequestParser::new();
        p.feed(raw.as_bytes());
        assert!(p.poll().is_err(), "Content-Length {cl:?} must be rejected");
    }
}

/// Socket-level determinism: malformed CIDRs → 400, uncovered prefixes →
/// 404, identical bodies on every repetition.
#[test]
fn malformed_cidrs_map_to_deterministic_400_404() {
    let snapshot = test_snapshot(11);
    let loader: p2o_serve::SnapshotLoader =
        std::sync::Arc::new(|_dir: &std::path::Path| Err("no reload in this test".to_string()));
    let server = p2o_serve::spawn(p2o_serve::ServerConfig::default(), snapshot, loader)
        .expect("server spawns");
    let mut client = HttpClient::connect(server.addr).expect("connect");
    let cases = [
        ("/prefix/not-a-cidr", 400),
        ("/prefix/999.1.2.3%2f24", 400),
        ("/prefix/10.0.0.0%2f99", 400),
        ("/prefix/255.255.255.255%2f32", 404),
        ("/nope", 404),
    ];
    for (path, expected) in cases {
        let first = client.get(path).expect("response");
        assert_eq!(first.status, expected, "{path}");
        for _ in 0..3 {
            let again = client.get(path).expect("response");
            assert_eq!(again.status, first.status, "{path} status flapped");
            assert_eq!(again.body, first.body, "{path} body flapped");
        }
    }
    // Wrong method on a known route is 405, not a parse error.
    let post = client.post("/dump", b"").expect("response");
    assert_eq!(post.status, 405);
    server.shutdown();
}

fn test_snapshot(seed: u64) -> p2o_serve::Snapshot {
    let world = p2o_synth::World::generate(p2o_synth::WorldConfig::tiny(seed));
    let built = world.build_inputs();
    let inputs = prefix2org::PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    };
    p2o_serve::Snapshot::freeze_in_memory(
        std::path::PathBuf::from(format!("seed-{seed}")),
        0,
        &inputs,
        &prefix2org::ExceptionSet::new(),
        1,
    )
    .expect("fresh freeze verifies")
}

/// The owning parser the in-place one replaced, kept verbatim as the
/// oracle: every `String`, the body copy and the buffer drain included.
mod reference {
    use p2o_serve::http::{MAX_BODY, MAX_HEAD};

    pub struct BadRequest(pub String);

    pub struct Request {
        pub method: String,
        pub target: String,
        pub headers: Vec<(String, String)>,
        pub body: Vec<u8>,
        pub keep_alive: bool,
    }

    #[derive(Default)]
    pub struct RequestParser {
        buf: Vec<u8>,
    }

    impl RequestParser {
        pub fn feed(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }

        pub fn poll(&mut self) -> Result<Option<Request>, BadRequest> {
            let skip = self
                .buf
                .iter()
                .take_while(|&&b| b == b'\r' || b == b'\n')
                .count();
            if skip > 0 {
                self.buf.drain(..skip);
            }
            let Some(head_len) = find_head_end(&self.buf) else {
                if self.buf.len() > MAX_HEAD {
                    return Err(BadRequest(format!(
                        "header section exceeds {MAX_HEAD} bytes"
                    )));
                }
                return Ok(None);
            };
            if head_len > MAX_HEAD {
                return Err(BadRequest(format!(
                    "header section exceeds {MAX_HEAD} bytes"
                )));
            }
            let head = std::str::from_utf8(&self.buf[..head_len])
                .map_err(|_| BadRequest("header section is not valid UTF-8".into()))?;
            let (method, target, version) = parse_request_line(head)?;
            let headers = parse_headers(head)?;
            let content_length = body_length(&headers)?;
            let total = head_len + content_length;
            if self.buf.len() < total {
                return Ok(None);
            }
            let keep_alive = match header_value(&headers, "connection") {
                Some(v) if v.eq_ignore_ascii_case("close") => false,
                Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
                _ => version == "HTTP/1.1",
            };
            let body = self.buf[head_len..total].to_vec();
            self.buf.drain(..total);
            Ok(Some(Request {
                method,
                target,
                headers,
                body,
                keep_alive,
            }))
        }
    }

    fn find_head_end(buf: &[u8]) -> Option<usize> {
        let mut i = 0;
        while i < buf.len() {
            if buf[i] == b'\n' {
                if buf.get(i + 1) == Some(&b'\n') {
                    return Some(i + 2);
                }
                if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                    return Some(i + 3);
                }
            }
            i += 1;
        }
        None
    }

    fn parse_request_line(head: &str) -> Result<(String, String, String), BadRequest> {
        let line = head
            .lines()
            .next()
            .ok_or_else(|| BadRequest("empty request".into()))?
            .trim_end_matches('\r');
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
        Ok((method.to_string(), target.to_string(), version.to_string()))
    }

    fn parse_headers(head: &str) -> Result<Vec<(String, String)>, BadRequest> {
        let mut headers = Vec::new();
        for line in head.lines().skip(1) {
            let line = line.trim_end_matches('\r');
            if line.is_empty() {
                break;
            }
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
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        Ok(headers)
    }

    fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn body_length(headers: &[(String, String)]) -> Result<usize, BadRequest> {
        if header_value(headers, "transfer-encoding").is_some() {
            return Err(BadRequest("chunked transfer encoding not supported".into()));
        }
        let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
        let Some((_, first)) = lengths.next() else {
            return Ok(0);
        };
        if lengths.any(|(_, v)| v != first) {
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

impl Parser for reference::RequestParser {
    fn feed(&mut self, bytes: &[u8]) {
        reference::RequestParser::feed(self, bytes);
    }

    fn poll_owned(&mut self) -> Result<Option<OwnedRequest>, String> {
        match self.poll() {
            Ok(Some(req)) => Ok(Some(OwnedRequest {
                method: req.method,
                target: req.target,
                headers: req.headers,
                body: req.body,
                keep_alive: req.keep_alive,
            })),
            Ok(None) => Ok(None),
            Err(e) => Err(e.0),
        }
    }
}

/// Runs `raw` through the in-place parser and the reference under the same
/// random split and asserts the same requests and the same error. Also
/// checks `header` against the reference's first value for each name.
fn assert_matches_reference(raw: &[u8], rng: &mut StdRng, what: &str) {
    let chunks = random_chunks(raw.len(), rng);
    let ours = run(RequestParser::new(), raw, &chunks);
    let theirs = run(reference::RequestParser::default(), raw, &chunks);
    assert_eq!(ours, theirs, "{what}: {:?}", String::from_utf8_lossy(raw));
    // `header` matches names case-insensitively, as the reference
    // matched its lowercased names.
    let mut parser = RequestParser::new();
    parser.feed(raw);
    if let Ok(Some(req)) = parser.poll() {
        for (name, _) in &theirs.0[0].headers {
            let first = theirs.0[0].headers.iter().find(|(k, _)| k == name);
            let upper = name.to_ascii_uppercase();
            assert_eq!(req.header(name), first.map(|(_, v)| v.as_str()), "{what}");
            assert_eq!(req.header(&upper), first.map(|(_, v)| v.as_str()), "{what}");
        }
    }
}

/// A near-valid request assembled from pieces that each exercise one rule
/// of the grammar: method case, spacing, versions, line ends, header name
/// case and shape, repeated and conflicting framing headers, Unicode
/// whitespace around values, and bodies of every length against their
/// `Content-Length`.
fn fuzzy_request(rng: &mut StdRng) -> Vec<u8> {
    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[rng.random_range(0..items.len())]
    }
    let line_ends = ["\r\n", "\r\n", "\n", "\r\r\n"];
    let mut raw = String::new();
    raw.push_str(pick(
        rng,
        &["GET", "GET", "POST", "POST", "get", "", "P0ST"],
    ));
    raw.push_str(pick(rng, &[" ", " ", "  "]));
    raw.push_str(pick(
        rng,
        &["/health", "/prefix/1.2.3.0%2f24", "/dump?serial=2", "x", ""],
    ));
    raw.push_str(pick(rng, &[" ", " ", "  "]));
    raw.push_str(pick(
        rng,
        &[
            "HTTP/1.1",
            "HTTP/1.1",
            "HTTP/1.1",
            "HTTP/1.0",
            "HTTP/2",
            "HTTP/1.1 extra",
            "",
        ],
    ));
    raw.push_str(pick(rng, &line_ends));
    for _ in 0..rng.random_range(0..6u32) {
        raw.push_str(pick(
            rng,
            &[
                "Content-Length",
                "content-length",
                "CONTENT-length",
                "Connection",
                "CONNECTION",
                "Transfer-Encoding",
                "Host",
                "X_Trace-1",
                "Bad Name",
                "",
            ],
        ));
        raw.push_str(pick(rng, &[":", ": ", ": ", ":\t", " :", ""]));
        raw.push_str(pick(
            rng,
            &[
                "3",
                "3",
                "0",
                " 3 ",
                "\u{a0}3\u{2003}",
                "\u{3000}close",
                "close",
                "Keep-Alive",
                "keep-alive\u{85}",
                "-1",
                "+3",
                "4",
                "é",
                "",
            ],
        ));
        raw.push_str(pick(rng, &line_ends));
    }
    raw.push_str(pick(rng, &line_ends));
    let mut bytes = raw.into_bytes();
    for _ in 0..rng.random_range(0..6usize) {
        bytes.push(rng.random_range(0..=255u32) as u8);
    }
    bytes
}

#[test]
fn in_place_parser_matches_the_reference_under_any_split() {
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    for round in 0..ROUNDS {
        let (raw, ..) = arbitrary_request(&mut rng);
        assert_matches_reference(&raw, &mut rng, &format!("well-formed {round}"));
    }
    for round in 0..ROUNDS / 4 {
        let mut raw = Vec::new();
        for _ in 0..rng.random_range(2..6usize) {
            raw.extend_from_slice(&arbitrary_request(&mut rng).0);
            // CRLF noise between pipelined requests.
            for _ in 0..rng.random_range(0..3usize) {
                raw.extend_from_slice(if rng.random_bool(0.5) { b"\r\n" } else { b"\n" });
            }
        }
        assert_matches_reference(&raw, &mut rng, &format!("pipelined {round}"));
    }
    for round in 0..ROUNDS {
        let len = rng.random_range(1..2048usize);
        let noise: Vec<u8> = (0..len)
            .map(|_| {
                if rng.random_bool(0.8) {
                    rng.random_range(0x20..0x7Fu32) as u8
                } else {
                    rng.random_range(0..=255u32) as u8
                }
            })
            .collect();
        assert_matches_reference(&noise, &mut rng, &format!("noise {round}"));
    }
    for round in 0..ROUNDS * 4 {
        let mut raw = Vec::new();
        for _ in 0..rng.random_range(1..4usize) {
            raw.extend_from_slice(&fuzzy_request(&mut rng));
        }
        assert_matches_reference(&raw, &mut rng, &format!("fuzzy {round}"));
    }
}

#[test]
fn in_place_parser_matches_the_reference_on_hostile_and_edge_framing() {
    let mut rng = StdRng::seed_from_u64(0xED6E);
    let mut oversized = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
    oversized.extend(std::iter::repeat_n(b'a', MAX_HEAD + 64));
    let mut huge_head = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
    huge_head.extend(std::iter::repeat_n(b'a', MAX_HEAD));
    huge_head.extend_from_slice(b"\r\n\r\n");
    let mut cases: Vec<Vec<u8>> = vec![oversized, huge_head];
    for cl in [
        "-1",
        "18446744073709551617",
        "7, 9",
        "0x10",
        "1048577",
        " 2 ",
    ] {
        cases.push(format!("POST /batch HTTP/1.1\r\nContent-Length: {cl}\r\n\r\nab").into_bytes());
    }
    for text in [
        // Mixed-case and repeated headers.
        "POST /batch HTTP/1.1\r\ncontent-LENGTH: 3\r\nContent-Length: 3\r\n\r\nabc",
        "POST /batch HTTP/1.1\r\nCONTENT-LENGTH: 3\r\ncontent-length: 4\r\n\r\nabcd",
        "GET /health HTTP/1.1\r\nCONNECTION: Close\r\nConnection: keep-alive\r\n\r\n",
        "GET /health HTTP/1.0\r\nconnection: KEEP-ALIVE\r\n\r\n",
        "GET /health HTTP/1.1\r\nTRANSFER-encoding: identity\r\n\r\n",
        "GET /health HTTP/1.1\r\nX-A: 1\r\nx-a: 2\r\nX-a: 3\r\n\r\n",
        // Unicode whitespace around a value.
        "POST /batch HTTP/1.1\r\nContent-Length:\u{a0}2\u{2003}\r\n\r\nab",
        "GET /health HTTP/1.1\r\nConnection: \u{3000}close\u{205f}\r\n\r\n",
        "GET /health HTTP/1.1\r\nX-A:\u{85}v\u{2028}\r\n\r\n",
        // A `\n\n` head, and the other lenient ends.
        "GET /health HTTP/1.1\nHost: a\n\n",
        "GET /health HTTP/1.1\n\n",
        "GET /health HTTP/1.1\r\nHost: a\n\r\n",
        "GET /health HTTP/1.1\r\n\r\r\nHost: a\r\n\r\n",
        // CRLF noise before and between pipelined requests.
        "\r\n\n\r\nGET /a HTTP/1.1\r\n\r\n\r\n\r\nGET /b HTTP/1.1\r\n\r\n\n\n",
        "POST /batch HTTP/1.1\r\nContent-Length: 2\r\n\r\nab\r\nGET /c HTTP/1.1\r\n\r\n",
        // Which framing error wins when several apply: a bad line first,
        // then chunked encoding, conflicting lengths, a bad length, and
        // the limit.
        "POST /batch HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\ncontent-length: 4\r\n\r\nabcd",
        "POST /batch HTTP/1.1\r\nContent-Length: x\r\nTransfer-Encoding: chunked\r\n\r\n",
        "POST /batch HTTP/1.1\r\nContent-Length: x\r\nContent-Length: y\r\n\r\n",
        "POST /batch HTTP/1.1\r\nContent-Length: 2000000\r\nContent-Length: 2000000\r\n\r\n",
        "POST /batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\nbad line\r\n\r\n",
        "get /batch HTTP/1.1\r\nbad line\r\n\r\n",
        // Shapes of a bad request line and header line.
        "GET  /a   HTTP/1.1 \r\n\r\n",
        "GET /a HTTP/1.1\r\r\n\r\n",
        "GET /a HTTP/1.1\r\n: v\r\n\r\n",
        "GET /a HTTP/1.1\r\nX-\u{e9}: v\r\n\r\n",
        "GET /a HTTP/1.1\r\nno colon here\r\n\r\n",
    ] {
        cases.push(text.as_bytes().to_vec());
    }
    cases.push(b"GET /a HTTP/1.1\r\nX-A: \xff\r\n\r\n".to_vec());
    for (i, raw) in cases.iter().enumerate() {
        for _ in 0..8 {
            assert_matches_reference(raw, &mut rng, &format!("case {i}"));
        }
    }
}
