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
//!   prefixes to 404, byte-for-byte reproducibly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p2o_serve::http::{RequestParser, MAX_HEAD};
use p2o_serve::{HttpClient, Request};

const ROUNDS: usize = 400;

/// Feeds `raw` into a fresh parser in chunks chosen by `rng` and collects
/// every request (plus a terminal error, if any).
fn parse_split(raw: &[u8], rng: &mut StdRng) -> (Vec<Request>, Option<String>) {
    let mut parser = RequestParser::new();
    let mut requests = Vec::new();
    let mut offset = 0;
    while offset < raw.len() {
        let take = rng.random_range(1..=(raw.len() - offset).min(97));
        parser.feed(&raw[offset..offset + take]);
        offset += take;
        loop {
            match parser.poll() {
                Ok(Some(req)) => requests.push(req),
                Ok(None) => break,
                Err(e) => return (requests, Some(e.0)),
            }
        }
    }
    (requests, None)
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
