//! The benchmark's own HTTP/1.1 client: one keep-alive connection, requests
//! framed with `Content-Length`, responses read by their `Content-Length`.
//! It shares no code with the server, so a change to the server's framing
//! cannot hide behind a matching change on the client side.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The bytes of one request; `Content-Length` is always sent so the server
/// never waits for a body it will not get.
pub fn encode_request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A framed response inside a receive buffer: status code, and where the
/// body sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framed {
    /// The status code.
    pub status: u16,
    /// Offset of the first body byte.
    pub body_start: usize,
    /// Body length from `Content-Length`.
    pub body_len: usize,
}

impl Framed {
    /// Total bytes the response occupies, head plus body.
    pub fn total(&self) -> usize {
        self.body_start + self.body_len
    }
}

/// Frames the response at the start of `buf`: `Ok(None)` while the head or
/// the body is incomplete, an error for a head that is not HTTP/1.x or lacks
/// a usable `Content-Length`.
pub fn frame_response(buf: &[u8]) -> Result<Option<Framed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let n: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?;
                length = Some(n);
            }
        }
    }
    let body_len = length.ok_or("response without Content-Length")?;
    let framed = Framed {
        status,
        body_start: head_end + 4,
        body_len,
    };
    Ok((buf.len() >= framed.total()).then_some(framed))
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of the previous response still at the front of `buf`.
    consumed: usize,
    /// Response bytes received on this connection, heads included.
    pub bytes_received: u64,
    /// Responses received on this connection.
    pub responses: u64,
}

impl Conn {
    /// Connects to `addr` with a 60-second read timeout.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("configuring socket: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            consumed: 0,
            bytes_received: 0,
            responses: 0,
        })
    }

    /// Sends one encoded request and returns the status and body of its
    /// response. The body borrows the connection's buffer until the next
    /// call.
    pub fn roundtrip(&mut self, request: &[u8]) -> Result<(u16, &[u8]), String> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.stream
            .write_all(request)
            .map_err(|e| format!("sending request: {e}"))?;
        let framed = loop {
            if let Some(f) = frame_response(&self.buf)? {
                break f;
            }
            self.fill()?;
        };
        self.consumed = framed.total();
        self.bytes_received += framed.total() as u64;
        self.responses += 1;
        Ok((framed.status, &self.buf[framed.body_start..framed.total()]))
    }

    fn fill(&mut self) -> Result<(), String> {
        let old = self.buf.len();
        self.buf.resize(old + (1 << 16), 0);
        match self.stream.read(&mut self.buf[old..]) {
            Ok(0) => {
                self.buf.truncate(old);
                Err("connection closed mid-response".to_string())
            }
            Ok(n) => {
                self.buf.truncate(old + n);
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(format!("reading response: {e}"))
            }
        }
    }
}

/// Percent-encodes the `/` of a CIDR so it fits one path segment.
pub fn prefix_target(cidr: &str) -> String {
    format!("/prefix/{}", cidr.replace('/', "%2f"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_always_carry_content_length() {
        let get = encode_request("GET", "/health", b"");
        assert_eq!(
            get,
            b"GET /health HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n"
        );
        let post = encode_request("POST", "/batch", b"1.0.0.0/8\n");
        assert!(post.ends_with(b"Content-Length: 10\r\n\r\n1.0.0.0/8\n"));
    }

    #[test]
    fn frames_a_complete_response() {
        let buf = b"HTTP/1.1 200 OK\r\nContent-Type: x\r\nContent-Length: 5\r\n\r\nhelloNEXT";
        let f = frame_response(buf).unwrap().unwrap();
        assert_eq!(f.status, 200);
        assert_eq!(&buf[f.body_start..f.total()], b"hello");
        assert_eq!(&buf[f.total()..], b"NEXT");
    }

    #[test]
    fn waits_for_the_whole_head_and_body() {
        let full = b"HTTP/1.1 404 Not Found\r\ncontent-length: 3\r\n\r\n{ }";
        for cut in 0..full.len() {
            assert_eq!(frame_response(&full[..cut]).unwrap(), None, "cut at {cut}");
        }
        let f = frame_response(full).unwrap().unwrap();
        assert_eq!((f.status, f.body_len), (404, 3));
    }

    #[test]
    fn zero_length_body_frames_at_the_head() {
        let f = frame_response(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!((f.body_len, f.total()), (0, f.body_start));
    }

    #[test]
    fn rejects_unframeable_heads() {
        assert!(frame_response(b"HTTP/1.1 200 OK\r\n\r\nbody").is_err());
        assert!(frame_response(b"SMTP 220 hi\r\nContent-Length: 0\r\n\r\n").is_err());
        assert!(frame_response(b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n").is_err());
        assert!(frame_response(b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n").is_err());
    }

    #[test]
    fn cidr_slash_is_percent_encoded() {
        assert_eq!(prefix_target("10.0.0.0/8"), "/prefix/10.0.0.0%2f8");
        assert_eq!(prefix_target("2001:db8::/32"), "/prefix/2001:db8::%2f32");
    }
}
