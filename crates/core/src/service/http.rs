//! A minimal std-only HTTP/1.1 layer for the simulation service.
//!
//! One request per connection (`Connection: close` both ways), bodies
//! framed by `Content-Length`, no chunked encoding, no TLS: exactly the
//! subset `dmdc serve`'s JSON wire format needs, in the offline-shim
//! spirit of the repository (vendoring a real server is off the table,
//! and the service's documents are all small). The same module provides
//! the blocking [`request`] helper the `dmdc submit`/`status`/`metrics`
//! client subcommands and the black-box test harness use, so both ends
//! of the wire are pinned by the same code, and the blocking
//! `accept_loop` both servers (the daemon and the `--distrib`
//! coordinator) run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::Fnv64;
use crate::service::json;

/// Largest request body the server will read. Submissions are tiny;
/// anything bigger is a confused or hostile client.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Largest header block the server will accumulate. Headers carry a
/// request line and a content-length; 16 KiB is already generous.
pub const MAX_HEADER_BYTES: usize = 16 << 10;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The request target, e.g. `/jobs/job-1`.
    pub path: String,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

/// Why a request could not be read, classified so the server can answer
/// with the right structured status instead of a blanket 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// Headers or body exceeded the size caps → 413.
    TooLarge(String),
    /// The client stalled past the connection's read deadline → 408.
    Timeout(String),
    /// Anything else malformed (truncation, bad framing, non-UTF-8) → 400.
    Malformed(String),
}

impl ReadError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ReadError::TooLarge(_) => 413,
            ReadError::Timeout(_) => 408,
            ReadError::Malformed(_) => 400,
        }
    }

    /// The human-readable specifics, for the structured error body.
    pub fn message(&self) -> &str {
        match self {
            ReadError::TooLarge(m) | ReadError::Timeout(m) | ReadError::Malformed(m) => m,
        }
    }
}

/// Classifies one socket read error: a deadline expiry (`WouldBlock` on
/// Unix timeouts, `TimedOut` elsewhere) is a stalled client, anything
/// else is a broken one.
fn classify_io(e: std::io::Error, during: &str) -> ReadError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            ReadError::Timeout(format!("read deadline expired {during}"))
        }
        _ => ReadError::Malformed(format!("read failed {during}: {e}")),
    }
}

fn malformed(msg: impl Into<String>) -> ReadError {
    ReadError::Malformed(msg.into())
}

/// Reads one HTTP/1.1 request from a connection, classifying every way
/// it can go wrong: oversized headers/bodies ([`ReadError::TooLarge`]),
/// a client that stalls past the socket's read deadline
/// ([`ReadError::Timeout`]), and plain malformation. The caller maps the
/// classes to 413/408/400 via [`ReadError::status`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(i) = find_header_end(&buf) {
            break i;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ReadError::TooLarge(format!(
                "headers exceed {MAX_HEADER_BYTES} bytes"
            )));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| classify_io(e, "while reading headers"))?;
        if n == 0 {
            return Err(malformed("connection closed before headers completed"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head =
        std::str::from_utf8(&buf[..header_end]).map_err(|_| malformed("non-utf8 headers"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .ok_or_else(|| malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| malformed("missing path"))?
        .to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| malformed("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_REQUEST_BYTES {
        return Err(ReadError::TooLarge(format!(
            "request body of {content_length} bytes exceeds {MAX_REQUEST_BYTES}"
        )));
    }
    let body_start = header_end + 4;
    let mut body = buf[body_start.min(buf.len())..].to_vec();
    while body.len() < content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| classify_io(e, "while reading the body"))?;
        if n == 0 {
            return Err(malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        body: String::from_utf8(body).map_err(|_| malformed("non-utf8 body"))?,
    })
}

/// The `\r\n\r\n` boundary between headers and body, if received yet.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one response and closes the write side. Errors are swallowed —
/// a client that hung up mid-response is its own problem, not the
/// daemon's.
pub fn respond(stream: &mut TcpStream, status: u16, body: &str) {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Response",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// The blocking accept loop of both servers, the daemon and the
/// `--distrib` coordinator. Each connection gets a thread that reads one
/// request under `read_timeout`, answers it with `route`'s
/// `(status, body)` — or a read failure with its structured
/// 408/413/400 — and closes; finished threads are reaped as it goes, and
/// no client can pin the loop. `stop` is read before every accept and
/// after it, so a server ends the loop by raising its flag and then
/// connecting once to [`wake_addr`]; an accept error ends it too.
///
/// Returns the handlers still running, for the caller to join once it
/// has released whatever they park on, and that accept error.
pub(crate) fn accept_loop<R>(
    listener: &TcpListener,
    stop: impl Fn() -> bool,
    read_timeout: Duration,
    route: R,
) -> (Vec<JoinHandle<()>>, std::io::Result<()>)
where
    R: Fn(&Request) -> (u16, String) + Clone + Send + 'static,
{
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop() {
        match listener.accept() {
            Ok(_) if stop() => break,
            Ok((mut stream, _)) => {
                let route = route.clone();
                handlers.push(std::thread::spawn(move || {
                    let _ = stream.set_read_timeout(Some(read_timeout));
                    let (status, body) = match read_request(&mut stream) {
                        Ok(request) => route(&request),
                        Err(e) => (e.status(), error_body(e.message())),
                    };
                    respond(&mut stream, status, &body);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return (handlers, Err(e)),
        }
        handlers.retain(|h| !h.is_finished());
    }
    (handlers, Ok(()))
}

/// The structured error document every server status ≥ 400 carries.
pub(crate) fn error_body(message: &str) -> String {
    format!("{{\"error\": \"{}\"}}\n", json::escape(message))
}

/// Where a server connects to wake its own blocking [`accept_loop`]: the
/// bound address, with a wildcard IP replaced by loopback.
pub(crate) fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A failed client exchange, flagged with whether retrying could help
/// (the server refused or dropped the connection — it may simply not be
/// up yet) or not (a protocol-level failure that will repeat).
struct RequestError {
    retryable: bool,
    message: String,
}

impl RequestError {
    fn fatal(message: impl Into<String>) -> RequestError {
        RequestError {
            retryable: false,
            message: message.into(),
        }
    }
}

/// Classifies one client-side io error: connection refused/reset/aborted
/// are transient server absence; everything else is fatal.
fn classify_client_io(addr: &str, e: &std::io::Error) -> RequestError {
    use std::io::ErrorKind;
    RequestError {
        retryable: matches!(
            e.kind(),
            ErrorKind::ConnectionRefused
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
        ),
        message: format!("{addr}: {e}"),
    }
}

/// One blocking HTTP exchange: connect, send, read to EOF, return
/// `(status, body)`. The client half of the wire — `dmdc submit` and the
/// service tests speak through this. Fails on the first connection
/// error; see [`request_with_retry`] for the backoff variant.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    try_request(addr, method, path, body).map_err(|e| e.message)
}

/// Like [`request`], but retries connection-refused/reset with jittered
/// exponential backoff until `max_wait` has elapsed — the client half of
/// riding out a daemon that is still booting or briefly restarting.
/// Protocol-level failures (a reachable server sending garbage) stay
/// immediate. The terminal error names the attempts made and the time
/// spent, so a misconfigured address reads as exactly that.
pub fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    max_wait: Duration,
) -> Result<(u16, String), String> {
    let start = Instant::now();
    let mut attempt: u32 = 0;
    loop {
        let err = match try_request(addr, method, path, body) {
            Ok(reply) => return Ok(reply),
            Err(e) if e.retryable => e,
            Err(e) => return Err(e.message),
        };
        attempt += 1;
        let delay = retry_backoff(addr, attempt);
        if start.elapsed() + delay > max_wait {
            return Err(format!(
                "{addr}: unreachable after {attempt} attempt(s) over {:.1}s \
                 (last error: {}); is the server up?",
                start.elapsed().as_secs_f64(),
                err.message
            ));
        }
        std::thread::sleep(delay);
    }
}

/// Exponential backoff with deterministic jitter: 50 ms doubling to a
/// 1.6 s cap, plus up to +50% derived from a hash of `(addr, attempt)` —
/// no RNG, so tests replay exactly, but distinct clients still spread
/// their reconnect storms.
fn retry_backoff(addr: &str, attempt: u32) -> Duration {
    let base = 50u64 << (attempt.saturating_sub(1)).min(5);
    let mut h = Fnv64::new();
    h.write(addr.as_bytes());
    h.write_u64(attempt as u64);
    let jitter = h.finish() % (base / 2 + 1);
    Duration::from_millis(base + jitter)
}

fn try_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), RequestError> {
    let target = addr
        .to_socket_addrs()
        .map_err(|e| RequestError::fatal(format!("{addr}: {e}")))?
        .next()
        .ok_or_else(|| RequestError::fatal(format!("{addr}: no address")))?;
    let mut stream = TcpStream::connect_timeout(&target, Duration::from_secs(10))
        .map_err(|e| classify_client_io(addr, &e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| RequestError::fatal(e.to_string()))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| classify_client_io(addr, &e))?;
    stream
        .write_all(body.as_bytes())
        .map_err(|e| classify_client_io(addr, &e))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| classify_client_io(addr, &e))?;
    let text =
        String::from_utf8(raw).map_err(|_| RequestError::fatal("non-utf8 response".to_string()))?;
    let (head, payload) = text.split_once("\r\n\r\n").ok_or_else(|| {
        RequestError::fatal("malformed response (no header boundary)".to_string())
    })?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| RequestError::fatal(format!("malformed status line in `{head}`")))?;
    Ok((status, payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_response_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/echo");
            respond(&mut stream, 200, &req.body);
        });
        let (status, body) = request(&addr, "POST", "/echo", Some("{\"x\": 1}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"x\": 1}");
        server.join().unwrap();
    }

    #[test]
    fn get_without_body_parses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "GET");
            assert_eq!(req.body, "");
            respond(&mut stream, 404, "{\"error\": \"nope\"}");
        });
        let (status, body) = request(&addr, "GET", "/missing", None).unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("nope"));
        server.join().unwrap();
    }
}
