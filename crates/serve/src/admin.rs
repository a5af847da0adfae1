//! The admin plane: a tiny HTTP/1.0 responder on a separate listener.
//!
//! Serving traffic speaks the binary frame protocol; observability
//! tooling speaks HTTP. Mixing them on one port would let a scrape
//! burn a frame-protocol handler (and vice versa), so `--metrics-addr`
//! binds a second listener that only ever answers three read-only
//! routes:
//!
//! | route      | payload                                           |
//! |------------|---------------------------------------------------|
//! | `/metrics` | Prometheus text exposition (see [`crate::telemetry`]) |
//! | `/health`  | `mupod-health v1` JSON; 503 while draining        |
//! | `/flight`  | the flight-recorder ring as `mupod-flight v1` JSON |
//!
//! The responder is deliberately minimal: requests are capped at 4 KiB
//! (request line and headers together), every read carries a
//! 2-second whole-request deadline, every response closes the
//! connection, and each connection is served on its own short-lived
//! thread so one slow-loris peer — connected but trickling or
//! withholding bytes — can delay only itself, never a concurrent
//! scrape. No request body is ever read, no method other than
//! `GET`/`HEAD` accepted.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::conn;
use crate::server::{ServeConfig, Shared, POLL};
use crate::telemetry;

/// Largest admin request we buffer before answering 400.
const MAX_REQUEST_BYTES: usize = 4096;
/// How long one admin connection may take to deliver its request.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// One route's answer: status code, content type, body.
pub(crate) type AdminResponse = (u16, &'static str, Vec<u8>);

/// Generic accept loop for an admin-style HTTP plane: accepts until
/// `stop` turns true, serving each connection on its own scoped
/// thread. `respond` maps a request path to an [`AdminResponse`]
/// (`None` → 404). The scope joins every handler before returning;
/// each is bounded by [`READ_TIMEOUT`], so the join is too. The
/// listener must already be nonblocking.
pub(crate) fn run_admin(
    listener: &TcpListener,
    stop: &(dyn Fn() -> bool + Sync),
    respond: &(dyn Fn(&str) -> Option<AdminResponse> + Sync),
) {
    std::thread::scope(|s| {
        conn::accept_until(listener, stop, "serve.admin_accept_error", |stream| {
            mupod_obs::counter_add("serve.admin_requests", 1);
            s.spawn(mupod_obs::inherit(move || handle_admin(stream, respond)));
        });
    });
}

/// Accept loop for the serving node's admin listener (`/metrics`,
/// `/health`, `/flight`); exits when the server drains.
pub(crate) fn admin_loop(listener: &TcpListener, cfg: &ServeConfig, shared: &Shared) {
    run_admin(listener, &|| shared.is_draining(), &|path| match path {
        "/metrics" => Some((
            200,
            "text/plain; version=0.0.4",
            telemetry::render_metrics(cfg, shared).into_bytes(),
        )),
        "/health" => {
            let (code, body) = telemetry::render_health(cfg, shared);
            Some((code, "application/json", body.into_bytes()))
        }
        "/flight" => Some((
            200,
            "application/json",
            shared.telemetry.flight.to_json().into_bytes(),
        )),
        _ => None,
    });
}

/// Serves one admin connection: parse the request line, route, answer,
/// close.
fn handle_admin(mut stream: TcpStream, respond: &(dyn Fn(&str) -> Option<AdminResponse> + Sync)) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let Some(request) = read_request(&mut stream) else {
        let _ = write_http(&mut stream, 400, "text/plain", b"bad request\n");
        return;
    };
    let Some(path) = parse_request_path(&request) else {
        let _ = write_http(&mut stream, 400, "text/plain", b"bad request\n");
        return;
    };
    match respond(&path) {
        Some((code, content_type, body)) => {
            let _ = write_http(&mut stream, code, content_type, &body);
        }
        None => {
            let _ = write_http(&mut stream, 404, "text/plain", b"unknown route\n");
        }
    }
}

/// Reads until the header terminator, the size cap, or the timeout.
fn read_request(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let deadline = Instant::now() + READ_TIMEOUT;
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            return Some(buf);
        }
        if buf.len() >= MAX_REQUEST_BYTES || Instant::now() >= deadline {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return if buf.is_empty() { None } else { Some(buf) },
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if conn::is_timeout(&e) => {}
            Err(_) => return None,
        }
    }
}

/// Extracts the path from a `GET <path> HTTP/1.x` request line.
fn parse_request_path(request: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(request).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next()?;
    if method != "GET" && method != "HEAD" {
        return None;
    }
    let path = parts.next()?;
    // Ignore any query string; routes take no parameters.
    let path = path.split('?').next().unwrap_or(path);
    Some(path.to_string())
}

/// Writes one complete HTTP/1.0 response and flushes.
fn write_http(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Status",
    };
    let head = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Minimal HTTP GET against the admin plane: one request, read to EOF,
/// return `(status, body)`. Used by `mupod query --dump-flight` and
/// the telemetry tests; not a general HTTP client.
///
/// # Errors
///
/// Any transport failure, or `InvalidData` if the response is not
/// parseable HTTP.
pub fn http_get(
    addr: SocketAddr,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.0\r\nHost: mupod\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    parse_http_response(&response)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

/// Splits a raw HTTP response into `(status, body)`.
fn parse_http_response(raw: &[u8]) -> Option<(u16, Vec<u8>)> {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)?;
    let head = std::str::from_utf8(&raw[..header_end]).ok()?;
    let status: u16 = head.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some((status, raw[header_end..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_to_paths() {
        assert_eq!(
            parse_request_path(b"GET /metrics HTTP/1.1\r\n\r\n").as_deref(),
            Some("/metrics")
        );
        assert_eq!(
            parse_request_path(b"HEAD /health?verbose=1 HTTP/1.0\r\n\r\n").as_deref(),
            Some("/health")
        );
        assert!(parse_request_path(b"POST /metrics HTTP/1.1\r\n\r\n").is_none());
        assert!(parse_request_path(b"\xff\xfe").is_none());
        assert!(parse_request_path(b"").is_none());
    }

    #[test]
    fn http_responses_split_into_status_and_body() {
        let raw = b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi";
        let (status, body) = parse_http_response(raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"hi");
        assert!(parse_http_response(b"not http").is_none());
    }

    fn ping_plane(listener: &TcpListener, stop: &std::sync::atomic::AtomicBool) {
        run_admin(
            listener,
            &|| stop.load(std::sync::atomic::Ordering::SeqCst),
            &|path| match path {
                "/ping" => Some((200, "text/plain", b"pong\n".to_vec())),
                _ => None,
            },
        );
    }

    #[test]
    fn stalled_half_written_request_cannot_starve_the_listener() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (listener, stop) = (&listener, &stop);
            s.spawn(move || ping_plane(listener, stop));
            // Slow-loris peers: connect, write half a request line, then
            // stall with the connection held open.
            let mut lorises: Vec<TcpStream> = (0..3)
                .map(|_| {
                    let mut c = TcpStream::connect(addr).unwrap();
                    c.write_all(b"GET /pi").unwrap();
                    c.flush().unwrap();
                    c
                })
                .collect();
            // While they stall, a well-behaved scrape must be answered
            // promptly — well inside the per-connection read deadline the
            // stalled peers are still burning.
            let start = Instant::now();
            let (code, body) = http_get(addr, "/ping", Duration::from_secs(5)).unwrap();
            assert_eq!(code, 200);
            assert_eq!(body, b"pong\n");
            assert!(
                start.elapsed() < READ_TIMEOUT,
                "scrape starved behind stalled peers: {:?}",
                start.elapsed()
            );
            // Each stalled connection is bounded: answered 400 once its
            // read deadline lapses, never held open indefinitely.
            for loris in &mut lorises {
                loris
                    .set_read_timeout(Some(READ_TIMEOUT + Duration::from_secs(3)))
                    .unwrap();
                let mut raw = Vec::new();
                loris.read_to_end(&mut raw).unwrap();
                let (code, _) = parse_http_response(&raw).unwrap();
                assert_eq!(code, 400);
            }
            stop.store(true, Ordering::SeqCst);
        });
    }

    #[test]
    fn oversized_request_head_is_rejected() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (listener, stop) = (&listener, &stop);
            s.spawn(move || ping_plane(listener, stop));
            // A request head that never terminates and blows through the
            // size cap is cut off with 400 without waiting for the
            // deadline.
            let mut c = TcpStream::connect(addr).unwrap();
            let garbage = vec![b'x'; 2 * MAX_REQUEST_BYTES];
            // The peer may already have been answered mid-write; ignore
            // write errors and read whatever came back.
            let _ = c.write_all(&garbage);
            let _ = c.flush();
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut raw = Vec::new();
            let _ = c.read_to_end(&mut raw);
            let (code, _) = parse_http_response(&raw).unwrap();
            assert_eq!(code, 400);
            stop.store(true, Ordering::SeqCst);
        });
    }
}
