//! Connection plumbing shared by the serving node, the router front and
//! the admin plane: nonblocking listeners, the polling accept loop, the
//! per-connection frame loop and the deadline-bounded frame read.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::server::POLL;

/// Socket write timeout on framed connections: a peer that stops reading
/// cannot pin a handler.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Whether a read error only means the socket's read timeout elapsed.
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Binds `addr` and makes the listener nonblocking, returning it with
/// the address actually bound (an ephemeral port resolved).
pub(crate) fn bind_nonblocking(addr: &str) -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    Ok((listener, local))
}

/// Accepts on a nonblocking listener until `stop` turns true, handing
/// each connection to `on_conn`. Between attempts the loop sleeps one
/// [`POLL`]; an accept failure is logged as the warning `error_event`
/// and retried.
pub(crate) fn accept_until(
    listener: &TcpListener,
    stop: impl Fn() -> bool,
    error_event: &'static str,
    mut on_conn: impl FnMut(TcpStream),
) {
    while !stop() {
        match listener.accept() {
            Ok((stream, _peer)) => on_conn(stream),
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => {
                mupod_obs::event(
                    mupod_obs::Level::Warn,
                    error_event,
                    &[("error", &e.to_string())],
                );
                std::thread::sleep(POLL);
            }
        }
    }
}

/// Per-connection loop of a framed listener: polls for each frame's
/// first byte and hands it to `serve_one`, until the peer leaves,
/// `serve_one` returns `false` or `draining` turns true. A read failure
/// other than a timeout calls `on_disconnect` once.
pub(crate) fn frame_loop(
    mut stream: TcpStream,
    draining: impl Fn() -> bool,
    on_disconnect: impl FnOnce(),
    mut serve_one: impl FnMut(&mut TcpStream, u8) -> bool,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut first = [0u8; 1];
    while !draining() {
        match stream.read(&mut first) {
            Ok(0) => break,
            Ok(_) => {
                if !serve_one(&mut stream, first[0]) {
                    break;
                }
            }
            Err(e) if is_timeout(&e) => {}
            Err(_) => {
                on_disconnect();
                break;
            }
        }
    }
}

/// Reads exactly `buf` from a stream whose read timeout slices the
/// wait, giving up at `deadline`. `false` means truncated/disconnected.
pub(crate) fn read_remaining(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= deadline {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}
