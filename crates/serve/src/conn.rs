//! Connection plumbing shared by the serving node, the router front and
//! the admin plane: nonblocking listeners, the polling accept loop, the
//! per-connection frame loop, the deadline-bounded frame read, and the
//! response write and bad-frame reply that count what went wrong.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use mupod_runtime::StatusCode;

use crate::frame::{self, FrameError};
use crate::server::{bump, POLL};

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

/// The tallies a framed listener's connections keep; both are report
/// counters of the serving node and of the router.
#[derive(Default)]
pub(crate) struct ConnStats {
    /// Malformed / truncated / oversized frames answered `BadRequest`.
    pub(crate) bad_frames: AtomicU64,
    /// Peers that vanished mid-request or mid-response.
    pub(crate) client_disconnects: AtomicU64,
}

impl ConnStats {
    /// Writes one whole response frame and flushes. `false` means the
    /// peer vanished: that counts one client disconnect and logs the
    /// warning `serve.client_disconnect`.
    pub(crate) fn write_frame(&self, stream: &mut TcpStream, bytes: &[u8]) -> bool {
        match stream.write_all(bytes).and_then(|()| stream.flush()) {
            Ok(()) => true,
            Err(e) => {
                bump(&self.client_disconnects);
                mupod_obs::event(
                    mupod_obs::Level::Warn,
                    "serve.client_disconnect",
                    &[("during", "response write"), ("error", &e.to_string())],
                );
                false
            }
        }
    }

    /// Answers a frame error with an untraced `BadRequest`, counts it and
    /// logs the warning `serve.bad_frame`. Always `false`: a malformed
    /// binary stream cannot be re-synchronized, so the connection closes.
    pub(crate) fn reject_bad_frame(&self, stream: &mut TcpStream, err: &FrameError) -> bool {
        bump(&self.bad_frames);
        let msg = err.to_string();
        mupod_obs::event(
            mupod_obs::Level::Warn,
            "serve.bad_frame",
            &[("error", &msg)],
        );
        self.write_frame(
            stream,
            &frame::encode_response_traced(StatusCode::BadRequest, None, msg.as_bytes()),
        );
        false
    }
}

/// Per-connection loop of a framed listener: polls for each frame's
/// first byte and hands it to `serve_one`, until the peer leaves,
/// `serve_one` returns `false` or `draining` turns true. A read failure
/// other than a timeout counts one client disconnect in `stats`.
pub(crate) fn frame_loop(
    mut stream: TcpStream,
    draining: impl Fn() -> bool,
    stats: &ConnStats,
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
                bump(&stats.client_disconnects);
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
