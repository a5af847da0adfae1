//! Cooperative cancellation: a shared token that long-running stages
//! poll at safe points.
//!
//! Cancellation is *cooperative* by design: nothing is ever torn down
//! mid-write. A SIGINT or a watchdog deadline merely flips the token;
//! each stage notices at its next [`CancelToken::checkpoint`] and
//! drains — finishing (or abandoning) the current unit of work, leaving
//! every artifact either untouched or complete. The supervisor then
//! flushes journals, metrics and traces before the process exits.

// Every unsafe operation in this module (the signal(2) FFI below) must
// be individually justified, even inside unsafe fns.
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

/// Why a run was cancelled. The first cancellation wins; later calls
/// with a different reason are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The user asked the process to stop (SIGINT / Ctrl-C).
    Interrupt,
    /// A stage overran its watchdog deadline.
    Timeout,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Interrupt => write!(f, "interrupted"),
            CancelReason::Timeout => write!(f, "stage deadline exceeded"),
        }
    }
}

/// The typed error a cancelled checkpoint returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// What triggered the cancellation.
    pub reason: CancelReason,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cancelled: {}", self.reason)
    }
}

impl std::error::Error for Cancelled {}

const STATE_LIVE: u8 = 0;
const STATE_INTERRUPT: u8 = 1;
const STATE_TIMEOUT: u8 = 2;

/// A cloneable cancellation flag shared between the supervisor, its
/// watchdogs, the SIGINT handler and every cooperating stage.
///
/// Clones share state: cancelling any clone cancels them all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
}

impl CancelToken {
    /// Creates a live (not cancelled) token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. The first reason to arrive is kept.
    pub fn cancel(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::Interrupt => STATE_INTERRUPT,
            CancelReason::Timeout => STATE_TIMEOUT,
        };
        if self
            .state
            .compare_exchange(STATE_LIVE, code, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            mupod_obs::counter_add("runtime.cancellations", 1);
        }
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::SeqCst) != STATE_LIVE
    }

    /// The cancellation reason, if any.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.state.load(Ordering::SeqCst) {
            STATE_INTERRUPT => Some(CancelReason::Interrupt),
            STATE_TIMEOUT => Some(CancelReason::Timeout),
            _ => None,
        }
    }

    /// The polling point stages call between units of work.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] once cancellation has been requested.
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        match self.reason() {
            None => Ok(()),
            Some(reason) => Err(Cancelled { reason }),
        }
    }

    /// Sleeps up to `total`, waking early (returning `Err`) if the token
    /// is cancelled meanwhile. Polls in small slices so Ctrl-C during a
    /// retry backoff stays responsive.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if cancellation arrives during the sleep.
    pub fn sleep_cancellable(&self, total: std::time::Duration) -> Result<(), Cancelled> {
        let slice = std::time::Duration::from_millis(10);
        let deadline = std::time::Instant::now() + total;
        loop {
            self.checkpoint()?;
            let now = std::time::Instant::now();
            if now >= deadline {
                return Ok(());
            }
            std::thread::sleep(slice.min(deadline - now));
        }
    }
}

// ---------------------------------------------------------------------
// SIGINT wiring
// ---------------------------------------------------------------------

/// Set by the signal handler; drained by the watcher thread. A signal
/// handler may only touch async-signal-safe state, hence the indirection
/// through a plain atomic rather than cancelling the token directly.
static SIGINT_PENDING: AtomicBool = AtomicBool::new(false);
static SIGINT_SEEN_ONCE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    use std::os::raw::c_int;

    pub const SIGINT: c_int = 2;
    pub type Handler = extern "C" fn(c_int);

    extern "C" {
        pub fn signal(signum: c_int, handler: Handler) -> usize;
        pub fn _exit(status: c_int) -> !;
    }
}

#[cfg(unix)]
extern "C" fn sigint_handler(_sig: std::os::raw::c_int) {
    // Second Ctrl-C: the drain is taking too long for the user's taste —
    // exit immediately with the conventional 128 + SIGINT status.
    if SIGINT_SEEN_ONCE.swap(true, Ordering::SeqCst) {
        // SAFETY: `_exit(2)` is on POSIX's async-signal-safe list and
        // takes no pointers; it never returns, so no Rust state is
        // observed afterwards. Nothing in this handler allocates or
        // locks before reaching it.
        unsafe { sys::_exit(130) };
    }
    SIGINT_PENDING.store(true, Ordering::SeqCst);
}

/// Installs a SIGINT handler that cancels `token` with
/// [`CancelReason::Interrupt`].
///
/// The handler itself only sets an atomic flag (the async-signal-safe
/// subset); a detached watcher thread polls the flag every few
/// milliseconds and performs the actual cancellation. A **second**
/// SIGINT bypasses the graceful drain and exits with status 130
/// immediately.
///
/// The watcher inherits the caller's `mupod_obs` recorder, so call this
/// inside the run's recorder scope for the interrupt's
/// `runtime.cancellations` count and event to reach the run's metrics.
///
/// On non-unix platforms this is a no-op.
pub fn install_sigint(token: &CancelToken) {
    #[cfg(unix)]
    {
        let token = token.clone();
        // SAFETY: `sigint_handler` is `extern "C"`, never unwinds, and
        // touches only lock-free atomics (the async-signal-safe subset).
        // `signal(2)` itself only installs the pointer; the previous
        // handler is the process default, safe to discard.
        unsafe {
            sys::signal(sys::SIGINT, sigint_handler);
        }
        let spawned = std::thread::Builder::new()
            .name("mupod-sigint-watcher".into())
            .spawn(mupod_obs::inherit(move || loop {
                if SIGINT_PENDING.load(Ordering::SeqCst) {
                    token.cancel(CancelReason::Interrupt);
                    mupod_obs::event(
                        mupod_obs::Level::Warn,
                        "runtime.interrupt",
                        &[("action", "draining to a graceful stop")],
                    );
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }));
        // Without the watcher a first Ctrl-C cannot drain gracefully
        // (the second still hard-exits via the handler); degrade loudly
        // rather than panic during startup.
        if let Err(e) = spawned {
            mupod_obs::event(
                mupod_obs::Level::Warn,
                "runtime.sigint_watcher_failed",
                &[
                    ("error", &e.to_string()),
                    ("action", "graceful Ctrl-C drain disabled"),
                ],
            );
        }
    }
    #[cfg(not(unix))]
    {
        let _ = token;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_live_and_latches_first_reason() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert!(t.checkpoint().is_ok());

        t.cancel(CancelReason::Timeout);
        t.cancel(CancelReason::Interrupt); // loses the race, ignored
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Timeout));
        assert_eq!(
            t.checkpoint().unwrap_err(),
            Cancelled {
                reason: CancelReason::Timeout
            }
        );
    }

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel(CancelReason::Interrupt);
        assert!(a.is_cancelled());
        assert_eq!(a.reason(), Some(CancelReason::Interrupt));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "asserts wall-clock bounds; flaky under interpretation slowdown"
    )]
    fn cancellable_sleep_wakes_early() {
        let t = CancelToken::new();
        let t2 = t.clone();
        let start = std::time::Instant::now();
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            t2.cancel(CancelReason::Interrupt);
        });
        let err = t
            .sleep_cancellable(std::time::Duration::from_secs(30))
            .unwrap_err();
        assert_eq!(err.reason, CancelReason::Interrupt);
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        h.join().unwrap();
    }

    #[test]
    fn completed_sleep_returns_ok() {
        let t = CancelToken::new();
        t.sleep_cancellable(std::time::Duration::from_millis(1))
            .unwrap();
    }
}
