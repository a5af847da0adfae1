//! The stage supervisor: deadlines, bounded retry, degradation.
//!
//! Each pipeline stage (profile → σ-search → allocate → evaluate) runs
//! under [`Supervisor::run_stage`]:
//!
//! * a **watchdog thread** arms a deadline; if the stage overruns, the
//!   watchdog cancels the shared [`CancelToken`] with
//!   [`CancelReason::Timeout`] and the stage drains at its next
//!   checkpoint — nothing is killed mid-write;
//! * failures classified [`ErrorClass::Transient`] are retried with
//!   exponential backoff and deterministic jitter, up to the policy's
//!   attempt budget;
//! * [`Supervisor::run_stage_with_fallback`] adds the degradation
//!   ladder: when the primary path exhausts its retries, a flagged
//!   conservative fallback runs instead, and the outcome carries
//!   `degraded = true` so reports can surface it.
//!
//! Timeouts are deliberately **not** retried: a deadline overrun means
//! the workload is mis-sized for the budget, and rerunning it would
//! double the damage. The token stays cancelled, so every later stage
//! drains immediately and the process exits with intact artifacts.

use crate::cancel::{CancelReason, CancelToken};
use crate::retry::{ErrorClass, RetryPolicy};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Deadline and retry budget for one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StagePolicy {
    /// Watchdog deadline; `None` means unbounded.
    pub timeout: Option<Duration>,
    /// Retry budget for transient failures.
    pub retry: RetryPolicy,
}

impl StagePolicy {
    /// Unbounded, no-retry policy (supervision as pure bookkeeping).
    pub fn unsupervised() -> Self {
        Self {
            timeout: None,
            retry: RetryPolicy::no_retry(),
        }
    }
}

/// How a supervised stage failed.
#[derive(Debug)]
pub enum StageError<E> {
    /// Every attempt failed; `error` is the last failure.
    Failed {
        /// Stage name.
        stage: String,
        /// Attempts consumed (≥ 1).
        attempts: u32,
        /// The final error.
        error: E,
    },
    /// The watchdog deadline fired and the stage drained.
    TimedOut {
        /// Stage name.
        stage: String,
        /// The deadline that was exceeded.
        timeout: Duration,
    },
    /// The run was cancelled (SIGINT, or a deadline in an earlier
    /// stage) before or while this stage ran.
    Cancelled {
        /// Stage name.
        stage: String,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for StageError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Failed {
                stage,
                attempts,
                error,
            } => write!(
                f,
                "stage `{stage}` failed after {attempts} attempt(s): {error}"
            ),
            StageError::TimedOut { stage, timeout } => write!(
                f,
                "stage `{stage}` exceeded its {:.1}s deadline and was drained",
                timeout.as_secs_f64()
            ),
            StageError::Cancelled { stage } => {
                write!(f, "stage `{stage}` cancelled before completion")
            }
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for StageError<E> {}

/// A successful stage result plus supervision metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOutcome<T> {
    /// The stage's value.
    pub value: T,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Whether the value came from the degraded fallback path.
    pub degraded: bool,
}

/// Watchdog state shared between the armed thread and its guard.
struct WatchdogShared {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Disarms (and joins) the watchdog thread on drop, so a stage that
/// finishes in time never observes a spurious deadline.
struct WatchdogGuard {
    shared: Arc<WatchdogShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Recovers the guard from a poisoned watchdog mutex: the protected
/// state is a lone boolean, always valid, so the poison flag carries no
/// information worth dying for.
fn lock_unpoisoned(m: &Mutex<bool>) -> std::sync::MutexGuard<'_, bool> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl WatchdogGuard {
    fn arm(token: &CancelToken, stage: &str, deadline: Duration) -> Self {
        let shared = Arc::new(WatchdogShared {
            done: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let token = token.clone();
        let stage_name = stage.to_string();
        let spawned = std::thread::Builder::new()
            .name(format!("mupod-watchdog-{stage_name}"))
            .spawn(mupod_obs::inherit(move || {
                let mut done = lock_unpoisoned(&thread_shared.done);
                let mut remaining = deadline;
                loop {
                    if *done {
                        return;
                    }
                    let start = std::time::Instant::now();
                    let (guard, timeout) = thread_shared
                        .cv
                        .wait_timeout(done, remaining)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    done = guard;
                    if *done {
                        return;
                    }
                    if timeout.timed_out() {
                        break;
                    }
                    // Spurious wakeup: keep waiting out the remainder.
                    remaining = remaining.saturating_sub(start.elapsed());
                }
                drop(done);
                mupod_obs::counter_add("runtime.stage_timeouts", 1);
                mupod_obs::event(
                    mupod_obs::Level::Warn,
                    "runtime.timeout",
                    &[
                        ("stage", &stage_name),
                        ("deadline_ms", &deadline.as_millis().to_string()),
                        ("action", "draining to a graceful stop"),
                    ],
                );
                token.cancel(CancelReason::Timeout);
            }));
        // A failed spawn (thread exhaustion) must not kill the pipeline:
        // the stage simply runs without deadline enforcement, loudly.
        let handle = match spawned {
            Ok(h) => Some(h),
            Err(e) => {
                mupod_obs::event(
                    mupod_obs::Level::Warn,
                    "runtime.watchdog_unarmed",
                    &[
                        ("stage", stage),
                        ("error", &e.to_string()),
                        ("action", "stage deadline not enforced"),
                    ],
                );
                None
            }
        };
        Self { shared, handle }
    }
}

impl Drop for WatchdogGuard {
    fn drop(&mut self) {
        *lock_unpoisoned(&self.shared.done) = true;
        self.shared.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Runs pipeline stages under a shared cancellation token.
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    token: CancelToken,
}

impl Supervisor {
    /// Creates a supervisor around an existing token (e.g. one already
    /// wired to SIGINT).
    pub fn new(token: CancelToken) -> Self {
        Self { token }
    }

    /// The shared token, for wiring into cooperating stages.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Runs one supervised stage.
    ///
    /// `attempt` is invoked with the shared token (poll it at safe
    /// points); `classify` decides which of its errors are worth
    /// retrying. Timeouts and cancellations are never retried.
    ///
    /// # Errors
    ///
    /// [`StageError::Cancelled`] / [`StageError::TimedOut`] when the
    /// token fired (before or during the stage), [`StageError::Failed`]
    /// when the attempt budget is exhausted or a permanent error occurs.
    pub fn run_stage<T, E>(
        &self,
        stage: &str,
        policy: StagePolicy,
        classify: impl Fn(&E) -> ErrorClass,
        mut attempt: impl FnMut(&CancelToken) -> Result<T, E>,
    ) -> Result<StageOutcome<T>, StageError<E>>
    where
        E: std::fmt::Display,
    {
        let _span = mupod_obs::span_fields("runtime.stage", &[("stage", stage)]);
        let max_attempts = policy.retry.max_attempts.max(1);
        let mut attempts = 0u32;
        loop {
            if let Err(c) = self.token.checkpoint() {
                return Err(self.cancellation_error(stage, c.reason, policy));
            }
            attempts += 1;
            let _watchdog = policy
                .timeout
                .map(|d| WatchdogGuard::arm(&self.token, stage, d));
            let result = attempt(&self.token);
            drop(_watchdog);
            match result {
                Ok(value) => {
                    return Ok(StageOutcome {
                        value,
                        attempts,
                        degraded: false,
                    })
                }
                Err(error) => {
                    // A failure after the token fired is the drain
                    // completing, not a stage bug: report the
                    // cancellation, whatever error the drain surfaced.
                    if let Some(reason) = self.token.reason() {
                        return Err(self.cancellation_error(stage, reason, policy));
                    }
                    let out_of_budget = attempts >= max_attempts;
                    if out_of_budget || classify(&error) == ErrorClass::Permanent {
                        return Err(StageError::Failed {
                            stage: stage.to_string(),
                            attempts,
                            error,
                        });
                    }
                    let delay = policy.retry.delay_for(attempts);
                    mupod_obs::counter_add("runtime.retries", 1);
                    mupod_obs::event(
                        mupod_obs::Level::Warn,
                        "runtime.retry",
                        &[
                            ("stage", stage),
                            ("attempt", &attempts.to_string()),
                            ("delay_ms", &delay.as_millis().to_string()),
                            ("error", &error.to_string()),
                        ],
                    );
                    if self.token.sleep_cancellable(delay).is_err() {
                        let reason = self.token.reason().unwrap_or(CancelReason::Interrupt);
                        return Err(self.cancellation_error(stage, reason, policy));
                    }
                }
            }
        }
    }

    /// [`Supervisor::run_stage`] plus the degradation ladder: when the
    /// primary path fails permanently (or exhausts retries), `fallback`
    /// runs once under the same supervision, and a success is flagged
    /// `degraded`. Cancellations and timeouts are not degradable — they
    /// propagate unchanged.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::run_stage`]; a failed fallback reports the
    /// fallback's error.
    pub fn run_stage_with_fallback<T, E>(
        &self,
        stage: &str,
        policy: StagePolicy,
        classify: impl Fn(&E) -> ErrorClass,
        attempt: impl FnMut(&CancelToken) -> Result<T, E>,
        fallback: impl FnOnce(&CancelToken) -> Result<T, E>,
    ) -> Result<StageOutcome<T>, StageError<E>>
    where
        E: std::fmt::Display,
    {
        match self.run_stage(stage, policy, &classify, attempt) {
            Ok(outcome) => Ok(outcome),
            Err(StageError::Failed {
                attempts, error, ..
            }) => {
                mupod_obs::counter_add("runtime.degraded_fallbacks", 1);
                mupod_obs::event(
                    mupod_obs::Level::Warn,
                    "runtime.degraded",
                    &[
                        ("stage", stage),
                        ("after_attempts", &attempts.to_string()),
                        ("error", &error.to_string()),
                        ("action", "conservative fallback path"),
                    ],
                );
                let fb_stage = format!("{stage}.fallback");
                let fb_policy = StagePolicy {
                    retry: RetryPolicy::no_retry(),
                    ..policy
                };
                let mut fallback = Some(fallback);
                self.run_stage(&fb_stage, fb_policy, &classify, move |token| {
                    // lint:allow(no-panic-path) reason=no_retry policy guarantees a single attempt, so take() can never observe None
                    (fallback.take().expect("fallback runs once"))(token)
                })
                .map(|o| StageOutcome {
                    attempts: attempts + o.attempts,
                    degraded: true,
                    value: o.value,
                })
            }
            Err(e) => Err(e),
        }
    }

    fn cancellation_error<E>(
        &self,
        stage: &str,
        reason: CancelReason,
        policy: StagePolicy,
    ) -> StageError<E> {
        mupod_obs::counter_add("runtime.cancelled_stages", 1);
        match reason {
            CancelReason::Timeout => StageError::TimedOut {
                stage: stage.to_string(),
                timeout: policy.timeout.unwrap_or_default(),
            },
            CancelReason::Interrupt => StageError::Cancelled {
                stage: stage.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any_transient(_: &String) -> ErrorClass {
        ErrorClass::Transient
    }

    fn quick_retry(n: u32) -> StagePolicy {
        StagePolicy {
            timeout: None,
            retry: RetryPolicy {
                max_attempts: n,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                jitter_seed: 1,
            },
        }
    }

    #[test]
    fn first_try_success_is_not_degraded() {
        let sup = Supervisor::default();
        let out = sup
            .run_stage("s", quick_retry(3), any_transient, |_| Ok::<_, String>(42))
            .unwrap();
        assert_eq!(out.value, 42);
        assert_eq!(out.attempts, 1);
        assert!(!out.degraded);
    }

    #[test]
    fn transient_failures_retry_until_budget() {
        let sup = Supervisor::default();
        let mut calls = 0;
        let out = sup
            .run_stage("s", quick_retry(3), any_transient, |_| {
                calls += 1;
                if calls < 3 {
                    Err("flaky".to_string())
                } else {
                    Ok(7)
                }
            })
            .unwrap();
        assert_eq!(out.value, 7);
        assert_eq!(out.attempts, 3);

        let mut calls = 0;
        let err = sup
            .run_stage("s", quick_retry(2), any_transient, |_| {
                calls += 1;
                Err::<(), _>("always".to_string())
            })
            .unwrap_err();
        match err {
            StageError::Failed { attempts, .. } => assert_eq!(attempts, 2),
            e => panic!("unexpected {e}"),
        }
        assert_eq!(calls, 2);
    }

    #[test]
    fn permanent_failures_do_not_retry() {
        let sup = Supervisor::default();
        let mut calls = 0;
        let err = sup
            .run_stage(
                "s",
                quick_retry(5),
                |_: &String| ErrorClass::Permanent,
                |_| {
                    calls += 1;
                    Err::<(), _>("deterministic".to_string())
                },
            )
            .unwrap_err();
        assert!(matches!(err, StageError::Failed { attempts: 1, .. }));
        assert_eq!(calls, 1);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "asserts wall-clock bounds; flaky under interpretation slowdown"
    )]
    fn watchdog_deadline_drains_cooperative_stage() {
        let sup = Supervisor::default();
        let start = std::time::Instant::now();
        let err = sup
            .run_stage(
                "slow",
                StagePolicy {
                    timeout: Some(Duration::from_millis(40)),
                    retry: RetryPolicy::no_retry(),
                },
                any_transient,
                |token| {
                    // A cooperative stage: works in slices, polls the token.
                    for _ in 0..1000 {
                        if token.is_cancelled() {
                            return Err("drained".to_string());
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Ok(())
                },
            )
            .unwrap_err();
        assert!(matches!(err, StageError::TimedOut { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "drain took too long"
        );
        // The token stays cancelled: later stages refuse to start.
        let err = sup
            .run_stage("next", StagePolicy::unsupervised(), any_transient, |_| {
                Ok::<_, String>(())
            })
            .unwrap_err();
        assert!(matches!(err, StageError::TimedOut { .. }));
    }

    #[test]
    fn fast_stage_never_sees_the_watchdog() {
        let sup = Supervisor::default();
        let out = sup
            .run_stage(
                "fast",
                StagePolicy {
                    timeout: Some(Duration::from_secs(30)),
                    retry: RetryPolicy::no_retry(),
                },
                any_transient,
                |_| Ok::<_, String>(1),
            )
            .unwrap();
        assert_eq!(out.value, 1);
        assert!(!sup.token().is_cancelled());
    }

    #[test]
    fn user_cancel_reports_cancelled() {
        let sup = Supervisor::default();
        sup.token().cancel(CancelReason::Interrupt);
        let err = sup
            .run_stage("s", StagePolicy::unsupervised(), any_transient, |_| {
                Ok::<_, String>(())
            })
            .unwrap_err();
        assert!(matches!(err, StageError::Cancelled { .. }));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "asserts wall-clock bounds; flaky under interpretation slowdown"
    )]
    fn cancel_during_backoff_wins_over_retry() {
        let sup = Supervisor::default();
        let token = sup.token().clone();
        let policy = StagePolicy {
            timeout: None,
            retry: RetryPolicy {
                max_attempts: 10,
                base_delay: Duration::from_secs(30),
                max_delay: Duration::from_secs(30),
                jitter_seed: 3,
            },
        };
        let start = std::time::Instant::now();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel(CancelReason::Interrupt);
        });
        let err = sup
            .run_stage("s", policy, any_transient, |_| {
                Err::<(), _>("flaky".to_string())
            })
            .unwrap_err();
        h.join().unwrap();
        assert!(matches!(err, StageError::Cancelled { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "slept full backoff"
        );
    }

    #[test]
    fn fallback_is_flagged_degraded() {
        let sup = Supervisor::default();
        let out = sup
            .run_stage_with_fallback(
                "s",
                quick_retry(2),
                any_transient,
                |_| Err::<i32, _>("primary broken".to_string()),
                |_| Ok(99),
            )
            .unwrap();
        assert_eq!(out.value, 99);
        assert!(out.degraded);
        assert_eq!(out.attempts, 3); // 2 primary + 1 fallback

        // A failing fallback surfaces its own error.
        let err = sup
            .run_stage_with_fallback(
                "s",
                quick_retry(1),
                any_transient,
                |_| Err::<i32, _>("primary".to_string()),
                |_| Err("fallback too".to_string()),
            )
            .unwrap_err();
        match err {
            StageError::Failed { error, stage, .. } => {
                assert_eq!(error, "fallback too");
                assert_eq!(stage, "s.fallback");
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn cancellation_is_not_degradable() {
        let sup = Supervisor::default();
        sup.token().cancel(CancelReason::Interrupt);
        let err = sup
            .run_stage_with_fallback(
                "s",
                quick_retry(2),
                any_transient,
                |_| Ok::<i32, String>(1),
                |_| Ok(2),
            )
            .unwrap_err();
        assert!(matches!(err, StageError::Cancelled { .. }));
    }
}
