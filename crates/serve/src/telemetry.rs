//! The live telemetry plane: rolling-window instruments, the
//! `/metrics` and `/health` renderers, and the flight-recorder dump.
//!
//! Everything here reads the server's shared state without stopping
//! it: the rolling histograms ([`mupod_obs::RollingHistogram`]) are
//! written lock-free on the hot path and merged at scrape time, the
//! report counters are plain atomics, and the flight recorder holds a
//! short mutex per event. A scrape therefore never blocks admission
//! or a worker's batch. The router keeps the same [`Telemetry`].
//!
//! `DESIGN.md` §13 describes the plane end to end; the exposition
//! syntax is checked by [`mupod_obs::expo::validate`] in the tests and
//! the CI `telemetry-smoke` job.

use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use mupod_obs::{Exposition, FlightRecorder, Gauge, RollingHistogram};

use crate::server::{ServeConfig, Shared};

/// Sliding window the scrape quantiles cover.
const WINDOW: Duration = Duration::from_secs(60);
/// Slots per window: 5-second resolution on expiry.
const WINDOW_SLOTS: usize = 12;
/// Lifecycle events the flight recorder retains.
const FLIGHT_CAPACITY: usize = 4096;

/// Health-document schema tag.
pub const HEALTH_SCHEMA: &str = "mupod-health v1";

/// Per-server live instruments, owned by the serving node's and the
/// router's shared state.
pub(crate) struct Telemetry {
    /// Server start (uptime base).
    pub(crate) start: Instant,
    /// OK-request latency, microseconds, rolling window.
    pub(crate) latency_us: RollingHistogram,
    /// Every OK-request latency of the run, microseconds; the drain
    /// report's percentiles come from it.
    latencies_us: Mutex<Vec<u64>>,
    /// Queue depth sampled at every admission.
    pub(crate) queue_depth: RollingHistogram,
    /// Live jobs per executed batch (batch occupancy).
    pub(crate) batch_fill: RollingHistogram,
    /// Requests admitted but not yet answered.
    pub(crate) in_flight: Gauge,
    /// Request-lifecycle ring for post-mortem dumps.
    pub(crate) flight: FlightRecorder,
}

impl Telemetry {
    pub(crate) fn new() -> Self {
        Telemetry {
            start: Instant::now(),
            latency_us: RollingHistogram::new(WINDOW, WINDOW_SLOTS),
            latencies_us: Mutex::new(Vec::new()),
            queue_depth: RollingHistogram::new(WINDOW, WINDOW_SLOTS),
            batch_fill: RollingHistogram::new(WINDOW, WINDOW_SLOTS),
            in_flight: Gauge::new(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
        }
    }

    /// Records one OK request's latency since `accepted`, both into the
    /// rolling window and into the run's exact list.
    pub(crate) fn record_latency(&self, accepted: Instant) {
        let us = accepted.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency_us.record(us);
        self.latencies_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(us);
    }

    /// Takes the run's exact latency list (at drain).
    pub(crate) fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(
            &mut *self
                .latencies_us
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

/// Renders the `/metrics` payload: every report counter, the pressure
/// gauges, and the rolling-window histograms with p50/p99 summaries.
pub(crate) fn render_metrics(cfg: &ServeConfig, shared: &Shared) -> String {
    let t = &shared.telemetry;
    let mut e = Exposition::new();
    e.gauge_f64(
        "mupod_uptime_seconds",
        "Seconds since the server started.",
        t.start.elapsed().as_secs_f64(),
    );
    for (_, name, help, counter) in shared.stats.table() {
        e.counter(name, help, counter.load(Ordering::SeqCst));
    }
    e.counter(
        "mupod_flight_events_dropped_total",
        "Flight-recorder events evicted because the ring was full.",
        t.flight.dropped(),
    );
    e.gauge(
        "mupod_queue_depth",
        "Requests queued right now.",
        shared.queue.len() as i64,
    );
    e.gauge(
        "mupod_in_flight",
        "Requests admitted but not yet answered.",
        t.in_flight.get(),
    );
    e.gauge(
        "mupod_degrade_level",
        "Current degradation-ladder level (3 = draining).",
        if shared.is_draining() {
            3
        } else {
            i64::from(shared.degrade.load(Ordering::SeqCst))
        },
    );
    e.gauge(
        "mupod_restart_budget_remaining",
        "Worker panics the restart budget still tolerates.",
        i64::from(
            cfg.restart_budget
                .saturating_sub(shared.crashes.load(Ordering::SeqCst)),
        ),
    );
    e.gauge(
        "mupod_serve_kernel_tier",
        "Kernel tier the workers run on (0 = exact, 1 = fast).",
        match cfg.kernel_tier {
            mupod_nn::KernelTier::Exact => 0,
            mupod_nn::KernelTier::Fast => 1,
        },
    );
    let lat = t.latency_us.summarize();
    e.histogram(
        "mupod_request_latency_us",
        "OK-request latency in microseconds over the rolling window.",
        &lat,
    );
    e.summary(
        "mupod_request_latency_window_us",
        "Windowed OK-request latency quantiles, microseconds.",
        &[("0.5", lat.quantile(0.5)), ("0.99", lat.quantile(0.99))],
        &lat,
    );
    e.histogram(
        "mupod_admission_queue_depth",
        "Queue depth sampled at each admission over the rolling window.",
        &t.queue_depth.summarize(),
    );
    e.histogram(
        "mupod_batch_fill",
        "Live jobs per executed batch over the rolling window.",
        &t.batch_fill.summarize(),
    );
    e.finish()
}

/// Renders the `/health` payload; the status code is 503 while
/// draining (a load balancer should stop sending work) and 200
/// otherwise, degraded included.
pub(crate) fn render_health(cfg: &ServeConfig, shared: &Shared) -> (u16, String) {
    let t = &shared.telemetry;
    let draining = shared.is_draining();
    let level = if draining {
        3
    } else {
        shared.degrade.load(Ordering::SeqCst)
    };
    let state = if draining {
        "draining"
    } else if level > 0 {
        "degraded"
    } else {
        "ok"
    };
    let crashes = shared.crashes.load(Ordering::SeqCst);
    let body = format!(
        concat!(
            "{{\n",
            "  \"schema\": {schema},\n",
            "  \"state\": {state},\n",
            "  \"degrade_level\": {level},\n",
            "  \"uptime_s\": {uptime},\n",
            "  \"in_flight\": {in_flight},\n",
            "  \"queue_depth\": {depth},\n",
            "  \"queue_capacity\": {capacity},\n",
            "  \"worker_crashes\": {crashes},\n",
            "  \"restart_budget\": {budget},\n",
            "  \"restart_budget_remaining\": {remaining},\n",
            "  \"workers\": {workers}\n",
            "}}\n"
        ),
        schema = mupod_obs::json::escape(HEALTH_SCHEMA),
        state = mupod_obs::json::escape(state),
        level = level,
        uptime = mupod_obs::json::fmt_f64(t.start.elapsed().as_secs_f64()),
        in_flight = t.in_flight.get(),
        depth = shared.queue.len(),
        capacity = shared.queue.capacity(),
        crashes = crashes,
        budget = cfg.restart_budget,
        remaining = cfg.restart_budget.saturating_sub(crashes),
        workers = cfg.workers.max(1),
    );
    (if draining { 503 } else { 200 }, body)
}

/// Seals the flight recorder to `cfg.flight_out`, if configured.
/// Called on worker panic and restart-budget exhaustion so the ring's
/// final moments survive the process; failures are logged, never
/// propagated (a broken disk must not take down serving).
pub(crate) fn dump_flight(cfg: &ServeConfig, shared: &Shared) {
    let Some(path) = cfg.flight_out.as_deref() else {
        return;
    };
    let doc = shared.telemetry.flight.to_json();
    match mupod_runtime::write_atomic(path, doc.as_bytes()) {
        Ok(()) => mupod_obs::event(
            mupod_obs::Level::Info,
            "serve.flight_dumped",
            &[
                ("path", &path.display().to_string()),
                (
                    "events",
                    &shared.telemetry.flight.events().len().to_string(),
                ),
            ],
        ),
        Err(e) => mupod_obs::event(
            mupod_obs::Level::Error,
            "serve.flight_dump_failed",
            &[
                ("path", &path.display().to_string()),
                ("error", &e.to_string()),
            ],
        ),
    }
}
