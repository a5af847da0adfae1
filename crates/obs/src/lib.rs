//! Zero-dependency instrumentation for the profile → optimize →
//! evaluate pipeline: hierarchical timing spans, monotonic counters,
//! value histograms, structured log events, and two export formats —
//! a metrics snapshot (JSON) and a Chrome `trace_event` trace loadable
//! in `chrome://tracing` / Perfetto.
//!
//! For long-running processes (the serving node) the crate also holds
//! the live-telemetry primitives: [`rolling`] sliding-window histograms
//! and gauges readable concurrently with writers, the [`expo`]
//! Prometheus text-exposition builder the scrape endpoint renders
//! with, and the [`flight`] recorder ring that preserves the last N
//! request-lifecycle events for post-mortem dumps.
//!
//! Modeled on the `tracing` facade and vendored like the workspace's
//! `proptest`/`criterion` stand-ins: the instrumented crates call the
//! free functions below unconditionally; when the calling thread has no
//! [`Recorder`] every call is one thread-local read, so the hot paths
//! (per-layer forward execution, noise-injection sweeps) pay nothing in
//! ordinary library use.
//!
//! # Scope
//!
//! A recorder is scoped to a run, not to the process.
//! [`Recorder::install`] makes it current on the calling thread until
//! the guard drops (guards nest: the previous recorder comes back).
//! Spawned threads start with no recorder; a spawn site that runs
//! instrumented work wraps its closure in [`inherit`], which carries
//! the spawner's recorder over. Two runs in one process — two tests,
//! say — therefore never see each other's counters, even when both are
//! live at once.
//!
//! # Determinism contract
//!
//! Everything a test may assert on is seed-stable: counter values,
//! span *structure* (names, counts, nesting) and histogram statistics
//! (values are sorted before aggregation, so thread scheduling cannot
//! perturb floating-point sums). Only durations and timestamps vary
//! between runs.
//!
//! # Example
//!
//! ```
//! let recorder = mupod_obs::Recorder::new(mupod_obs::Level::Info).quiet();
//! let guard = recorder.install();
//! {
//!     let _span = mupod_obs::span("work");
//!     mupod_obs::counter_add("items.processed", 3);
//! }
//! drop(guard);
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counters["items.processed"], 3);
//! assert_eq!(snap.spans["work"].count, 1);
//! ```

pub mod expo;
pub mod flight;
pub mod json;
mod recorder;
pub mod rolling;
mod snapshot;
mod trace;

pub use expo::Exposition;
pub use flight::{FlightEvent, FlightRecorder, FlightStage, FLIGHT_SCHEMA};
pub use recorder::{
    counter_add, event, histogram_record, inherit, level_enabled, span, span_fields, InstallGuard,
    Recorder, SpanGuard,
};
pub use rolling::{Gauge, RollingHistogram, RollingSummary};
pub use snapshot::{HistogramSummary, MetricsSnapshot, SpanSummary};
pub use trace::{write_chrome_trace, Phase, TraceEvent};

/// Event/recording verbosity, ordered from nothing to everything.
///
/// A [`Recorder`] carries a maximum level; an event is recorded (and
/// printed to stderr, unless the recorder is [`Recorder::quiet`]) when
/// its level is at or below that maximum. Spans, counters and
/// histograms are not level-gated — they are the data the exporters
/// exist for — only log events are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing, print nothing.
    Off,
    /// Unrecoverable failures.
    Error,
    /// Degraded-but-continuing conditions (e.g. fallback fits).
    Warn,
    /// Pipeline progress.
    Info,
    /// Per-item detail (per-layer completions, per-candidate σ tests).
    Debug,
    /// Everything.
    Trace,
}

impl Level {
    /// All levels, in ascending verbosity.
    pub const ALL: [Level; 6] = [
        Level::Off,
        Level::Error,
        Level::Warn,
        Level::Info,
        Level::Debug,
        Level::Trace,
    ];

    /// The lowercase name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name as accepted by `--log-level`.
    ///
    /// # Errors
    ///
    /// Returns the offending string on anything but
    /// `off|error|warn|info|debug|trace`.
    pub fn parse(s: &str) -> Result<Level, String> {
        Level::ALL
            .iter()
            .copied()
            .find(|l| l.name() == s)
            .ok_or_else(|| format!("unknown log level `{s}`"))
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Off < Level::Error);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn level_names_roundtrip() {
        for l in Level::ALL {
            assert_eq!(Level::parse(l.name()).unwrap(), l);
        }
        assert!(Level::parse("loud").is_err());
    }
}
