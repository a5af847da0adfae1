//! The [`Recorder`]: collects spans, counters, histograms and events,
//! plus the thread-scoped facade the instrumented crates talk to.

use crate::snapshot::{HistogramSummary, MetricsSnapshot, SpanSummary};
use crate::trace::{Phase, TraceEvent};
use crate::Level;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Thread-scoped facade
// ---------------------------------------------------------------------

/// Monotonic process-wide thread-id source for trace events (OS thread
/// ids are neither small nor stable across platforms).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// The recorder this thread's probes record into, if any.
    static THREAD_RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

fn with_recorder<F: FnOnce(&Recorder)>(f: F) {
    // `try_with`: a probe that runs while this thread's locals are being
    // torn down (a guard dropped by another thread-local's destructor)
    // records nothing rather than panicking.
    let _ = THREAD_RECORDER.try_with(|cell| {
        if let Some(r) = cell.borrow().as_ref() {
            f(r);
        }
    });
}

/// Keeps the paired [`Recorder`] current on the installing thread;
/// restores the thread's previous recorder (or none) on drop.
///
/// Guards nest: installing inside another guard's scope records into
/// the inner recorder until its guard drops, then into the outer one
/// again. The guard is tied to the thread that installed it.
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<Recorder>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let _ = THREAD_RECORDER.try_with(|cell| *cell.borrow_mut() = prev);
    }
}

/// Wraps a closure so that it runs under the calling thread's current
/// recorder, wherever it is called — the way to hand instrumented work
/// to `std::thread::spawn` or `Scope::spawn`. A spawned thread starts
/// with no recorder, so work spawned without this wrapper records
/// nothing.
///
/// ```
/// let recorder = mupod_obs::Recorder::new(mupod_obs::Level::Off).quiet();
/// let guard = recorder.install();
/// std::thread::spawn(mupod_obs::inherit(|| mupod_obs::counter_add("work", 1)))
///     .join()
///     .unwrap();
/// drop(guard);
/// assert_eq!(recorder.snapshot().counters["work"], 1);
/// ```
pub fn inherit<F, R>(f: F) -> impl FnOnce() -> R
where
    F: FnOnce() -> R,
{
    let recorder = THREAD_RECORDER
        .try_with(|cell| cell.borrow().clone())
        .ok()
        .flatten();
    move || {
        let _guard = recorder.as_ref().map(Recorder::install);
        f()
    }
}

/// Starts a timing span; the span ends when the returned guard drops.
///
/// Equivalent to [`span_fields`] with no fields.
pub fn span(name: &'static str) -> SpanGuard {
    span_fields(name, &[])
}

/// Starts a timing span annotated with key/value fields (they appear as
/// `args` on the Chrome trace's begin event).
pub fn span_fields(name: &'static str, fields: &[(&str, &str)]) -> SpanGuard {
    let mut active = false;
    with_recorder(|r| {
        r.begin_span(name, fields);
        active = true;
    });
    SpanGuard {
        name,
        start: active.then(Instant::now),
    }
}

/// Adds `n` to the named monotonic counter.
pub fn counter_add(name: &'static str, n: u64) {
    with_recorder(|r| r.counter_add(name, n));
}

/// Records one observation into the named histogram.
pub fn histogram_record(name: &'static str, value: f64) {
    with_recorder(|r| r.histogram_record(name, value));
}

/// Whether an event at `level` would currently be recorded.
///
/// Callers that build event fields expensively can gate on this; plain
/// [`event`] calls do not need it.
pub fn level_enabled(level: Level) -> bool {
    let mut enabled = false;
    with_recorder(|r| enabled = level != Level::Off && level <= r.inner.level);
    enabled
}

/// Emits a structured log event: a name plus key/value fields.
///
/// When the calling thread has a recorder (see [`Recorder::install`]
/// and [`inherit`]) and `level` is within its maximum, the event is
/// appended to the trace (as a Chrome *instant* event) and —
/// unless the recorder is [`Recorder::quiet`] — printed to stderr as
/// one `[level] name key=value …` line. Without a recorder the event is
/// dropped, like `tracing` without a subscriber.
pub fn event(level: Level, name: &'static str, fields: &[(&str, &str)]) {
    with_recorder(|r| r.event(level, name, fields));
}

/// Timing guard returned by [`span`]; records the span end on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    /// `None` when no recorder was installed at span entry — the drop
    /// then does nothing, keeping begin/end events paired even if a
    /// recorder is installed mid-span.
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let elapsed = start.elapsed();
        with_recorder(|r| r.end_span(self.name, elapsed.as_nanos() as u64));
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct SpanStat {
    count: u64,
    total_ns: u64,
}

#[derive(Debug, Default)]
struct HistAcc {
    /// Raw observations; sorted at snapshot time so aggregate statistics
    /// do not depend on the (thread-scheduling-dependent) arrival order.
    values: Vec<f64>,
}

#[derive(Debug)]
struct Inner {
    level: Level,
    print_events: bool,
    start: Instant,
    counters: RwLock<BTreeMap<&'static str, AtomicU64>>,
    histograms: Mutex<BTreeMap<&'static str, HistAcc>>,
    span_stats: Mutex<BTreeMap<&'static str, SpanStat>>,
    trace: Mutex<Vec<TraceEvent>>,
}

/// Collects instrumentation from the threads it is current on: the
/// thread that installed it and the threads that [`inherit`] it.
///
/// Clone-cheap handle (internally `Arc`): keep one clone to read the
/// [`Recorder::snapshot`] / [`Recorder::trace_events`] after the
/// [`InstallGuard`] drops.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Recorder {
    /// Creates a recorder that records events up to `level` and prints
    /// them to stderr.
    pub fn new(level: Level) -> Self {
        Recorder {
            inner: Arc::new(Inner {
                level,
                print_events: true,
                start: Instant::now(),
                counters: RwLock::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                span_stats: Mutex::new(BTreeMap::new()),
                trace: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Disables stderr printing (events are still recorded in the
    /// trace). For tests.
    #[must_use]
    pub fn quiet(self) -> Self {
        let inner = Inner {
            level: self.inner.level,
            print_events: false,
            start: self.inner.start,
            counters: RwLock::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            span_stats: Mutex::new(BTreeMap::new()),
            trace: Mutex::new(Vec::new()),
        };
        Recorder {
            inner: Arc::new(inner),
        }
    }

    /// The maximum event level this recorder records.
    pub fn level(&self) -> Level {
        self.inner.level
    }

    /// Makes this recorder the calling thread's current collector until
    /// the returned guard drops. Other threads are unaffected: each has
    /// its own current recorder, and spawned threads start with none
    /// unless their closure is wrapped in [`inherit`].
    pub fn install(&self) -> InstallGuard {
        let prev = THREAD_RECORDER.with(|cell| cell.replace(Some(self.clone())));
        InstallGuard {
            prev,
            _thread_bound: PhantomData,
        }
    }

    fn now_us(&self) -> f64 {
        self.inner.start.elapsed().as_nanos() as f64 / 1_000.0
    }

    fn push_trace(&self, ev: TraceEvent) {
        self.inner
            .trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ev);
    }

    fn begin_span(&self, name: &'static str, fields: &[(&str, &str)]) {
        self.push_trace(TraceEvent {
            name,
            phase: Phase::Begin,
            ts_us: self.now_us(),
            tid: current_tid(),
            args: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        });
    }

    fn end_span(&self, name: &'static str, duration_ns: u64) {
        self.push_trace(TraceEvent {
            name,
            phase: Phase::End,
            ts_us: self.now_us(),
            tid: current_tid(),
            args: Vec::new(),
        });
        let mut stats = self
            .inner
            .span_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let stat = stats.entry(name).or_default();
        // Saturating: a server left running for months must pin these
        // at u64::MAX rather than wrap back through small values.
        stat.count = stat.count.saturating_add(1);
        stat.total_ns = stat.total_ns.saturating_add(duration_ns);
    }

    fn counter_add(&self, name: &'static str, n: u64) {
        {
            let map = self
                .inner
                .counters
                .read()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(c) = map.get(name) {
                crate::rolling::saturating_fetch_add(c, n);
                return;
            }
        }
        let mut map = self
            .inner
            .counters
            .write()
            .unwrap_or_else(|e| e.into_inner());
        crate::rolling::saturating_fetch_add(
            map.entry(name).or_insert_with(|| AtomicU64::new(0)),
            n,
        );
    }

    fn histogram_record(&self, name: &'static str, value: f64) {
        let mut map = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        map.entry(name).or_default().values.push(value);
    }

    fn event(&self, level: Level, name: &'static str, fields: &[(&str, &str)]) {
        if level == Level::Off || level > self.inner.level {
            return;
        }
        self.push_trace(TraceEvent {
            name,
            phase: Phase::Instant,
            ts_us: self.now_us(),
            tid: current_tid(),
            args: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        });
        if self.inner.print_events {
            let mut line = format!("[{level}] {name}");
            for (k, v) in fields {
                line.push(' ');
                line.push_str(k);
                line.push('=');
                if v.contains(' ') {
                    line.push('"');
                    line.push_str(v);
                    line.push('"');
                } else {
                    line.push_str(v);
                }
            }
            eprintln!("{line}");
        }
    }

    /// A point-in-time aggregate of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = {
            let map = self
                .inner
                .counters
                .read()
                .unwrap_or_else(|e| e.into_inner());
            map.iter()
                // ordering: Relaxed tally read — the counters RwLock
                // orders map access; a racing increment lands in the
                // next snapshot instead.
                .map(|(k, v)| ((*k).to_string(), v.load(Ordering::Relaxed)))
                .collect::<BTreeMap<String, u64>>()
        };
        let histograms = {
            let map = self
                .inner
                .histograms
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            map.iter()
                .map(|(k, acc)| ((*k).to_string(), HistogramSummary::from_values(&acc.values)))
                .collect::<BTreeMap<String, HistogramSummary>>()
        };
        let spans = {
            let map = self
                .inner
                .span_stats
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            map.iter()
                .map(|(k, s)| {
                    (
                        (*k).to_string(),
                        SpanSummary {
                            count: s.count,
                            total_ms: s.total_ns as f64 / 1_000_000.0,
                        },
                    )
                })
                .collect::<BTreeMap<String, SpanSummary>>()
        };
        MetricsSnapshot {
            counters,
            histograms,
            spans,
        }
    }

    /// A copy of the trace events recorded so far, in arrival order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner
            .trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Writes the trace as Chrome `trace_event` JSON; see
    /// [`crate::write_chrome_trace`].
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn write_chrome_trace<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        crate::write_chrome_trace(&self.trace_events(), w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test harness runs each test on its own thread, and a recorder
    // is current only on the thread that installed it (and the threads
    // that inherit it), so these tests cannot see each other's traffic.

    #[test]
    fn facade_is_inert_without_a_recorder() {
        counter_add("inert.counter", 5);
        histogram_record("inert.hist", 1.0);
        event(Level::Error, "inert.event", &[]);
        drop(span("inert.span"));
        assert!(!level_enabled(Level::Error));
    }

    #[test]
    fn records_counters_histograms_spans_and_events() {
        let rec = Recorder::new(Level::Info).quiet();
        {
            let _g = rec.install();
            counter_add("c.a", 2);
            counter_add("c.a", 3);
            counter_add("c.b", 1);
            histogram_record("h.x", 2.0);
            histogram_record("h.x", 1.0);
            {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            event(Level::Info, "ev.hello", &[("k", "v")]);
            event(Level::Debug, "ev.dropped", &[]);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters["c.a"], 5);
        assert_eq!(snap.counters["c.b"], 1);
        assert_eq!(snap.histograms["h.x"].count, 2);
        assert_eq!(snap.histograms["h.x"].min, 1.0);
        assert_eq!(snap.histograms["h.x"].max, 2.0);
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["inner"].count, 1);
        let trace = rec.trace_events();
        let instants: Vec<_> = trace.iter().filter(|e| e.phase == Phase::Instant).collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].name, "ev.hello");
        assert_eq!(instants[0].args, vec![("k".to_string(), "v".to_string())]);
        assert_eq!(trace.iter().filter(|e| e.phase == Phase::Begin).count(), 2);
        assert_eq!(trace.iter().filter(|e| e.phase == Phase::End).count(), 2);

        // Dropping the guard stops recording.
        counter_add("c.a", 100);
        assert_eq!(rec.snapshot().counters["c.a"], 5);
    }

    #[test]
    fn counter_increments_saturate_instead_of_wrapping() {
        let sat_rec = Recorder::new(Level::Off).quiet();
        {
            let _g = sat_rec.install();
            counter_add("c.sat", u64::MAX - 2);
            counter_add("c.sat", 10); // would wrap; must pin
            counter_add("c.sat", 1); // stays pinned
        }
        assert_eq!(sat_rec.snapshot().counters["c.sat"], u64::MAX);
    }

    #[test]
    fn events_are_gated_by_the_recorder_level() {
        let warn_rec = Recorder::new(Level::Warn).quiet();
        {
            let _g = warn_rec.install();
            assert!(level_enabled(Level::Error));
            assert!(level_enabled(Level::Warn));
            assert!(!level_enabled(Level::Info));
            event(Level::Info, "ev.quiet", &[]);
            event(Level::Warn, "ev.loud", &[]);
        }
        let trace = warn_rec.trace_events();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].name, "ev.loud");
    }

    #[test]
    fn a_pre_install_span_never_emits_an_unmatched_end() {
        let pre = span("orphan");
        let off_rec = Recorder::new(Level::Off).quiet();
        {
            let _g = off_rec.install();
            drop(pre);
        }
        assert!(off_rec.trace_events().is_empty());
    }

    #[test]
    fn inheriting_threads_get_distinct_trace_tids() {
        let tid_rec = Recorder::new(Level::Off).quiet();
        {
            let _g = tid_rec.install();
            let _outer = span("main-side");
            std::thread::scope(|s| {
                s.spawn(inherit(|| {
                    let _w = span("worker-side");
                }));
            });
        }
        let trace = tid_rec.trace_events();
        let tid_of = |name: &str| trace.iter().find(|e| e.name == name).map(|e| e.tid);
        assert_ne!(tid_of("main-side").unwrap(), tid_of("worker-side").unwrap());
    }

    /// Regression: a thread without a recorder must not record into
    /// another thread's recorder while that one's guard is live.
    #[test]
    fn a_thread_without_a_recorder_does_not_leak_into_a_live_one() {
        let rec = Recorder::new(Level::Info).quiet();
        {
            let _g = rec.install();
            std::thread::scope(|s| {
                s.spawn(|| {
                    counter_add("c.stray", 1);
                    event(Level::Error, "ev.stray", &[]);
                    drop(span("stray"));
                });
            });
            counter_add("c.own", 1);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), ["c.own"]);
        assert!(snap.spans.is_empty());
        assert!(rec.trace_events().is_empty());
    }

    #[test]
    fn inherit_carries_the_recorder_into_a_spawned_thread() {
        let rec = Recorder::new(Level::Info).quiet();
        {
            let _g = rec.install();
            let handle = std::thread::spawn(inherit(|| {
                counter_add("c.spawned", 2);
                drop(span("spawned"));
                7
            }));
            assert_eq!(handle.join().unwrap(), 7);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters["c.spawned"], 2);
        assert_eq!(snap.spans["spawned"].count, 1);
        // The spawned thread's guard dropped with its closure: this
        // thread's own guard is gone too, so nothing records any more.
        counter_add("c.spawned", 5);
        assert_eq!(rec.snapshot().counters["c.spawned"], 2);
    }

    #[test]
    fn inherit_without_a_recorder_records_nothing() {
        let rec = Recorder::new(Level::Info).quiet();
        let work = inherit(|| counter_add("c.none", 1));
        {
            let _g = rec.install();
            std::thread::spawn(work).join().unwrap();
        }
        assert!(rec.snapshot().counters.is_empty());
    }

    #[test]
    fn a_nested_install_restores_the_outer_recorder() {
        let outer = Recorder::new(Level::Off).quiet();
        let inner = Recorder::new(Level::Off).quiet();
        {
            let _o = outer.install();
            counter_add("c.before", 1);
            {
                let _i = inner.install();
                counter_add("c.inner", 1);
            }
            counter_add("c.after", 1);
        }
        counter_add("c.none", 1);
        let keys = |r: &Recorder| r.snapshot().counters.into_keys().collect::<Vec<_>>();
        assert_eq!(keys(&outer), ["c.after", "c.before"]);
        assert_eq!(keys(&inner), ["c.inner"]);
    }

    #[test]
    fn two_threads_recorders_stay_isolated() {
        let barrier = std::sync::Barrier::new(2);
        let run = |name: &'static str, n: u64| {
            let rec = Recorder::new(Level::Off).quiet();
            let _g = rec.install();
            // Both guards are live from here until both threads have
            // counted.
            barrier.wait();
            counter_add(name, n);
            barrier.wait();
            rec
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run("c.a", 1));
            let b = s.spawn(|| run("c.b", 2));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(
            a.snapshot().counters.into_iter().collect::<Vec<_>>(),
            [("c.a".to_string(), 1)]
        );
        assert_eq!(
            b.snapshot().counters.into_iter().collect::<Vec<_>>(),
            [("c.b".to_string(), 2)]
        );
    }

    /// Regression: span totals saturate rather than wrap on a
    /// long-running server (no global state needed — `end_span` is
    /// driven directly on an uninstalled recorder).
    #[test]
    fn span_totals_saturate_instead_of_wrapping() {
        let rec = Recorder::new(Level::Off).quiet();
        rec.end_span("long", u64::MAX - 5);
        rec.end_span("long", 100);
        let snap = rec.snapshot();
        assert_eq!(snap.spans["long"].count, 2);
        assert!((snap.spans["long"].total_ms - u64::MAX as f64 / 1e6).abs() < 1.0);
    }
}
