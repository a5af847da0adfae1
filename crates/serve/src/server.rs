//! The serving loop: admission, connection handling, drain, report.
//!
//! One listener thread accepts connections and spawns a handler per
//! connection; handlers parse frames, apply admission control and the
//! load-shedding ladder, and park on a rendezvous channel while one of
//! the worker threads ([`crate::worker`]) executes the request as part
//! of a batch. Every wait in the building is bounded — socket reads and
//! writes carry timeouts, queue pops time out, response waits time out —
//! so a drain can never hang on a stuck peer.
//!
//! The degradation ladder (level is re-evaluated at every admission):
//!
//! | level | trigger               | effect                               |
//! |------:|-----------------------|--------------------------------------|
//! | 0     | queue below ½ capacity| normal batching                      |
//! | 1     | queue ≥ ½ capacity    | max batch shrinks to 1 (lower latency per request) |
//! | 2     | queue ≥ ¾ capacity    | low-priority requests rejected `ServerBusy` at admission |
//! | 3     | SIGINT / fatal error  | drain: stop accepting, finish in-flight, answer queued `Draining` |

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mupod_nn::{KernelTier, Network};
use mupod_obs::FlightStage;
use mupod_runtime::{CancelToken, StatusCode};

use crate::admin;
use crate::conn::{self, read_remaining, ConnStats};
use crate::frame::{self, FrameError, Priority, ReqKind, ShardState, HEADER_LEN, TRACE_ID_LEN};
use crate::queue::{BoundedQueue, PushError};
use crate::telemetry::Telemetry;
use crate::worker;

/// How often blocked loops (accept, idle connection reads, queue pops)
/// wake to re-check the drain flag.
pub(crate) const POLL: Duration = Duration::from_millis(50);
/// Once a frame's first byte arrives, the rest must follow within this
/// window or the connection is dropped with `BadRequest`.
const FRAME_READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Grace on top of a request's deadline for the worker's answer to
/// arrive before the handler gives up (covers batch execution time).
const RESPONSE_GRACE: Duration = Duration::from_secs(10);

/// Everything `mupod serve` needs to know.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Worker threads, each with its own batch arena.
    pub workers: usize,
    /// Bounded queue capacity — the admission-control limit.
    pub queue_depth: usize,
    /// Largest batch a worker gathers per forward pass.
    pub max_batch: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Worker panics tolerated before the server gives up and drains.
    pub restart_budget: u32,
    /// Honor `ChaosPanic` frames (fault injection for the chaos tests).
    pub chaos: bool,
    /// Test hook: sleep this long before executing each batch, making
    /// deadline-expiry and drain windows deterministic in tests.
    pub slow_batch: Option<Duration>,
    /// Bind address for the admin/scrape plane (`/metrics`, `/health`,
    /// `/flight`); `None` disables it.
    pub metrics_addr: Option<String>,
    /// Where worker panics and budget exhaustion seal the flight
    /// recorder; `None` disables automatic dumps.
    pub flight_out: Option<PathBuf>,
    /// Kernel tier the workers' batch arenas run on. `Exact` (default)
    /// keeps bit-exact inference; `Fast` dispatches to the SIMD/FMA
    /// microkernels (`mupod_tensor::fast`). Surfaces in the readiness
    /// line and the `mupod_serve_kernel_tier` gauge so chaos/soak logs
    /// record which tier was under test.
    pub kernel_tier: KernelTier,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 32,
            max_batch: 4,
            default_deadline: Duration::from_secs(1),
            restart_budget: 8,
            chaos: false,
            slow_batch: None,
            metrics_addr: None,
            flight_out: None,
            kernel_tier: KernelTier::default(),
        }
    }
}

/// The addresses a running server actually bound, delivered through
/// `on_ready` — with port 0 in the config this is the only way to
/// learn the real ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    /// The frame-protocol listener.
    pub addr: SocketAddr,
    /// The admin/scrape listener, when `metrics_addr` was set.
    pub metrics_addr: Option<SocketAddr>,
}

/// What happened over one serving run, computed at drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests answered `Ok` with a class.
    pub requests_ok: u64,
    /// Fast-rejected at admission (queue full or low-priority shed).
    pub rejected_busy: u64,
    /// Answered `Draining` (at admission or dequeued unexecuted).
    pub rejected_draining: u64,
    /// Low-priority requests shed by ladder level ≥ 2 (subset of
    /// `rejected_busy`).
    pub shed_low_priority: u64,
    /// Requests whose deadline expired before or during service.
    pub deadline_expired: u64,
    /// Malformed / truncated / oversized frames answered `BadRequest`.
    pub bad_frames: u64,
    /// Worker panics caught and answered `WorkerCrashed`.
    pub worker_crashes: u64,
    /// Peers that vanished mid-request or mid-response.
    pub client_disconnects: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Requests served through those batches.
    pub batched_requests: u64,
    /// Median OK-request latency, microseconds (0 if none).
    pub p50_latency_us: u64,
    /// 99th-percentile OK-request latency, microseconds (0 if none).
    pub p99_latency_us: u64,
}

/// Terminal serving failures (everything else degrades and continues).
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not bind.
    Bind {
        /// The requested address.
        addr: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// Workers panicked more often than the restart budget allows;
    /// the server drained rather than thrash.
    RestartBudgetExhausted {
        /// Panics observed.
        crashes: u32,
        /// The configured budget.
        budget: u32,
        /// What the server did before giving up — filled in by
        /// [`run`] at drain so callers can still print a summary.
        report: Box<ServeReport>,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::RestartBudgetExhausted {
                crashes, budget, ..
            } => write!(
                f,
                "worker restart budget exhausted ({crashes} crashes > budget {budget}); drained"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } => Some(source),
            ServeError::RestartBudgetExhausted { .. } => None,
        }
    }
}

/// One admitted request travelling from handler to worker.
pub(crate) struct Job {
    /// Requested operation.
    pub(crate) kind: ReqKind,
    /// Raw image data (empty for chaos frames).
    pub(crate) image: Vec<f32>,
    /// When the request must be answered by.
    pub(crate) deadline: Instant,
    /// When the handler admitted it (latency base).
    pub(crate) accepted: Instant,
    /// Wire trace ID (0 = untraced), stamped on flight events.
    pub(crate) trace_id: u64,
    /// Rendezvous back to the waiting handler.
    pub(crate) resp: mpsc::SyncSender<(StatusCode, Vec<u8>)>,
}

/// The counters backing the [`ServeReport`], `/metrics` and the
/// `serve.*` counters of `--metrics-out`: each event is counted once,
/// here, and [`run_reloadable`] copies the totals into the run's
/// recorder at drain.
#[derive(Default)]
pub(crate) struct Stats {
    pub(crate) requests_ok: AtomicU64,
    pub(crate) rejected_busy: AtomicU64,
    pub(crate) rejected_draining: AtomicU64,
    pub(crate) shed_low_priority: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
    pub(crate) conn: ConnStats,
    pub(crate) worker_crashes: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_requests: AtomicU64,
}

/// Counts one event in a report counter.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// One report counter: recorder key, Prometheus family, help text.
type CounterRow<'a> = (&'static str, &'static str, &'static str, &'a AtomicU64);

impl Stats {
    /// Every counter with its names: the one table the drain export and
    /// the `/metrics` renderer both read.
    pub(crate) fn table(&self) -> [CounterRow<'_>; 10] {
        [
            (
                "serve.requests_ok",
                "mupod_requests_ok_total",
                "Requests answered Ok with a class.",
                &self.requests_ok,
            ),
            (
                "serve.rejected_busy",
                "mupod_rejected_busy_total",
                "Fast-rejected at admission (queue full or shed).",
                &self.rejected_busy,
            ),
            (
                "serve.rejected_draining",
                "mupod_rejected_draining_total",
                "Answered Draining at admission or dequeue.",
                &self.rejected_draining,
            ),
            (
                "serve.shed_low_priority",
                "mupod_shed_low_priority_total",
                "Low-priority requests shed by ladder level 2.",
                &self.shed_low_priority,
            ),
            (
                "serve.deadline_expired",
                "mupod_deadline_expired_total",
                "Requests whose deadline expired before or during service.",
                &self.deadline_expired,
            ),
            (
                "serve.bad_frames",
                "mupod_bad_frames_total",
                "Malformed frames answered BadRequest.",
                &self.conn.bad_frames,
            ),
            (
                "serve.worker_crashes",
                "mupod_worker_crashes_total",
                "Worker panics caught and isolated.",
                &self.worker_crashes,
            ),
            (
                "serve.client_disconnects",
                "mupod_client_disconnects_total",
                "Peers that vanished mid-request or mid-response.",
                &self.conn.client_disconnects,
            ),
            (
                "serve.batches",
                "mupod_batches_total",
                "Batched forward passes executed.",
                &self.batches,
            ),
            (
                "serve.batched_requests",
                "mupod_batched_requests_total",
                "Requests served through those batches.",
                &self.batched_requests,
            ),
        ]
    }
}

/// Rebuilds a freshly calibrated [`Network`] from a reload seed; the
/// CLI injects one that re-runs model build + head calibration. `None`
/// makes the server answer reload requests `BadRequest`.
pub type Reloader = dyn Fn(u64) -> Result<Network, String> + Sync;

/// State shared by the listener, every handler and every worker.
pub(crate) struct Shared {
    pub(crate) queue: BoundedQueue<Job>,
    /// The served network. Workers hold an [`Arc`] clone and re-check
    /// [`Self::net_epoch`] between batches, so a reload swap never
    /// blocks the hot path on this mutex.
    pub(crate) net: Mutex<Arc<Network>>,
    /// Bumped once per successful hot reload; workers rebuild their
    /// arenas when it moves.
    pub(crate) net_epoch: AtomicU64,
    /// A reload build is in progress (health pings report `Reloading`).
    pub(crate) reloading: AtomicBool,
    /// Serializes concurrent reload requests without holding
    /// [`Self::net`] across the (slow) rebuild.
    reload_gate: Mutex<()>,
    /// Level-3 flag: set by SIGINT or a fatal worker error.
    pub(crate) draining: AtomicBool,
    /// Current ladder level (0–2; 3 is `draining`).
    pub(crate) degrade: AtomicU8,
    /// Worker panics so far (restart budget bookkeeping).
    pub(crate) crashes: AtomicU32,
    /// First terminal error wins; returned from [`run`].
    pub(crate) fatal: Mutex<Option<ServeError>>,
    pub(crate) stats: Stats,
    /// Live instruments for the scrape endpoint and flight recorder.
    pub(crate) telemetry: Telemetry,
}

impl Shared {
    fn new(net: Network, cfg: &ServeConfig) -> Self {
        Self {
            queue: BoundedQueue::new(cfg.queue_depth.max(1)),
            net: Mutex::new(Arc::new(net)),
            net_epoch: AtomicU64::new(0),
            reloading: AtomicBool::new(false),
            reload_gate: Mutex::new(()),
            draining: AtomicBool::new(false),
            degrade: AtomicU8::new(0),
            crashes: AtomicU32::new(0),
            fatal: Mutex::new(None),
            stats: Stats::default(),
            telemetry: Telemetry::new(),
        }
    }

    /// The currently served network (cheap Arc clone).
    pub(crate) fn current_net(&self) -> Arc<Network> {
        self.net
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// What a health ping should report right now.
    pub(crate) fn shard_state(&self) -> ShardState {
        if self.is_draining() {
            ShardState::Draining
        } else if self.reloading.load(Ordering::SeqCst) {
            ShardState::Reloading
        } else if self.degrade.load(Ordering::SeqCst) > 0 {
            ShardState::Degraded
        } else {
            ShardState::Ok
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Enters ladder level 3: no new admissions, queued work is answered
    /// `Draining`, workers exit once the queue is dry.
    pub(crate) fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            mupod_obs::event(
                mupod_obs::Level::Info,
                "serve.drain_begin",
                &[("queued", &self.queue.len().to_string())],
            );
        }
        self.queue.close();
    }
}

/// Sends a job's response back to its handler; the handler may already
/// have timed out and gone, which is fine — the send just fizzles.
pub(crate) fn respond_job(job: &Job, status: StatusCode, payload: Vec<u8>) {
    let _ = job.resp.send((status, payload));
}

/// Sorts `latencies_us` in place and returns `(p50, p99)` in
/// microseconds — `(0, 0)` for an empty slice. Shared with the
/// sustained-load bench so `BENCH_serve.json` uses the same definition.
pub fn percentiles_us(latencies_us: &mut [u64]) -> (u64, u64) {
    if latencies_us.is_empty() {
        return (0, 0);
    }
    latencies_us.sort_unstable();
    let n = latencies_us.len();
    let p50 = latencies_us[n / 2];
    let p99 = latencies_us[(n * 99 / 100).min(n - 1)];
    (p50, p99)
}

/// Runs the server until `token` cancels (graceful drain → `Ok`) or a
/// terminal error occurs.
///
/// `on_ready` fires once with the bound addresses — with port 0 in the
/// config this is the only way to learn the real ports, and tests use
/// it to synchronize.
///
/// # Errors
///
/// [`ServeError::Bind`] if either listener cannot bind;
/// [`ServeError::RestartBudgetExhausted`] if workers panic more often
/// than `cfg.restart_budget` tolerates (the server drains first, so
/// in-flight clients still get answers).
pub fn run(
    net: &Network,
    cfg: &ServeConfig,
    token: &CancelToken,
    on_ready: impl FnOnce(Bound),
) -> Result<ServeReport, ServeError> {
    run_reloadable(net.clone(), cfg, token, None, on_ready)
}

/// [`run`], plus hot model reload: when `reloader` is `Some`, a
/// `Reload` frame rebuilds the network from the carried seed on the
/// requesting connection's thread and swaps it in atomically. Workers
/// pick the new network up at their next batch boundary; requests
/// already queued or in flight finish on whichever network they
/// dequeued with, so zero accepted requests are dropped.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_reloadable(
    net: Network,
    cfg: &ServeConfig,
    token: &CancelToken,
    reloader: Option<&Reloader>,
    on_ready: impl FnOnce(Bound),
) -> Result<ServeReport, ServeError> {
    let bind = |addr: &str| {
        conn::bind_nonblocking(addr).map_err(|source| ServeError::Bind {
            addr: addr.to_string(),
            source,
        })
    };
    let (listener, local) = bind(&cfg.addr)?;
    let metrics = cfg.metrics_addr.as_deref().map(bind).transpose()?;
    mupod_obs::event(
        mupod_obs::Level::Info,
        "serve.listening",
        &[
            ("addr", &local.to_string()),
            ("workers", &cfg.workers.to_string()),
            ("queue_depth", &cfg.queue_depth.to_string()),
            ("max_batch", &cfg.max_batch.to_string()),
        ],
    );
    let shared = Shared::new(net, cfg);
    on_ready(Bound {
        addr: local,
        metrics_addr: metrics.as_ref().map(|(_, a)| *a),
    });
    std::thread::scope(|s| {
        let shared = &shared;
        for idx in 0..cfg.workers.max(1) {
            s.spawn(mupod_obs::inherit(move || {
                worker::worker_loop(idx, cfg, shared)
            }));
        }
        if let Some((metrics_listener, _)) = metrics {
            s.spawn(mupod_obs::inherit(move || {
                admin::admin_loop(&metrics_listener, cfg, shared)
            }));
        }
        conn::accept_until(
            &listener,
            || token.is_cancelled() || shared.is_draining(),
            "serve.accept_error",
            |stream| {
                mupod_obs::counter_add("serve.connections", 1);
                s.spawn(mupod_obs::inherit(move || {
                    handle_conn(stream, cfg, shared, reloader)
                }));
            },
        );
        shared.begin_drain();
        // The scope joins every worker and handler before returning:
        // workers exit when the closed queue runs dry, handlers when
        // their bounded reads/waits observe the drain flag.
    });
    let mut lat = shared.telemetry.take_latencies();
    let (p50, p99) = percentiles_us(&mut lat);
    // Drain-time export: the run's recorder gets each event count once,
    // from the same counters the report and `/metrics` read.
    let st = &shared.stats;
    for (key, _, _, counter) in st.table() {
        let n = counter.load(Ordering::SeqCst);
        if n > 0 {
            mupod_obs::counter_add(key, n);
        }
    }
    for &us in &lat {
        mupod_obs::histogram_record("serve.latency_us", us as f64);
    }
    let report = ServeReport {
        requests_ok: st.requests_ok.load(Ordering::SeqCst),
        rejected_busy: st.rejected_busy.load(Ordering::SeqCst),
        rejected_draining: st.rejected_draining.load(Ordering::SeqCst),
        shed_low_priority: st.shed_low_priority.load(Ordering::SeqCst),
        deadline_expired: st.deadline_expired.load(Ordering::SeqCst),
        bad_frames: st.conn.bad_frames.load(Ordering::SeqCst),
        worker_crashes: st.worker_crashes.load(Ordering::SeqCst),
        client_disconnects: st.conn.client_disconnects.load(Ordering::SeqCst),
        batches: st.batches.load(Ordering::SeqCst),
        batched_requests: st.batched_requests.load(Ordering::SeqCst),
        p50_latency_us: p50,
        p99_latency_us: p99,
    };
    mupod_obs::event(
        mupod_obs::Level::Info,
        "serve.drained",
        &[
            ("requests_ok", &report.requests_ok.to_string()),
            ("worker_crashes", &report.worker_crashes.to_string()),
        ],
    );
    let fatal = shared
        .fatal
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(mut e) = fatal {
        // The drain still happened; attach what it measured so callers
        // can summarize even on the error path.
        if let ServeError::RestartBudgetExhausted { report: r, .. } = &mut e {
            **r = report;
        }
        return Err(e);
    }
    Ok(report)
}

/// The ladder level the current queue depth maps to (0–2).
fn ladder_level(queue_len: usize, capacity: usize) -> u8 {
    if queue_len * 4 >= capacity * 3 {
        2
    } else if queue_len * 2 >= capacity {
        1
    } else {
        0
    }
}

/// Per-connection loop: poll for a frame, serve it, repeat until the
/// peer leaves, the frame stream goes bad, or the server drains.
/// Input dims are a reload invariant (a dims-changing reload is
/// rejected), so the expected element count is computed once.
fn handle_conn(stream: TcpStream, cfg: &ServeConfig, shared: &Shared, reloader: Option<&Reloader>) {
    let expected_elems: usize = shared.current_net().input_dims().iter().product();
    conn::frame_loop(
        stream,
        || shared.is_draining(),
        &shared.stats.conn,
        |stream, first| serve_one(stream, first, expected_elems, cfg, shared, reloader),
    );
}

/// Writes a response frame, echoing the request's trace ID when
/// nonzero; `false` means the peer vanished.
fn write_response(
    stream: &mut TcpStream,
    shared: &Shared,
    status: StatusCode,
    trace_id: u64,
    payload: &[u8],
) -> bool {
    let frame = frame::encode_response_traced(status, Some(trace_id), payload);
    shared.stats.conn.write_frame(stream, &frame)
}

/// Serves one request whose first header byte has already arrived.
/// Returns whether the connection should stay open.
fn serve_one(
    stream: &mut TcpStream,
    first: u8,
    expected_elems: usize,
    cfg: &ServeConfig,
    shared: &Shared,
    reloader: Option<&Reloader>,
) -> bool {
    let frame_deadline = Instant::now() + FRAME_READ_TIMEOUT;
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    if !read_remaining(stream, &mut header[1..], frame_deadline) {
        return shared
            .stats
            .conn
            .reject_bad_frame(stream, &FrameError::Truncated);
    }
    let h = match frame::parse_request_header(&header) {
        Ok(h) => h,
        Err(e) => return shared.stats.conn.reject_bad_frame(stream, &e),
    };
    let trace_id = if h.has_trace_id {
        let mut ext = [0u8; TRACE_ID_LEN];
        if !read_remaining(stream, &mut ext, frame_deadline) {
            return shared
                .stats
                .conn
                .reject_bad_frame(stream, &FrameError::Truncated);
        }
        frame::decode_trace_id(&ext)
    } else {
        0
    };
    let mut payload = vec![0u8; h.payload_len];
    if !read_remaining(stream, &mut payload, frame_deadline) {
        return shared
            .stats
            .conn
            .reject_bad_frame(stream, &FrameError::Truncated);
    }
    match h.kind {
        ReqKind::Classify => {
            let want = expected_elems * 4;
            if h.payload_len != want {
                return shared.stats.conn.reject_bad_frame(
                    stream,
                    &FrameError::WrongPayloadLen {
                        got: h.payload_len,
                        want,
                    },
                );
            }
        }
        ReqKind::ChaosPanic => {
            if !cfg.chaos {
                return shared
                    .stats
                    .conn
                    .reject_bad_frame(stream, &FrameError::BadKind(2));
            }
        }
        // Control ops are answered inline on the handler thread — they
        // never enter the queue, so they work even under full-queue
        // pressure and (for pings) report the drain honestly.
        ReqKind::HealthPing => {
            let state = shared.shard_state();
            return write_response(stream, shared, StatusCode::Ok, trace_id, &[state.wire()]);
        }
        ReqKind::Reload => {
            if h.payload_len != 8 {
                return shared.stats.conn.reject_bad_frame(
                    stream,
                    &FrameError::WrongPayloadLen {
                        got: h.payload_len,
                        want: 8,
                    },
                );
            }
            let Some(seed) = frame::decode_reload_seed(&payload) else {
                return shared
                    .stats
                    .conn
                    .reject_bad_frame(stream, &FrameError::Truncated);
            };
            let (status, body) = do_reload(seed, shared, reloader);
            return write_response(stream, shared, status, trace_id, &body);
        }
    }
    if shared.is_draining() {
        bump(&shared.stats.rejected_draining);
        shared.telemetry.flight.record(
            trace_id,
            FlightStage::Shed,
            -1,
            StatusCode::Draining.wire(),
        );
        write_response(
            stream,
            shared,
            StatusCode::Draining,
            trace_id,
            b"server draining; not accepting work",
        );
        return false;
    }
    // Re-evaluate the degradation ladder at every admission.
    let depth = shared.queue.len();
    mupod_obs::histogram_record("serve.queue_depth", depth as f64);
    shared.telemetry.queue_depth.record(depth as u64);
    let level = ladder_level(depth, shared.queue.capacity());
    let prev = shared.degrade.swap(level, Ordering::SeqCst);
    if level != prev {
        mupod_obs::event(
            mupod_obs::Level::Warn,
            "serve.degrade_level",
            &[
                ("from", &prev.to_string()),
                ("to", &level.to_string()),
                ("queue_depth", &depth.to_string()),
            ],
        );
    }
    if level >= 2 && h.priority == Priority::Low {
        bump(&shared.stats.shed_low_priority);
        bump(&shared.stats.rejected_busy);
        shared.telemetry.flight.record(
            trace_id,
            FlightStage::Shed,
            -1,
            StatusCode::ServerBusy.wire(),
        );
        return write_response(
            stream,
            shared,
            StatusCode::ServerBusy,
            trace_id,
            b"shedding low-priority traffic",
        );
    }
    let accepted = Instant::now();
    let deadline = accepted
        + if h.deadline_ms == 0 {
            cfg.default_deadline
        } else {
            Duration::from_millis(u64::from(h.deadline_ms))
        };
    let (tx, rx) = mpsc::sync_channel(1);
    let job = Job {
        kind: h.kind,
        image: frame::decode_image(&payload),
        deadline,
        accepted,
        trace_id,
        resp: tx,
    };
    // Recorded before the push: once the job is in the queue a worker
    // may dequeue it instantly, and admit must order before dequeue in
    // the flight ring. A failed push follows up with a shed event.
    shared
        .telemetry
        .flight
        .record(trace_id, FlightStage::Admit, -1, 0);
    match shared.queue.try_push(job, h.priority) {
        Ok(()) => {}
        Err((PushError::Full, _)) => {
            bump(&shared.stats.rejected_busy);
            shared.telemetry.flight.record(
                trace_id,
                FlightStage::Shed,
                -1,
                StatusCode::ServerBusy.wire(),
            );
            return write_response(
                stream,
                shared,
                StatusCode::ServerBusy,
                trace_id,
                b"request queue full",
            );
        }
        Err((PushError::Closed, _)) => {
            bump(&shared.stats.rejected_draining);
            shared.telemetry.flight.record(
                trace_id,
                FlightStage::Shed,
                -1,
                StatusCode::Draining.wire(),
            );
            write_response(
                stream,
                shared,
                StatusCode::Draining,
                trace_id,
                b"server draining; not accepting work",
            );
            return false;
        }
    }
    shared.telemetry.in_flight.add(1);
    let wait = deadline.saturating_duration_since(Instant::now())
        + RESPONSE_GRACE
        + cfg.slow_batch.unwrap_or(Duration::ZERO);
    let outcome = rx.recv_timeout(wait);
    shared.telemetry.in_flight.sub(1);
    let (status, body): (StatusCode, Vec<u8>) = match outcome {
        Ok((status, body)) => (status, body),
        Err(RecvTimeoutError::Timeout) => {
            bump(&shared.stats.deadline_expired);
            (
                StatusCode::DeadlineExceeded,
                b"no worker answered in time".to_vec(),
            )
        }
        Err(RecvTimeoutError::Disconnected) => (
            StatusCode::WorkerCrashed,
            b"worker dropped the request".to_vec(),
        ),
    };
    shared
        .telemetry
        .flight
        .record(trace_id, FlightStage::Reply, -1, status.wire());
    write_response(stream, shared, status, trace_id, &body)
}

/// The drain-and-swap reload handshake: rebuild from the seed (slow,
/// on the requesting connection's thread, gate held so concurrent
/// reloads serialize), verify the input dims are unchanged, then swap
/// the [`Arc`] and bump the epoch. The OK payload is the new epoch as
/// 8 LE bytes; every failure is `BadRequest` with a diagnostic and the
/// old network stays in service untouched.
fn do_reload(seed: u64, shared: &Shared, reloader: Option<&Reloader>) -> (StatusCode, Vec<u8>) {
    let Some(reloader) = reloader else {
        return (
            StatusCode::BadRequest,
            b"reload not supported by this server".to_vec(),
        );
    };
    let _gate = shared
        .reload_gate
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    shared.reloading.store(true, Ordering::SeqCst);
    mupod_obs::event(
        mupod_obs::Level::Info,
        "serve.reload_begin",
        &[("seed", &seed.to_string())],
    );
    let outcome = match reloader(seed) {
        Ok(new_net) => {
            let old_dims = shared.current_net().input_dims().to_vec();
            if new_net.input_dims() != old_dims.as_slice() {
                (
                    StatusCode::BadRequest,
                    format!(
                        "reload changed input dims {:?} -> {:?}; rejected",
                        old_dims,
                        new_net.input_dims()
                    )
                    .into_bytes(),
                )
            } else {
                *shared.net.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(new_net);
                // ordering: epoch publication, not a tally — workers
                // poll this with SeqCst loads to notice a reload
                // between batches; keep the RMW SeqCst so the bump is
                // never observed before the net swap above.
                let epoch = shared
                    .net_epoch
                    .fetch_add(1, Ordering::SeqCst)
                    .wrapping_add(1);
                mupod_obs::event(
                    mupod_obs::Level::Info,
                    "serve.reloaded",
                    &[("seed", &seed.to_string()), ("epoch", &epoch.to_string())],
                );
                (StatusCode::Ok, epoch.to_le_bytes().to_vec())
            }
        }
        Err(msg) => (
            StatusCode::BadRequest,
            format!("reload failed: {msg}").into_bytes(),
        ),
    };
    if outcome.0 != StatusCode::Ok {
        mupod_obs::event(
            mupod_obs::Level::Warn,
            "serve.reload_rejected",
            &[("seed", &seed.to_string())],
        );
    }
    shared.reloading.store(false, Ordering::SeqCst);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_levels_follow_queue_pressure() {
        // Capacity 8: level 1 at 4 queued, level 2 at 6.
        assert_eq!(ladder_level(0, 8), 0);
        assert_eq!(ladder_level(3, 8), 0);
        assert_eq!(ladder_level(4, 8), 1);
        assert_eq!(ladder_level(5, 8), 1);
        assert_eq!(ladder_level(6, 8), 2);
        assert_eq!(ladder_level(8, 8), 2);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let mut empty: Vec<u64> = vec![];
        assert_eq!(percentiles_us(&mut empty), (0, 0));
        let mut one = vec![42];
        assert_eq!(percentiles_us(&mut one), (42, 42));
        let mut v: Vec<u64> = (1..=100).rev().collect();
        let (p50, p99) = percentiles_us(&mut v);
        assert_eq!(p50, 51);
        assert_eq!(p99, 100);
    }

    #[test]
    fn bind_failure_is_a_typed_error() {
        let net = crate::test_util::tiny_net();
        let cfg = ServeConfig {
            addr: "256.256.256.256:1".to_string(),
            ..ServeConfig::default()
        };
        let token = CancelToken::new();
        let err = run(&net, &cfg, &token, |_| {}).unwrap_err();
        assert!(matches!(err, ServeError::Bind { .. }));
        assert!(err.to_string().contains("cannot bind"));
    }
}
