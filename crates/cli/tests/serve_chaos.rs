//! Chaos harness for `mupod serve`: process-level fault injection
//! against the real binary — worker panics, client disconnects,
//! malformed frames, deadline expiry, SIGINT drain under load, and the
//! forced second-SIGINT hard exit.
//!
//! Everything here spawns `CARGO_BIN_EXE_mupod`, so the signal handler,
//! the exit-code table and the TCP surface are the production ones. The
//! `MUPOD_SERVE_TEST_SLOW_MS` hook holds batches in flight for a known
//! window, making every race in these tests deterministic.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mupod_models::ModelScale;
use mupod_runtime::StatusCode;
use mupod_serve::{frame, Connection, Priority};

/// Sends SIGINT to a child process (raw FFI; no external crates).
fn send_sigint(child: &Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: plain syscall wrapper with scalar arguments; the pid comes
    // from a live `Child` handle owned by this test.
    let rc = unsafe { kill(child.id() as i32, 2) };
    assert_eq!(rc, 0, "kill(SIGINT) failed");
}

fn wait_with_deadline(mut child: Child, deadline: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(
            start.elapsed() < deadline,
            "child did not exit within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Spawns `mupod serve` on an ephemeral port and blocks until its
/// "serving on ..." line announces the address. The returned reader
/// holds the rest of the child's stdout (the drain summary).
fn start_serve(
    extra_args: &[&str],
    envs: &[(&str, &str)],
) -> (Child, SocketAddr, BufReader<ChildStdout>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mupod"));
    cmd.args([
        "serve", "--model", "alexnet", "--scale", "tiny", "--images", "24",
    ])
    .args(extra_args)
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .split_whitespace()
        .next()
        .unwrap_or_else(|| panic!("empty address on line: {line:?}"))
        .parse()
        .unwrap();
    (child, addr, reader)
}

/// Drains the child's remaining stdout (the post-drain summary).
fn read_summary(reader: &mut BufReader<ChildStdout>) -> String {
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    rest
}

/// A correctly-sized input for the tiny-scale alexnet the server runs.
fn image() -> Vec<f32> {
    let hw = ModelScale::tiny().input_hw;
    (0..3 * hw * hw)
        .map(|i| (i % 7) as f32 * 0.1 - 0.3)
        .collect()
}

fn connect(addr: SocketAddr) -> Connection {
    Connection::connect(addr, Duration::from_secs(10)).expect("loopback connect")
}

#[test]
fn worker_panic_mid_request_recovers_and_drains_clean() {
    let (child, addr, mut reader) = start_serve(&["--chaos"], &[]);
    let mut conn = connect(addr);
    let crash = conn.chaos_panic().expect("reply");
    assert_eq!(crash.status, StatusCode::WorkerCrashed);
    // The worker restarted: a normal request on the same connection
    // succeeds.
    let ok = conn
        .classify(&image(), 0, Priority::High)
        .expect("reply after restart");
    assert_eq!(ok.status, StatusCode::Ok);
    send_sigint(&child);
    let status = wait_with_deadline(child, Duration::from_secs(20));
    assert_eq!(
        status.code(),
        Some(StatusCode::Ok.exit_code()),
        "{status:?}"
    );
    let summary = read_summary(&mut reader);
    assert!(summary.contains("1 crashes"), "summary: {summary}");
    assert!(summary.contains("1 ok"), "summary: {summary}");
}

#[test]
fn exhausted_restart_budget_exits_stage_failed() {
    let (child, addr, _reader) = start_serve(&["--chaos", "--restart-budget", "0"], &[]);
    let mut conn = connect(addr);
    let crash = conn.chaos_panic().expect("reply");
    assert_eq!(crash.status, StatusCode::WorkerCrashed);
    // No SIGINT: the server must shut itself down and report the typed
    // terminal error through the shared exit-code table.
    let status = wait_with_deadline(child, Duration::from_secs(20));
    assert_eq!(
        status.code(),
        Some(StatusCode::StageFailed.exit_code()),
        "{status:?}"
    );
}

#[test]
fn worker_panic_seals_flight_recorder_with_request_lifecycle() {
    let dir = std::env::temp_dir().join("mupod_chaos_flight_test");
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("flight.json");
    let _ = std::fs::remove_file(&dump);
    let dump_arg = dump.to_string_lossy().to_string();
    let (child, addr, mut reader) = start_serve(
        &[
            "--chaos",
            "--metrics-addr",
            "127.0.0.1:0",
            "--flight-out",
            &dump_arg,
        ],
        &[],
    );
    // The telemetry plane announces itself on the second stdout line.
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("metrics on "), "unexpected line: {line:?}");

    // One traced request completes normally, then a traced chaos frame
    // panics the worker; the panic handler seals the flight recorder,
    // so the dump must carry both requests' lifecycles.
    let mut conn = connect(addr);
    let traced = conn
        .classify_traced(&image(), 0, Priority::High, 0xABCD01)
        .expect("traced reply");
    assert_eq!(traced.status, StatusCode::Ok);
    assert_eq!(traced.trace_id, Some(0xABCD01));
    let crash = conn.chaos_panic_traced(0xABCD02).expect("crash reply");
    assert_eq!(crash.status, StatusCode::WorkerCrashed);

    // The dump is written concurrently with the crash reply; poll until
    // it exists *and* verifies (a half-written file fails the checksum).
    let deadline = Instant::now() + Duration::from_secs(10);
    let bytes = loop {
        match mupod_runtime::read_verified(&dump) {
            Ok(b) => break b,
            Err(_) => {
                assert!(
                    Instant::now() < deadline,
                    "sealed flight dump never appeared at {dump:?}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let doc = mupod_obs::json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    let obj = doc.as_object().unwrap();
    assert_eq!(obj["schema"].as_str(), Some("mupod-flight v1"));
    let events = obj["events"].as_array().unwrap();
    let stages_of = |trace: f64| -> Vec<&str> {
        events
            .iter()
            .map(|e| e.as_object().unwrap())
            .filter(|e| e["trace_id"].as_f64() == Some(trace))
            .map(|e| e["stage"].as_str().unwrap())
            .collect()
    };
    assert_eq!(
        stages_of(0xABCD01_u32 as f64),
        ["admit", "dequeue", "exec", "reply"],
    );
    // The crashed request reached execution and the crash was recorded
    // before the dump; its WorkerCrashed reply races the dump and may
    // or may not have landed yet.
    let crash_stages = stages_of(0xABCD02_u32 as f64);
    assert!(
        crash_stages.starts_with(&["admit", "dequeue", "exec", "crash"]),
        "{crash_stages:?}"
    );

    send_sigint(&child);
    let status = wait_with_deadline(child, Duration::from_secs(20));
    assert_eq!(
        status.code(),
        Some(StatusCode::Ok.exit_code()),
        "{status:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn client_disconnect_mid_response_leaves_server_healthy() {
    let (child, addr, mut reader) = start_serve(&[], &[("MUPOD_SERVE_TEST_SLOW_MS", "300")]);
    // Send a full valid request, then vanish while the worker is still
    // executing the batch: the server's response write hits a dead peer.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let req = frame::encode_request(frame::ReqKind::Classify, Priority::High, 0, &image());
        raw.write_all(&req).unwrap();
        raw.flush().unwrap();
    } // dropped: RST or FIN before the 300 ms batch completes
    std::thread::sleep(Duration::from_millis(500));
    // The server took the hit and still serves.
    let mut conn = connect(addr);
    let ok = conn.classify(&image(), 0, Priority::High).expect("reply");
    assert_eq!(ok.status, StatusCode::Ok);
    send_sigint(&child);
    let status = wait_with_deadline(child, Duration::from_secs(20));
    assert_eq!(
        status.code(),
        Some(StatusCode::Ok.exit_code()),
        "{status:?}"
    );
    let summary = read_summary(&mut reader);
    assert!(summary.contains("drained:"), "summary: {summary}");
}

#[test]
fn deadline_expiry_is_reported_not_served() {
    let (child, addr, mut reader) = start_serve(&[], &[("MUPOD_SERVE_TEST_SLOW_MS", "400")]);
    let mut conn = connect(addr);
    // 50 ms deadline against a 400 ms batch: the request must come back
    // DeadlineExceeded, never a fabricated class.
    let reply = conn.classify(&image(), 50, Priority::High).expect("reply");
    assert_eq!(reply.status, StatusCode::DeadlineExceeded);
    assert_eq!(reply.class, None);
    send_sigint(&child);
    let status = wait_with_deadline(child, Duration::from_secs(20));
    assert_eq!(
        status.code(),
        Some(StatusCode::Ok.exit_code()),
        "{status:?}"
    );
    let summary = read_summary(&mut reader);
    assert!(summary.contains("1 deadline-expired"), "summary: {summary}");
}

#[test]
fn malformed_frames_are_rejected_without_taking_the_server_down() {
    let (child, addr, _reader) = start_serve(&[], &[]);
    let good = frame::encode_request(frame::ReqKind::Classify, Priority::High, 0, &image());

    let expect_bad_request = |bytes: &[u8], tag: &str| {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(bytes).unwrap();
        raw.flush().unwrap();
        let mut header = [0u8; frame::HEADER_LEN];
        raw.read_exact(&mut header)
            .unwrap_or_else(|e| panic!("{tag}: no reply: {e}"));
        let h = frame::parse_response_header(&header).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(h.status, StatusCode::BadRequest, "{tag}");
    };

    // Bad magic.
    let mut bad_magic = good.clone();
    bad_magic[..4].copy_from_slice(b"oops");
    expect_bad_request(&bad_magic, "bad magic");

    // Oversized payload_len (32 MiB, over the 16 MiB cap) — rejected
    // from the header alone, before any allocation.
    let mut oversized = good[..frame::HEADER_LEN].to_vec();
    oversized[8..12].copy_from_slice(&(32u32 << 20).to_le_bytes());
    expect_bad_request(&oversized, "oversized");

    // Payload length that cannot be a whole f32 image.
    let mut short_payload = good[..frame::HEADER_LEN].to_vec();
    short_payload[8..12].copy_from_slice(&6u32.to_le_bytes());
    short_payload.extend_from_slice(&[0u8; 6]);
    expect_bad_request(&short_payload, "short payload");

    // Truncated header then hang up: no reply owed, but no crash either.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&good[..7]).unwrap();
        raw.flush().unwrap();
    }

    // After all that abuse a fresh connection still gets served.
    let mut conn = connect(addr);
    let ok = conn.classify(&image(), 0, Priority::High).expect("reply");
    assert_eq!(ok.status, StatusCode::Ok);
    send_sigint(&child);
    let status = wait_with_deadline(child, Duration::from_secs(20));
    assert_eq!(
        status.code(),
        Some(StatusCode::Ok.exit_code()),
        "{status:?}"
    );
}

#[test]
fn sigint_under_load_drains_and_exits_zero() {
    let (child, addr, mut reader) = start_serve(
        &["--workers", "1", "--max-batch", "1"],
        &[("MUPOD_SERVE_TEST_SLOW_MS", "300")],
    );
    // Keep requests in flight while the signal lands.
    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                conn.classify(&image(), 0, Priority::High)
                    .expect("reply")
                    .status
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    send_sigint(&child);
    let statuses: Vec<StatusCode> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    // Every in-flight request got a definitive answer: served before the
    // drain finished, or an honest Draining rejection — never a hang.
    for s in &statuses {
        assert!(
            *s == StatusCode::Ok || *s == StatusCode::Draining,
            "unexpected status {s}"
        );
    }
    assert!(statuses.contains(&StatusCode::Ok));
    let status = wait_with_deadline(child, Duration::from_secs(20));
    assert_eq!(
        status.code(),
        Some(StatusCode::Ok.exit_code()),
        "{status:?}"
    );
    let summary = read_summary(&mut reader);
    assert!(summary.contains("drained:"), "summary: {summary}");
}

#[test]
fn second_sigint_hard_exits_130_with_batch_in_flight() {
    // A 20 s batch means the graceful drain cannot finish on its own;
    // the second Ctrl-C must take the hard-exit path immediately.
    let (child, addr, _reader) = start_serve(&[], &[("MUPOD_SERVE_TEST_SLOW_MS", "20000")]);
    let _client = std::thread::spawn(move || {
        let mut conn = connect(addr);
        // The reply never comes; the transport error on hard exit is
        // expected and discarded.
        let _ = conn.classify(&image(), 0, Priority::High);
    });
    std::thread::sleep(Duration::from_millis(300));
    send_sigint(&child); // graceful drain starts, blocked on the batch
    std::thread::sleep(Duration::from_millis(300));
    let hard_exit_start = Instant::now();
    send_sigint(&child); // forced
    let status = wait_with_deadline(child, Duration::from_secs(10));
    assert_eq!(
        status.code(),
        Some(StatusCode::Interrupted.exit_code()),
        "{status:?}"
    );
    assert!(
        hard_exit_start.elapsed() < Duration::from_secs(5),
        "second SIGINT must not wait for the in-flight batch"
    );
}

/// The number printed right before `label` in the drain summary, e.g. 3
/// from "3 ok,".
fn summary_count(summary: &str, label: &str) -> f64 {
    let words: Vec<&str> = summary.split_whitespace().collect();
    words
        .windows(2)
        .find(|w| w[1].trim_end_matches([',', ';']) == label)
        .unwrap_or_else(|| panic!("no `{label}` count in summary: {summary}"))[0]
        .parse()
        .expect("numeric count")
}

#[test]
fn metrics_out_serve_counters_equal_the_drain_summary() {
    let dir = std::env::temp_dir().join(format!("mupod_serve_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.json");
    let metrics_arg = metrics.display().to_string();
    let (child, addr, mut reader) = start_serve(
        &["--chaos", "--metrics-out", &metrics_arg],
        &[("MUPOD_SERVE_TEST_SLOW_MS", "150")],
    );
    // Served, expired, crashed and malformed requests, plus a peer that
    // leaves before its answer (counted as a disconnect, or as served
    // when the write lands before the peer's reset does).
    let mut conn = connect(addr);
    for _ in 0..3 {
        let ok = conn.classify(&image(), 0, Priority::High).expect("reply");
        assert_eq!(ok.status, StatusCode::Ok);
    }
    let late = conn.classify(&image(), 20, Priority::High).expect("reply");
    assert_eq!(late.status, StatusCode::DeadlineExceeded);
    let crash = conn.chaos_panic().expect("reply");
    assert_eq!(crash.status, StatusCode::WorkerCrashed);
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut bad = frame::encode_request(frame::ReqKind::Classify, Priority::High, 0, &image());
        bad[..4].copy_from_slice(b"oops");
        raw.write_all(&bad).unwrap();
        let mut header = [0u8; frame::HEADER_LEN];
        raw.read_exact(&mut header).expect("bad-frame reply");
    }
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let req = frame::encode_request(frame::ReqKind::Classify, Priority::High, 0, &image());
        raw.write_all(&req).unwrap();
    }
    std::thread::sleep(Duration::from_millis(400));
    send_sigint(&child);
    let status = wait_with_deadline(child, Duration::from_secs(20));
    assert_eq!(
        status.code(),
        Some(StatusCode::Ok.exit_code()),
        "{status:?}"
    );
    let summary = read_summary(&mut reader);

    let bytes = mupod_runtime::read_verified(&metrics).expect("sealed metrics verify");
    let doc = mupod_obs::json::parse(std::str::from_utf8(&bytes).unwrap()).expect("JSON");
    let doc = doc.as_object().unwrap();
    let counters = doc["counters"].as_object().unwrap();
    let counter = |key: &str| counters.get(key).map_or(0.0, |v| v.as_f64().unwrap());
    for (key, label) in [
        ("serve.requests_ok", "ok"),
        ("serve.rejected_busy", "busy"),
        ("serve.deadline_expired", "deadline-expired"),
        ("serve.rejected_draining", "draining"),
        ("serve.bad_frames", "bad"),
        ("serve.worker_crashes", "crashes"),
        ("serve.client_disconnects", "disconnects"),
        ("serve.batches", "batches"),
        ("serve.batched_requests", "requests"),
    ] {
        assert_eq!(
            counter(key),
            summary_count(&summary, label),
            "{key} vs summary: {summary}"
        );
    }
    assert!(summary_count(&summary, "ok") >= 3.0, "{summary}");
    assert_eq!(
        summary_count(&summary, "deadline-expired"),
        1.0,
        "{summary}"
    );
    assert_eq!(summary_count(&summary, "crashes"), 1.0, "{summary}");
    assert_eq!(summary_count(&summary, "bad"), 1.0, "{summary}");
    // One latency sample per served request.
    let latency = doc["histograms"].as_object().unwrap()["serve.latency_us"]
        .as_object()
        .unwrap();
    assert_eq!(
        latency["count"].as_f64(),
        Some(summary_count(&summary, "ok"))
    );
    std::fs::remove_dir_all(&dir).ok();
}
