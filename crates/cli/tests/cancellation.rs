//! Process-level fault tests for the `mupod` binary: SIGINT drain,
//! watchdog timeouts, the crash window of the atomic artifact writer,
//! and the corruption matrix as seen from the CLI.
//!
//! These spawn the real binary (`CARGO_BIN_EXE_mupod`) so they exercise
//! the actual signal handler, exit codes and filesystem behavior — not
//! library-level approximations.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const EXIT_RUN: i32 = 1;
const EXIT_TIMEOUT: i32 = 4;
const EXIT_INTERRUPTED: i32 = 130;

fn mupod() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mupod"));
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mupod_fault_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn profile_args(out: &Path) -> Vec<String> {
    [
        "profile", "--model", "alexnet", "--scale", "tiny", "--images", "24", "--deltas", "6",
        "--out",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([out.display().to_string()])
    .collect()
}

/// `--metrics-out <path>` as arguments.
fn metrics_args(path: &Path) -> [String; 2] {
    ["--metrics-out".to_string(), path.display().to_string()]
}

/// One counter of a sealed `--metrics-out` snapshot (0 when absent).
fn counter(metrics: &Path, key: &str) -> f64 {
    let bytes = mupod_runtime::read_verified(metrics).expect("sealed metrics verify");
    let doc = mupod_obs::json::parse(std::str::from_utf8(&bytes).unwrap()).expect("metrics JSON");
    doc.as_object().unwrap()["counters"]
        .as_object()
        .unwrap()
        .get(key)
        .map_or(0.0, |v| v.as_f64().unwrap())
}

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

#[test]
fn sigint_drains_and_exits_130_leaving_prior_artifact_intact() {
    let dir = tmp_dir("sigint");
    let out = dir.join("p.csv");
    // A previous successful run's artifact, which the interrupted run
    // must not disturb.
    let prior = b"previous deliverable\n".to_vec();
    std::fs::write(&out, &prior).unwrap();

    let metrics = dir.join("m.json");
    let child = mupod()
        .args(profile_args(&out))
        .args(metrics_args(&metrics))
        .env("MUPOD_TEST_STAGE_DELAY_MS", "30000")
        .spawn()
        .unwrap();
    // Let the run enter its cancellable delay, then interrupt it.
    std::thread::sleep(Duration::from_millis(400));
    send_sigint(&child);
    let status = wait_with_deadline(child, Duration::from_secs(20));
    assert_eq!(status.code(), Some(EXIT_INTERRUPTED), "{status:?}");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        prior,
        "interrupted run must leave the previous artifact bit-identical"
    );
    // The SIGINT watcher runs under the run's recorder: the interrupt
    // is counted once in the run's own metrics.
    assert_eq!(counter(&metrics, "runtime.cancellations"), 1.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stage_timeout_exits_4_with_diagnostic() {
    let dir = tmp_dir("timeout");
    let out = dir.join("p.csv");
    let metrics = dir.join("m.json");
    let output = mupod()
        .args(profile_args(&out))
        .args(metrics_args(&metrics))
        .args(["--stage-timeout", "0.3"])
        .env("MUPOD_TEST_STAGE_DELAY_MS", "30000")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(EXIT_TIMEOUT), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("deadline"), "stderr: {stderr}");
    assert!(!out.exists(), "timed-out run must not produce the artifact");
    // The watchdog thread inherits the run's recorder.
    assert_eq!(counter(&metrics, "runtime.stage_timeouts"), 1.0);
    assert_eq!(counter(&metrics, "runtime.cancellations"), 1.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_before_rename_leaves_old_artifact_bit_identical() {
    let dir = tmp_dir("crashwin");
    let out = dir.join("p.csv");
    // First run: produce a genuine sealed artifact.
    let ok = mupod().args(profile_args(&out)).output().unwrap();
    assert!(ok.status.success(), "{ok:?}");
    let original = std::fs::read(&out).unwrap();

    // Second run dies between writing the temp file and the rename —
    // the atomic writer's only crash window.
    let crashed = mupod()
        .args(profile_args(&out))
        .env("MUPOD_TEST_DIE_BEFORE_RENAME", "1")
        .output()
        .unwrap();
    assert!(!crashed.status.success(), "{crashed:?}");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        original,
        "old artifact must survive a crash inside the write window"
    );
    // And it still verifies: payload + footer are untouched.
    mupod_runtime::verify_file(&out).expect("old artifact must still verify");
    std::fs::remove_dir_all(&dir).ok();
}

/// Corruption matrix from the CLI's perspective: every damaged profile
/// CSV fed to `optimize --profile` must produce a clean diagnostic exit
/// (code 1), never a panic, never an allocation.
#[test]
fn corrupted_profile_inputs_fail_cleanly() {
    let dir = tmp_dir("corrupt");
    let out = dir.join("p.csv");
    let ok = mupod().args(profile_args(&out)).output().unwrap();
    assert!(ok.status.success(), "{ok:?}");
    let pristine = std::fs::read(&out).unwrap();

    let stale_schema = b"node,name,lambda,theta,r_squared,max_relative_error,\
max_abs,input_elems,macs\n1,conv1,0.5,0.0,1.0,0.0,1.0,1,1\n"
        .to_vec();
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("truncate", pristine[..pristine.len() / 2].to_vec()),
        ("bitflip", {
            let mut b = pristine.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x08;
            b
        }),
        ("garbage", b"\x00\xff\x13garbage not a csv\x7f".to_vec()),
        ("stale-schema", stale_schema),
        ("empty", Vec::new()),
    ];

    for (tag, bytes) in cases {
        let bad = dir.join(format!("bad_{tag}.csv"));
        std::fs::write(&bad, &bytes).unwrap();
        let output = mupod()
            .args([
                "optimize",
                "--model",
                "alexnet",
                "--scale",
                "tiny",
                "--images",
                "24",
                "--objective",
                "mac",
                "--loss",
                "5",
                "--profile",
            ])
            .arg(&bad)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(EXIT_RUN),
            "{tag}: expected clean run-error exit, got {:?}\nstderr: {stderr}",
            output.status
        );
        assert!(
            !stderr.contains("panicked"),
            "{tag}: loader must not panic\nstderr: {stderr}"
        );
        assert!(stderr.contains("error:"), "{tag}: stderr: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A journaled profile interrupted by SIGINT resumes on the next run
/// and produces a bit-identical artifact — the end-to-end story the
/// journal (PR 1) and the supervisor (this PR) exist to tell together.
#[test]
fn interrupted_journaled_profile_resumes_to_identical_artifact() {
    let dir = tmp_dir("resume");
    let out = dir.join("p.csv");
    let journal = dir.join("p.journal");
    let journal_flag = ["--journal".to_string(), journal.display().to_string()];

    // Reference: uninterrupted journaled run.
    let reference_out = dir.join("ref.csv");
    let ok = mupod()
        .args(profile_args(&reference_out))
        .args(&journal_flag)
        .output()
        .unwrap();
    assert!(ok.status.success(), "{ok:?}");
    let reference = std::fs::read(&reference_out).unwrap();
    std::fs::remove_file(&journal).unwrap();

    // Interrupted run: SIGINT lands mid-sweep (the per-layer work is
    // fast at tiny scale, so interrupt as early as possible).
    let child = mupod()
        .args(profile_args(&out))
        .args(&journal_flag)
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));
    send_sigint(&child);
    let status = wait_with_deadline(child, Duration::from_secs(30));
    // Timing race is real: the tiny sweep may have finished before the
    // signal landed. Either way the second run must converge on the
    // reference bytes.
    if status.code() == Some(EXIT_INTERRUPTED) {
        assert!(!out.exists(), "drained run must not write the final CSV");
    }

    let second = mupod()
        .args(profile_args(&out))
        .args(&journal_flag)
        .output()
        .unwrap();
    assert!(second.status.success(), "{second:?}");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        reference,
        "resumed artifact must be bit-identical to an uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}
