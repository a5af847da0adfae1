//! Observability integration: Chrome trace structure, counter
//! determinism, journal metrics, and the progress callback.
//!
//! The tests run in parallel: a `mupod_obs` recorder is current only on
//! the thread that installed it and on the profiler workers that
//! inherit it, so each test's recorder sees only its own run.

use std::sync::Mutex;

use mupod_core::{ProfileConfig, Profiler};
use mupod_data::{Dataset, DatasetSpec};
use mupod_models::{calibrate::calibrate_head, ModelKind, ModelScale};
use mupod_nn::Network;
use mupod_obs::{json, Level, MetricsSnapshot, Phase, Recorder, TraceEvent};

fn setup(seed: u64) -> (Network, Dataset) {
    let scale = ModelScale::tiny();
    let mut net = ModelKind::AlexNet.build(&scale, seed);
    let spec =
        DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw).with_class_seed(seed);
    let data = Dataset::generate(&spec, seed ^ 3, 16);
    calibrate_head(&mut net, &data, 0.1).unwrap();
    (net, data)
}

fn quick(threads: usize) -> ProfileConfig {
    ProfileConfig {
        n_deltas: 6,
        repeats: 2,
        threads,
        ..Default::default()
    }
}

/// Runs one seeded profile under a fresh recorder and returns what it
/// captured.
fn profile_under_recorder(seed: u64, threads: usize) -> (MetricsSnapshot, Vec<TraceEvent>) {
    let (net, data) = setup(seed);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let recorder = Recorder::new(Level::Info).quiet();
    {
        let _guard = recorder.install();
        Profiler::new(&net, &data.images()[..4])
            .with_config(quick(threads))
            .profile(&layers)
            .expect("profile");
    }
    (recorder.snapshot(), recorder.trace_events())
}

/// Replays the event stream as a per-thread span stack and returns
/// `(parent name, name)` pairs for every Begin event.
fn nesting(events: &[TraceEvent]) -> Vec<(Option<&'static str>, &'static str)> {
    use std::collections::BTreeMap;
    let mut stacks: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
    let mut pairs = Vec::new();
    for ev in events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.phase {
            Phase::Begin => {
                pairs.push((stack.last().copied(), ev.name));
                stack.push(ev.name);
            }
            Phase::End => {
                let open = stack.pop().expect("End without matching Begin");
                assert_eq!(open, ev.name, "unbalanced span nesting on tid {}", ev.tid);
            }
            Phase::Instant => {}
        }
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "unclosed spans {stack:?} on tid {tid}");
    }
    pairs
}

fn trace_spans_balanced(events: &[TraceEvent]) {
    let begins = events.iter().filter(|e| e.phase == Phase::Begin).count();
    let ends = events.iter().filter(|e| e.phase == Phase::End).count();
    assert_eq!(begins, ends, "begin/end events must balance");
    nesting(events); // panics on per-tid imbalance
}

#[test]
fn trace_nests_and_counters_are_deterministic_at_any_thread_count() {
    // --- Chrome trace: valid JSON, balanced, nesting matches the model.
    let (snap, events) = profile_under_recorder(0x0b5, 1);
    trace_spans_balanced(&events);

    let mut buf = Vec::new();
    mupod_obs::write_chrome_trace(&events, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let value = json::parse(&text).expect("trace is valid JSON");
    let top = value.as_object().expect("trace root is an object");
    let listed = top["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(listed.len(), events.len());
    for ev in listed {
        let obj = ev.as_object().expect("event object");
        let ph = obj["ph"].as_str().unwrap();
        assert!(matches!(ph, "B" | "E" | "i"), "unexpected phase {ph}");
        assert_eq!(obj["pid"].as_f64(), Some(1.0));
        assert!(obj["ts"].as_f64().is_some());
    }

    // With threads == 1 everything runs on one tid and the hierarchy is
    // exactly: profile.sweep ⊃ (profile.clean_pass, 5 × profile.layer),
    // each layer span wrapping one profile.fit.
    let pairs = nesting(&events);
    assert!(pairs.contains(&(None, "profile.sweep")));
    assert!(pairs.contains(&(Some("profile.sweep"), "profile.clean_pass")));
    let layer_spans = pairs
        .iter()
        .filter(|(parent, name)| *name == "profile.layer" && *parent == Some("profile.sweep"))
        .count();
    assert_eq!(layer_spans, 5, "one profile.layer span per AlexNet layer");
    let fits = pairs
        .iter()
        .filter(|(parent, name)| *name == "profile.fit" && *parent == Some("profile.layer"))
        .count();
    assert_eq!(fits, 5, "one profile.fit span inside each profile.layer");

    // Counters reflect the tiny run's shape.
    assert_eq!(snap.counters["profile.layers_profiled"], 5);
    assert_eq!(snap.counters["profile.deltas_injected"], 5 * 6);
    assert!(snap.counters["nn.forward_passes"] > 0);
    assert!(snap.counters["nn.suffix_replays"] > 0);
    assert_eq!(snap.histograms["profile.r_squared"].count, 5);

    // --- Counter determinism: identical seeds ⇒ identical counters,
    // histograms and span structure, at any thread count.
    let (snap2, events2) = profile_under_recorder(0x0b5, 1);
    assert_eq!(snap.counters, snap2.counters);
    assert_eq!(snap.histograms, snap2.histograms);
    assert_eq!(
        snap.spans.keys().collect::<Vec<_>>(),
        snap2.spans.keys().collect::<Vec<_>>()
    );
    assert_eq!(events.len(), events2.len());

    let (snap4, events4) = profile_under_recorder(0x0b5, 4);
    assert_eq!(
        snap.counters, snap4.counters,
        "counters must not depend on thread count"
    );
    assert_eq!(snap.histograms, snap4.histograms);
    assert_eq!(events.len(), events4.len());
    trace_spans_balanced(&events4);
}

/// A fresh journaled run appends every record; a resumed run replays
/// them all from disk and appends none.
#[test]
fn journal_counters_track_appends_and_resumes() {
    let (net, data) = setup(0x0b6);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let dir = std::env::temp_dir().join(format!("mupod_obs_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&path);

    let recorder = Recorder::new(Level::Info).quiet();
    {
        let _guard = recorder.install();
        Profiler::new(&net, &data.images()[..4])
            .with_config(quick(1))
            .profile_journaled(&layers, &path)
            .expect("fresh journaled profile");
    }
    let fresh = recorder.snapshot();
    assert_eq!(fresh.counters["journal.records_appended"], 5);
    assert!(fresh.counters["journal.bytes_written"] > 0);
    assert!(!fresh.counters.contains_key("journal.layers_resumed"));

    let recorder = Recorder::new(Level::Info).quiet();
    {
        let _guard = recorder.install();
        Profiler::new(&net, &data.images()[..4])
            .with_config(quick(1))
            .profile_journaled(&layers, &path)
            .expect("resumed journaled profile");
    }
    let resumed = recorder.snapshot();
    assert_eq!(resumed.counters["journal.layers_resumed"], 5);
    assert!(!resumed.counters.contains_key("journal.records_appended"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The progress callback reports a monotone (done, total) per completed
/// layer.
#[test]
fn progress_callback_reports_each_layer() {
    let (net, data) = setup(0x0b7);
    let layers = ModelKind::AlexNet.analyzable_layers(&net);
    let seen: Mutex<Vec<(usize, usize, String)>> = Mutex::new(Vec::new());
    Profiler::new(&net, &data.images()[..4])
        .with_config(quick(1))
        .with_progress(|done, total, name| {
            seen.lock().unwrap().push((done, total, name.to_string()));
        })
        .profile(&layers)
        .expect("profile with progress");
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), 5);
    assert_eq!(
        seen.iter().map(|(d, _, _)| *d).collect::<Vec<_>>(),
        vec![1, 2, 3, 4, 5]
    );
    assert!(seen.iter().all(|(_, t, _)| *t == 5));
    assert!(seen.iter().all(|(_, _, n)| !n.is_empty()));
}
