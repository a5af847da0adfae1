//! Untraced helpers of the benchmark's end-to-end runs.
//!
//! ```text
//! perfbench-probe setup    --model M --scale S --seed N --reps R
//! perfbench-probe check    --model M --scale S --seed N --profile P --alloc A
//! perfbench-probe first-ok --addr HOST:PORT --scale S --timeout-s T
//! perfbench-probe load     --model M --scale S --seed N   (phases read from stdin)
//! perfbench-probe scrape   --addr HOST:PORT
//! ```
//!
//! Each prints one JSON object on stdout.

use mupod_data::Dataset;
use mupod_perfbench::{
    dataset_spec, median, ms_since, percentile, prepare, run_main, Flags, JsonObj,
};
use mupod_quant::BitwidthAllocation;
use mupod_runtime::StatusCode;
use mupod_serve::{Connection, Priority};
use mupod_stats::SeededRng;
use mupod_tensor::Tensor;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Images the load generator draws its requests from.
const POOL: usize = 64;
/// Connections (and threads) of the load generator. With one closed
/// loop, one thread of the request path runs at a time, so a neighbour's
/// load on the host's other vCPU does not show in the figures.
const CONNS: usize = 1;
/// Length of the slices a phase is cut into. Rate and latency are
/// reported as the median over the phase's whole slices, so one stalled
/// slice on a shared host moves them little.
const SLICE_S: f64 = 0.5;
/// Untimed lead-in at the start of every phase. The first replies after
/// the caller's other work meet cold caches and would weigh on the first
/// slice; they are counted and checked, but not timed.
const LEAD_S: f64 = 0.25;

fn main() {
    run_main(|cmd, f| match cmd {
        "setup" => setup(f),
        "check" => check(f),
        "first-ok" => first_ok(f),
        "load" => load(f),
        "scrape" => scrape(f),
        other => Err(format!("unknown sub-command `{other}`")),
    });
}

/// Times the prepare step's public calls `--reps` times.
fn setup(f: &Flags) -> Result<JsonObj, String> {
    let (model, scale, seed) = (f.model()?, f.scale()?, f.num::<u64>("seed")?);
    let reps: usize = f.num("reps")?;
    let (mut total, mut build, mut data, mut calib) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps.max(1) {
        let (net, eval, t) = prepare(model, &scale, seed)?;
        std::hint::black_box((&net, &eval));
        total.push(t.total_ms() / 1e3);
        build.push(t.build_ms);
        data.push(t.data_ms);
        calib.push(t.calibrate_ms);
    }
    let mut o = JsonObj::new();
    o.nums("total_s", &total)
        .nums("build_ms", &build)
        .nums("data_ms", &data)
        .nums("calibrate_ms", &calib);
    Ok(o)
}

/// Invariants of a profile and an allocation CSV that hold for every
/// seed: both are sealed artifacts that reload, and both cover exactly
/// the model's analyzable layers in order.
fn check(f: &Flags) -> Result<JsonObj, String> {
    let (model, scale, seed) = (f.model()?, f.scale()?, f.num::<u64>("seed")?);
    let net = model.build(&scale, seed);
    let want: Vec<String> = model
        .analyzable_layers(&net)
        .into_iter()
        .map(|id| net.node(id).name.clone())
        .collect();
    let read = |key: &str| -> Result<Vec<u8>, String> {
        let path = f.str(key)?;
        mupod_runtime::read_verified(Path::new(path)).map_err(|e| format!("{path}: {e}"))
    };
    let profile = mupod_core::Profile::load_csv(read("profile")?.as_slice())
        .map_err(|e| format!("profile does not reload: {e}"))?;
    let got: Vec<String> = profile.layers().iter().map(|l| l.name.clone()).collect();
    if got != want {
        return Err(format!("profiled layers {got:?} != analyzable {want:?}"));
    }
    if profile.layers().iter().any(|l| !l.lambda.is_finite()) {
        return Err("profile has a non-finite λ".into());
    }
    let alloc = BitwidthAllocation::load_csv(read("alloc")?.as_slice())
        .map_err(|e| format!("allocation does not reload: {e}"))?;
    let got: Vec<String> = alloc.layers().iter().map(|l| l.layer.clone()).collect();
    if got != want {
        return Err(format!("allocated layers {got:?} != analyzable {want:?}"));
    }
    let mut o = JsonObj::new();
    o.int("layers", want.len() as u64)
        .num("min_r_squared", profile.min_r_squared());
    Ok(o)
}

fn addr(f: &Flags, key: &str) -> Result<SocketAddr, String> {
    let a = f.str(key)?;
    a.parse().map_err(|_| format!("bad --{key} `{a}`"))
}

/// Sends one request until the first OK reply; set-up time is measured
/// by the caller from process spawn to this command's exit.
fn first_ok(f: &Flags) -> Result<JsonObj, String> {
    let (addr, scale) = (addr(f, "addr")?, f.scale()?);
    let deadline = Instant::now() + Duration::from_secs_f64(f.num("timeout-s")?);
    let image = Dataset::generate(&dataset_spec(&scale, 1), 1, 1).images()[0].clone();
    let t = Instant::now();
    let mut attempts = 0u64;
    loop {
        attempts += 1;
        let ok = Connection::connect(addr, Duration::from_secs(2))
            .and_then(|mut c| c.classify(image.data(), 0, Priority::High))
            .is_ok_and(|r| r.status == StatusCode::Ok);
        if ok {
            let mut o = JsonObj::new();
            o.num("ms", ms_since(t)).int("attempts", attempts);
            return Ok(o);
        }
        if Instant::now() > deadline {
            return Err(format!("no OK reply from {addr} after {attempts} attempts"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Outcome of one closed-loop phase.
#[derive(Default)]
struct Phase {
    sent: u64,
    ok: u64,
    wrong_class: u64,
    transport_errors: u64,
    by_status: BTreeMap<String, u64>,
    /// (slice index, round-trip µs) of every OK reply.
    latencies_us: Vec<(usize, f64)>,
    elapsed_s: f64,
}

impl Phase {
    fn failed(&self) -> u64 {
        self.transport_errors + self.by_status.values().sum::<u64>() + self.wrong_class
    }

    fn json(self) -> JsonObj {
        let mut all: Vec<f64> = self.latencies_us.iter().map(|s| s.1).collect();
        all.sort_by(f64::total_cmp);
        let whole = (self.elapsed_s / SLICE_S).floor() as usize;
        let mut slices = vec![Vec::new(); whole];
        for &(i, us) in &self.latencies_us {
            if let Some(s) = slices.get_mut(i) {
                s.push(us);
            }
        }
        let (mut rps, mut p50, mut p90, mut p99) = (vec![], vec![], vec![], vec![]);
        for s in &mut slices {
            s.sort_by(f64::total_cmp);
            rps.push(s.len() as f64 / SLICE_S);
            p50.push(percentile(s, 50.0));
            p90.push(percentile(s, 90.0));
            p99.push(percentile(s, 99.0));
        }
        let overall_rps = self.ok as f64 / self.elapsed_s.max(1e-9);
        let or = |v: &[f64], fallback: f64| if v.is_empty() { fallback } else { median(v) };
        let mut status = JsonObj::new();
        for (k, v) in &self.by_status {
            status.int(k, *v);
        }
        let mut o = JsonObj::new();
        o.int("sent", self.sent)
            .int("ok", self.ok)
            .int("failed", self.failed())
            .int("wrong_class", self.wrong_class)
            .int("transport_errors", self.transport_errors)
            .obj("failed_by_status", &status)
            .num("elapsed_s", self.elapsed_s)
            .num("lead_s", LEAD_S)
            .int("samples", all.len() as u64)
            .int("slices", slices.len() as u64)
            .num("rps", or(&rps, overall_rps))
            .num("p50_us", or(&p50, percentile(&all, 50.0)))
            .num("p99_us", or(&p99, percentile(&all, 99.0)))
            .nums("slice_rps", &rps)
            .nums("slice_p50_us", &p50)
            .nums("slice_p90_us", &p90)
            .nums("slice_p99_us", &p99);
        o
    }
}

/// One phase of the closed loop: send, wait for the reply, check it,
/// send the next, until `until`; replies to requests sent before `start`
/// (the lead-in) are counted and checked but not timed. `conn` is kept
/// open for the next phase and reopened after a transport error.
fn drive(
    addr: SocketAddr,
    conn: &mut Option<Connection>,
    pool: &[Tensor],
    expected: &[usize],
    mut rng: SeededRng,
    start: Instant,
    until: Instant,
) -> Phase {
    let mut p = Phase::default();
    while Instant::now() < until {
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Connection::connect(addr, Duration::from_secs(5)) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    p.sent += 1;
                    p.transport_errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let i = rng.index(pool.len());
        let t = Instant::now();
        let reply = c.classify(pool[i].data(), 0, Priority::High);
        let us = t.elapsed().as_secs_f64() * 1e6;
        p.sent += 1;
        match reply {
            Ok(r) if r.status == StatusCode::Ok => {
                if r.class.map(|c| c as usize) == Some(expected[i]) {
                    p.ok += 1;
                    if let Some(since) = t.checked_duration_since(start) {
                        let slice = (since.as_secs_f64() / SLICE_S) as usize;
                        p.latencies_us.push((slice, us));
                    }
                } else {
                    p.wrong_class += 1;
                }
            }
            Ok(r) => *p.by_status.entry(format!("{:?}", r.status)).or_default() += 1,
            Err(_) => {
                p.transport_errors += 1;
                *conn = None;
            }
        }
    }
    p.elapsed_s = start.elapsed().as_secs_f64();
    p
}

/// The closed-loop load generator as a session: prepares the model to
/// check every reply's class against a local exact-tier classify of the
/// same image, prints a header line, then runs one phase per stdin line
/// `NAME SECONDS HOST:PORT` and prints its outcome, until stdin closes.
/// The caller interleaves phases with other work, so serving is sampled
/// across the whole run.
fn load(f: &Flags) -> Result<JsonObj, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if CONNS > nproc {
        return Err(format!(
            "the generator needs {CONNS} threads and connections; this host has {nproc} cores"
        ));
    }
    let (model, scale) = (f.model()?, f.scale()?);
    let seed: u64 = f.num("seed")?;
    let (net, _, _) = prepare(model, &scale, seed)?;
    let pool = Dataset::generate(&dataset_spec(&scale, seed), seed ^ 0xC, POOL);
    let images = pool.images();
    let expected: Vec<usize> = images.iter().map(|img| net.classify(img)).collect();
    drop(net);
    let mut header = JsonObj::new();
    header
        .int("nproc", nproc as u64)
        .int("threads", CONNS as u64)
        .int("connections", CONNS as u64)
        .int("pool", POOL as u64);
    println!("{}", header.render());
    let mut phases = 0u64;
    // Each target's connection stays open from one phase to the next.
    let mut conns: BTreeMap<SocketAddr, Option<Connection>> = BTreeMap::new();
    for line in std::io::stdin().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [name, secs, target] = parts[..] else {
            return Err(format!("bad phase line `{line}`"));
        };
        let secs: f64 = secs
            .parse()
            .map_err(|_| format!("bad seconds in `{line}`"))?;
        let target: SocketAddr = target
            .parse()
            .map_err(|_| format!("bad address in `{line}`"))?;
        phases += 1;
        let start = Instant::now() + Duration::from_secs_f64(LEAD_S);
        let until = start + Duration::from_secs_f64(secs);
        let rng = SeededRng::new(seed ^ phases);
        let conn = conns.entry(target).or_default();
        let mut o = drive(target, conn, images, &expected, rng, start, until).json();
        o.str("phase", name);
        println!("{}", o.render());
    }
    let mut o = JsonObj::new();
    o.int("phases", phases);
    Ok(o)
}

/// One `/metrics` scrape, timed, with the exposition validated.
fn scrape(f: &Flags) -> Result<JsonObj, String> {
    let a = addr(f, "addr")?;
    let mut times = Vec::new();
    let mut body = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let (code, b) = mupod_serve::http_get(a, "/metrics", Duration::from_secs(5))
            .map_err(|e| format!("GET /metrics from {a}: {e}"))?;
        times.push(ms_since(t));
        if code != 200 {
            return Err(format!("GET /metrics returned HTTP {code}"));
        }
        body = b;
    }
    let text = String::from_utf8(body).map_err(|e| format!("/metrics is not UTF-8: {e}"))?;
    mupod_obs::expo::validate(&text).map_err(|e| format!("/metrics does not validate: {e}"))?;
    let mut o = JsonObj::new();
    o.num("ms", median(&times))
        .int("bytes", text.len() as u64)
        .int(
            "families",
            text.lines().filter(|l| l.starts_with("# TYPE")).count() as u64,
        );
    Ok(o)
}
