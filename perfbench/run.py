#!/usr/bin/env python3
"""The repository benchmark: offline optimize and closed-loop serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload optimize_alexnet --seed 42 --seconds 28 --trace 0

It builds `mupod` and the helpers in this directory from source, runs one
workload, checks the outputs and prints, as the last line of stdout, one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
pass instead and reports the per-layer metrics. perfbench/README.md
explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
LOSS = 0.01  # `mupod optimize` default relative accuracy loss
EVAL_IMAGES = 80  # evaluation images at the CLI's default --images 160
GOLDEN_SEED = 42  # the CLI's default seed; golden digests exist for it
SETUP_PER_ROUND = 2
WARMUP_S = 0.5
MIN_ROUNDS = 3
TRACE_ROUNDS = 3
SERVE_SLICE_S = 1
DATA_SEEDS = 5
DATA_SEED_STRIDE = 1_000_003

# Every workload profiles and optimizes its model, then serves it. A run
# is a series of rounds, each a set-up sample, one profile + optimize pair
# and a serving slice of SERVE_SLICE_S seconds, so every metric is
# sampled across the whole run. Round i profiles and optimizes the data
# set data_seed(seed, i % DATA_SEEDS): the work of the optimizer's search
# depends on the data, so one data set per run would make the run's
# median follow its seed. The model and the topology decide which layers
# a workload stresses; perfbench/README.md gives the reasons.
WORKLOADS = {
    "optimize_alexnet": dict(model="alexnet", scale="small", topology="direct", setup="prepare"),
    "optimize_mobilenet": dict(model="mobilenet", scale="small", topology="direct", setup="prepare"),
    "serve_direct": dict(model="squeezenet", scale="tiny", topology="direct", setup="spawn"),
    "serve_routed": dict(model="squeezenet", scale="tiny", topology="routed", setup="spawn"),
}
# The per-layer profile table covers every model a workload runs, so every
# traced run reports the same metric names.
TRACE_MODELS = [("alexnet", "small"), ("mobilenet", "small"), ("squeezenet", "tiny")]

E2E_UNITS = {
    "setup_s": "s",
    "profile_s": "s",
    "optimize_s": "s",
    "p50_us": "us",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

LIVE = []  # every process started and not yet reaped


def log(msg):
    print(msg, flush=True)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def build(trace):
    """Builds `mupod` and the helper binaries; returns their directory."""
    for need in ("Cargo.toml", "crates/cli/Cargo.toml", "perfbench/Cargo.toml"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found: run from the root of a mupod checkout")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bins = ["--bin", "perfbench-probe"] + (["--bin", "perfbench-trace"] if trace else [])
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "mupod-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml", *bins],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return ROOT / env["CARGO_TARGET_DIR"] / "release"


class Lines:
    """Line reader over a child's stdout with a timeout per line."""

    def __init__(self, proc, what):
        self.proc, self.what, self.buf = proc, what, b""

    def read(self, timeout):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RuntimeError(f"{self.what}: no output within {timeout} s")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(f"{self.what} exited early (code {self.proc.wait()})")
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode(errors="replace")


class Bench:
    def __init__(self, bin_dir, run_dir, seed):
        self.bin = bin_dir
        self.dir = run_dir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.spans = []
        self.t0 = time.perf_counter()
        self.phases = {}  # serving phase name -> summed counts

    # --- bookkeeping -------------------------------------------------
    def span(self, name, start, end):
        self.spans.append(dict(name=name, start_us=(start - self.t0) * 1e6, end_us=(end - self.t0) * 1e6))

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")

    def write_spans(self):
        (self.dir / "spans.json").write_text(json.dumps(self.spans, indent=1) + "\n")

    # --- child processes ---------------------------------------------
    def helper(self, name, *args, timeout=170):
        """Runs a helper binary to completion and returns its JSON line."""
        argv = [str(self.bin / name), *map(str, args)]
        start = time.perf_counter()
        r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        self.span(f"{name}.{args[0]}", start, time.perf_counter())
        if r.returncode != 0:
            raise RuntimeError(f"{name} {args[0]} failed: {r.stderr.strip()}")
        return json.loads(r.stdout.strip().splitlines()[-1])

    def mupod(self, tag, *args):
        """Runs one `mupod` command; returns (exit code, wall s, peak RSS MB, stdout).

        Peak RSS is the command's VmHWM, polled every 10 ms by a side
        thread. `ru_maxrss` would also count the forked Python image the
        command was exec'd from."""
        out_path = self.dir / f"{tag}.out"
        with open(out_path, "wb") as out, open(self.dir / f"{tag}.err", "wb") as err:
            start = time.perf_counter()
            p = subprocess.Popen([str(self.bin / "mupod"), *map(str, args)], cwd=ROOT, stdout=out, stderr=err)
            LIVE.append(p)
            peak, done = [0.0], threading.Event()

            def poll():
                while not done.wait(0.01):
                    peak[0] = max(peak[0], vm_hwm_mb(p.pid))

            poller = threading.Thread(target=poll)
            poller.start()
            try:
                p.wait()
            finally:
                end = time.perf_counter()
                done.set()
                poller.join()
                LIVE.remove(p)
        self.span(f"mupod.{tag}", start, end)
        return p.returncode, end - start, peak[0], out_path.read_text()

    def spawn(self, tag, argv, stdin=subprocess.DEVNULL):
        with open(self.dir / f"{tag}.err", "wb") as err:
            p = subprocess.Popen(argv, cwd=ROOT, stdin=stdin, stdout=subprocess.PIPE, stderr=err)
        LIVE.append(p)
        p.tag = tag
        p.lines = Lines(p, tag)
        return p

    # --- offline: profile, then optimize from the profile ------------
    def offline_iteration(self, cfg, i, seed, check, golden):
        """Profiles and optimizes data set `seed`; `check` runs the
        artifact invariants, `golden` holds the digests to match."""
        m, s = cfg["model"], cfg["scale"]
        prof, alloc = self.dir / f"profile{i}.csv", self.dir / f"alloc{i}.csv"
        common = ["--model", m, "--scale", s, "--seed", seed, "--threads", 2]
        code_p, t_p, rss_p, _ = self.mupod(f"profile{i}", "profile", *common, "--out", prof)
        code_o, t_o, rss_o, out = self.mupod(
            f"optimize{i}", "optimize", *common, "--objective", "bandwidth", "--profile", prof, "--save", alloc
        )
        prof_ok = code_p == 0 and prof.is_file()
        opt_ok = code_o == 0 and alloc.is_file()
        digests = (sha256(prof) if prof_ok else None, sha256(alloc) if opt_ok else None)
        if opt_ok:
            acc = re.search(r"fp acc ([0-9.]+) -> quantized ([0-9.]+)", out)
            slack = 0.02 + 2.0 / EVAL_IMAGES
            if not acc or float(acc.group(2)) + 1e-9 < float(acc.group(1)) * (1 - LOSS) - slack:
                opt_ok = False
                log(f"validated accuracy below target - slack: {acc and acc.group(0)}")
        if check and prof_ok and opt_ok:
            try:
                self.helper("perfbench-probe", "check", "--model", m, "--scale", s, "--seed", seed,
                            "--profile", prof, "--alloc", alloc)
            except RuntimeError as e:
                prof_ok = opt_ok = False
                log(str(e))
        if golden is not None:
            prof_ok &= digests[0] == golden["profile"]
            opt_ok &= digests[1] == golden["alloc"]
        self.op(prof_ok, f"profile run {i} (exit {code_p}, digest {digests[0]})")
        self.op(opt_ok, f"optimize run {i} (exit {code_o}, digest {digests[1]})")
        return t_p, t_o, max(rss_p, rss_o), digests

    # --- serving ------------------------------------------------------
    def start_topology(self, cfg, extra_router=False, prefix=""):
        """Starts the workload's servers (and router); returns a dict of roles.
        `prefix` tags the processes' log files."""
        m, s = cfg["model"], cfg["scale"]
        mupod = str(self.bin / "mupod")
        metrics = ["--metrics-addr", "127.0.0.1:0"]

        def serve(tag, workers):
            return self.spawn(prefix + tag, [mupod, "serve", "--model", m, "--scale", s, "--seed", str(self.seed),
                                    "--workers", str(workers), *metrics])

        shards = [serve("serve", 2)] if cfg["topology"] == "direct" else [serve("shardA", 1), serve("shardB", 1)]
        addrs = [ready(p, "serving") for p in shards]
        topo = dict(shards=shards, shard_addrs=addrs, router=None)
        if cfg["topology"] == "routed" or extra_router:
            args = [mupod, "route", *metrics]
            for a, _ in addrs:
                args += ["--shard", a]
            topo["router"] = self.spawn(prefix + "route", args)
            topo["router_addrs"] = ready(topo["router"], "routing")
        topo["front"], topo["front_metrics"] = topo["router_addrs"] if cfg["topology"] == "routed" else addrs[0]
        return topo

    def stop_topology(self, topo):
        """SIGINTs every process, router first, waits for each, and returns
        (summed peak RSS MB, {tag: drain summary})."""
        procs = ([topo["router"]] if topo["router"] else []) + topo["shards"]
        rss = sum(vm_hwm_mb(p.pid) for p in procs)
        summaries = {}
        for p in procs:
            if p.poll() is None:
                p.send_signal(signal.SIGINT)
            try:
                out, _ = p.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                p.kill()
                out, _ = p.communicate()
            LIVE.remove(p)
            summaries[p.tag] = p.lines.buf.decode(errors="replace") + out.decode(errors="replace")
            self.op(p.returncode == 0, f"{p.tag} exited {p.returncode}")
        return rss, summaries

    def setup_samples(self, cfg):
        """SETUP_PER_ROUND set-up times, each in a fresh process: the
        prepare step's calls, or spawn → first OK reply through the front
        of a fresh topology (stopped again)."""
        if cfg["setup"] == "prepare":
            return self.helper("perfbench-probe", "setup", "--model", cfg["model"], "--scale", cfg["scale"],
                               "--seed", self.seed, "--reps", SETUP_PER_ROUND)["total_s"]
        times = []
        for _ in range(SETUP_PER_ROUND):
            start = time.perf_counter()
            topo = self.start_topology(cfg, prefix="setup-")
            try:
                self.helper("perfbench-probe", "first-ok", "--addr", topo["front"], "--scale", cfg["scale"],
                            "--timeout-s", 60)
                times.append(time.perf_counter() - start)
                self.span("setup.spawn_to_first_ok", start, start + times[-1])
            finally:
                self.stop_topology(topo)
        return times

    def loadgen(self, cfg):
        """Starts the closed-loop load generator session."""
        g = self.spawn("loadgen", [str(self.bin / "perfbench-probe"), "load", "--model", cfg["model"],
                                   "--scale", cfg["scale"], "--seed", str(self.seed)], stdin=subprocess.PIPE)
        head = json.loads(g.lines.read(120))
        if head["threads"] > head["nproc"] or head["connections"] > head["nproc"]:
            raise RuntimeError(f"load generator exceeds the host's {head['nproc']} cores")
        return g

    def drive(self, g, name, secs, addr):
        """Runs one closed-loop phase and counts its requests."""
        start = time.perf_counter()
        g.stdin.write(f"{name} {secs} {addr}\n".encode())
        g.stdin.flush()
        ph = json.loads(g.lines.read(secs + 60))
        self.span(f"serve.{name}", start, time.perf_counter())
        self.attempted += ph["sent"]
        self.failed += ph["failed"]
        counts = ("sent", "ok", "failed", "wrong_class", "transport_errors", "samples")
        slices = ("slice_rps", "slice_p50_us", "slice_p90_us", "slice_p99_us")
        acc = self.phases.setdefault(name, dict(by_status={}, **{k: 0 for k in counts}, **{k: [] for k in slices}))
        for k in counts + slices:
            acc[k] += ph[k]
        for k, v in ph["failed_by_status"].items():
            acc["by_status"][k] = acc["by_status"].get(k, 0) + v
        return ph

    def close_loadgen(self, g):
        g.stdin.close()
        g.wait(timeout=60)
        LIVE.remove(g)

    def report_phases(self):
        for name, ph in self.phases.items():
            log(f"phase {name}: sent {ph['sent']}, ok {ph['ok']}, failed {ph['failed']} "
                f"(wrong class {ph['wrong_class']}, transport {ph['transport_errors']}, "
                f"by status {ph['by_status']}); {ph['samples']} latency samples in "
                f"{len(ph['slice_rps'])} half-second slices")


def ready(p, word):
    """Reads a server's readiness lines; returns (address, metrics address)."""
    first = p.lines.read(60)
    m = re.match(rf"{word} on (\S+)", first)
    second = p.lines.read(60)
    n = re.match(r"metrics on (\S+)", second)
    if not m or not n:
        raise RuntimeError(f"{p.tag}: unexpected readiness lines {first!r}, {second!r}")
    return m.group(1), n.group(1)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fmt(values):
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


def vm_hwm_mb(pid):
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def parse_serve_summary(text):
    m = re.search(r"(\d+) batches served (\d+) requests; latency p50 (\d+) µs", text)
    if not m:
        raise RuntimeError(f"no drain summary in {text!r}")
    return dict(batches=int(m.group(1)), requests=int(m.group(2)), p50_us=float(m.group(3)))


def parse_route_summary(text):
    m = re.search(r"routed: (\d+) requests", text)
    a = re.search(r"(\d+) attempts \((\d+) retries, (\d+) hedges.*latency p50 (\d+) µs", text)
    if not m or not a:
        raise RuntimeError(f"no route summary in {text!r}")
    return dict(requests=int(m.group(1)), attempts=int(a.group(1)), hedges=int(a.group(3)),
                p50_us=float(a.group(4)))


def data_seed(seed, k):
    """The seed of data set k of a run; data set 0 is the run's seed."""
    return seed + k * DATA_SEED_STRIDE


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_e2e(b, cfg, seconds):
    golden = None
    if b.seed == GOLDEN_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[f"{cfg['model']}/{cfg['scale']}/{GOLDEN_SEED}"]
    setup, walls_p, walls_o, rss = [], [], [], []
    digests = {}  # data set -> digests of its first round
    topo = b.start_topology(cfg)
    try:
        g = b.loadgen(cfg)
        b.drive(g, "warmup", WARMUP_S, topo["front"])
        start = time.perf_counter()
        while True:
            setup += b.setup_samples(cfg)
            i = len(walls_p)
            k = i % DATA_SEEDS
            t_p, t_o, r, d = b.offline_iteration(cfg, i, data_seed(b.seed, k), k not in digests,
                                                 golden if i == 0 else None)
            walls_p.append(t_p)
            walls_o.append(t_o)
            rss.append(r)
            # Exact-tier artifacts are byte-reproducible: a data set's
            # later rounds must match its first.
            if k in digests:
                b.op(d == digests[k], f"artifacts of round {i} differ from those of round {k}")
            else:
                digests[k] = d
            b.drive(g, "window", SERVE_SLICE_S, topo["front"])
            elapsed = time.perf_counter() - start
            if len(walls_p) >= MIN_ROUNDS and elapsed + elapsed / len(walls_p) / 2 > seconds:
                break
        b.close_loadgen(g)
    finally:
        serve_rss, _ = b.stop_topology(topo)
    b.report_phases()
    w = b.phases["window"]
    log(f"setup_s samples {fmt(setup)}; profile_s {fmt(walls_p)}; optimize_s {fmt(walls_o)}; "
        f"offline peak_rss_mb {fmt(rss)}")
    log(f"window slices: rps {fmt(w['slice_rps'])}; p50_us {fmt(w['slice_p50_us'])}; "
        f"p90_us {fmt(w['slice_p90_us'])}")
    # Printed, not reported: in a busy period of a shared 2-vCPU host the
    # rate, the tail and the servers' memory (which grows with the
    # requests served) follow the hypervisor's stalls, not the program
    # (see README, "Steadiness").
    log(f"rps {statistics.median(w['slice_rps']):.1f}, p90_us {statistics.median(w['slice_p90_us']):.1f}, "
        f"p99_us {statistics.median(w['slice_p99_us']):.1f} (median slices), serve_rss_mb {serve_rss:.3f}; "
        "not reported metrics")
    log(f"failed_frac {b.failed / max(b.attempted, 1):.6g} ({b.failed} of {b.attempted} operations)")
    values = dict(
        setup_s=statistics.median(setup),
        profile_s=statistics.median(walls_p),
        optimize_s=statistics.median(walls_o),
        p50_us=statistics.median(w["slice_p50_us"]),
        peak_rss_mb=statistics.median(rss),
        ok_frac=1.0 - b.failed / max(b.attempted, 1),
    )
    return {k: metric(v, E2E_UNITS[k]) for k, v in values.items()}


def run_traced(b, cfg, seconds):
    """The traced run: the per-layer breakdown of every layer the workload
    touches, each part printed beside the end-to-end total it splits."""
    m, s = cfg["model"], cfg["scale"]
    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    # Three rounds, each the untraced commands then the traced replica of
    # the same two commands. A command's remainder is taken within its
    # round, so drift of the host between rounds cancels; every figure is
    # the median over the rounds.
    common = ["--model", m, "--scale", s, "--seed", b.seed, "--threads", 2]
    rounds = []
    for i in range(TRACE_ROUNDS):
        code_p, t_p, _, _ = b.mupod(f"profile{i}", "profile", *common, "--out", b.dir / "cli_profile.csv")
        code_o, t_o, _, _ = b.mupod(f"optimize{i}", "optimize", *common, "--objective", "bandwidth",
                                    "--profile", b.dir / "cli_profile.csv", "--save", b.dir / "cli_alloc.csv")
        b.op(code_p == 0, f"profile exit {code_p}")
        b.op(code_o == 0, f"optimize exit {code_o}")
        rep = b.dir / f"replica{i}"
        rep.mkdir()
        r = b.helper("perfbench-trace", "offline", "--model", m, "--scale", s, "--seed", b.seed,
                     "--threads", 2, "--dir", rep, "--spans-out", b.dir / f"spans_offline{i}.json")
        # The replica must compute exactly what the commands computed.
        same = all(sha256(rep / a) == sha256(b.dir / f"cli_{a}") for a in ("profile.csv", "alloc.csv"))
        b.op(same, "traced replica's artifacts differ from the commands' artifacts")
        r["profile_ms"], r["optimize_ms"] = t_p * 1e3, t_o * 1e3
        r["profile.unattributed_ms"] = r["profile_ms"] - r["replica.profile_ms"]
        r["optimize.unattributed_ms"] = r["optimize_ms"] - r["replica.optimize_ms"]
        r["trace.overhead_frac"] = ((r["replica.profile_ms"] + r["replica.optimize_ms"])
                                    / (r["profile_ms"] + r["optimize_ms"]) - 1)
        rounds.append(r)
    t = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}

    layer_sum = 0.0
    for tm, ts in TRACE_MODELS:
        lay = b.helper("perfbench-trace", "layers", "--model", tm, "--scale", ts, "--seed", b.seed,
                       "--spans-out", b.dir / f"spans_layers_{tm}.json")
        for name, ms in lay["layer_ms"].items():
            put(f"profile.layer_ms.{tm}.{name}", ms, "ms")
        if tm == m:
            layer_sum = lay["sum_ms"]

    for k in ("setup.build_ms", "setup.calibrate_ms", "setup.data_ms", "profile.clean_ms", "profile.sweep_ms",
              "search.ref_ms", "search.ms", "search.eval_ms", "optim.allocate_ms", "validate.ms", "io.write_ms"):
        put(k, t[k], "ms")
    for k in ("nn.forward_us", "nn.tap_us", "nn.self_us", "tensor.im2col_us", "tensor.conv_us",
              "tensor.dwconv_us", "tensor.fc_us", "tensor.pool_us", "tensor.lrn_us", "tensor.other_us"):
        put(k, t[k], "us")
    for k in ("profile.replays", "tensor.gemm_calls", "search.evals", "validate.attempts"):
        put(k, t[k], "count")
    put("tensor.macs_per_call", t["tensor.macs_per_call"], "MAC")
    put("profile.gmac_s", t["profile.gmac_s"], "GMAC/s")
    put("profile.parallel_eff", layer_sum / (2 * t["profile.sweep_ms"]), "ratio")
    for k in ("profile.unattributed_ms", "optimize.unattributed_ms"):
        put(k, t[k], "ms")
    put("trace.overhead_frac", t["trace.overhead_frac"], "frac")
    setup_ms = t["setup.build_ms"] + t["setup.data_ms"] + t["setup.calibrate_ms"]
    log(f"profile_s {t['profile_ms']:.1f} ms = setup {setup_ms:.1f} + sweep {t['profile.sweep_ms']:.1f} "
        f"+ io.write + unattributed {out['profile.unattributed_ms']['value']:.1f}")
    log(f"optimize_s {t['optimize_ms']:.1f} ms = setup {setup_ms:.1f} + io.read {t['io.read_ms']:.1f} "
        f"+ search.ref {t['search.ref_ms']:.1f} + search {t['search.ms']:.1f} "
        f"+ allocate {t['optim.allocate_ms']:.1f} + validate {t['validate.ms']:.1f} + io.write "
        f"+ unattributed {out['optimize.unattributed_ms']['value']:.1f}")
    log(f"nn.forward_us {t['nn.forward_us']:.1f} = kernels "
        f"{t['nn.forward_us'] - t['nn.self_us']:.1f} + executor self {t['nn.self_us']:.1f}")

    # Serving: the workload's topology plus the other path as a probe —
    # straight at a shard behind the router, or a router in front of the
    # single server — so the router hop is measured in every traced run.
    ex = b.helper("perfbench-trace", "exec", "--model", m, "--scale", s, "--seed", b.seed)
    topo = b.start_topology(cfg, extra_router=True)
    routed = cfg["topology"] == "routed"
    probe_addr = topo["shard_addrs"][0][0] if routed else topo["router_addrs"][0]
    window = max(2, round(seconds / 4))
    try:
        g = b.loadgen(cfg)
        warm = b.drive(g, "warmup", WARMUP_S, topo["front"])
        main = b.drive(g, "window", window, topo["front"])
        probe = b.drive(g, "probe", window, probe_addr)
        b.close_loadgen(g)
        sc = b.helper("perfbench-probe", "scrape", "--addr", topo["front_metrics"])
    finally:
        _, summaries = b.stop_topology(topo)
    b.report_phases()
    serve_sum = [parse_serve_summary(summaries[p.tag]) for p in topo["shards"]]
    route_sum = parse_route_summary(summaries["route"])
    direct, via_router = (probe, main) if routed else (main, probe)
    server_p50 = statistics.mean(x["p50_us"] for x in serve_sum)
    served = sum(x["requests"] for x in serve_sum)
    # Both topologies run two workers in all, busy through every phase.
    busy = served * ex["exec_us"] / 1e6 / (2 * sum(ph["lead_s"] + ph["elapsed_s"] for ph in (warm, main, probe)))
    put("serve.rps", main["rps"], "1/s")
    put("serve.p90_us", statistics.median(main["slice_p90_us"]), "us")
    put("serve.exec_us", ex["exec_us"], "us")
    put("serve.server_p50_us", server_p50, "us")
    put("serve.wire_us", direct["p50_us"] - server_p50, "us")
    put("serve.queue_us", server_p50 - ex["exec_us"], "us")
    put("serve.batch_mean", served / max(sum(x["batches"] for x in serve_sum), 1), "requests")
    put("serve.busy_frac", busy, "frac")
    put("route.router_p50_us", route_sum["p50_us"], "us")
    put("route.direct_p50_us", direct["p50_us"], "us")
    put("route.hop_us", via_router["p50_us"] - direct["p50_us"], "us")
    put("route.attempts_per_req", route_sum["attempts"] / max(route_sum["requests"], 1), "ratio")
    put("route.hedge_frac", route_sum["hedges"] / max(route_sum["requests"], 1), "frac")
    put("obs.scrape_ms", sc["ms"], "ms")
    log(f"client p50 {direct['p50_us']:.0f} us direct = server p50 {server_p50:.0f} "
        f"(exec {ex['exec_us']:.0f} + queue {out['serve.queue_us']['value']:.0f}) + wire "
        f"{out['serve.wire_us']['value']:.0f}; routed p50 {via_router['p50_us']:.0f} us = direct + hop "
        f"{out['route.hop_us']['value']:.0f}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # SIGTERM unwinds like an error, so every child is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if a.seconds <= 0 or a.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    bin_dir = build(a.trace == 1)
    run_dir = ROOT / ".bench_run" / a.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    b = Bench(bin_dir, run_dir, a.seed)
    cfg = WORKLOADS[a.workload]
    try:
        # Untimed: pages the freshly built binary in.
        b.mupod("warmup", "inspect", "--model", cfg["model"], "--scale", "tiny", "--images", 8)
        metrics = (run_traced if a.trace else run_e2e)(b, cfg, a.seconds)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        fail(f"{a.workload}: {e}", code=1)
    finally:
        for p in list(LIVE):
            if p.poll() is None:
                p.kill()
            p.wait()
        b.write_spans()
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(dict(correct=b.failed == 0, attempted=b.attempted, failed=b.failed, metrics=metrics)))


if __name__ == "__main__":
    main()
