#!/usr/bin/env python3
"""Quick self-check of the benchmark.

Runs every workload briefly, untraced and traced, and asserts that the
last line of each run is the result object, that the run is correct, and
that it prints every metric BENCHMARK.json names, with that unit, and no
other. Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--seconds 3] [--seed 5]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=5)
    a = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = spec["command"] + ["--workload", w["name"], "--seed", str(a.seed),
                                      "--seconds", str(a.seconds), "--trace", str(trace)]
            r = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            tag = f"{w['name']} --trace {trace}"
            try:
                res = json.loads(r.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{tag}: exit {r.returncode}, no result line; stderr: {r.stderr[-500:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if r.returncode != 0 or not res.get("correct") or res.get("failed") or res.get("attempted", 0) < 1:
                problems.append(f"{tag}: exit {r.returncode}, correct {res.get('correct')}, "
                                f"{res.get('failed')} of {res.get('attempted')} failed")
            got = {k: v["unit"] for k, v in res.get("metrics", {}).items()}
            for k in sorted(set(want[trace]) - set(got)):
                problems.append(f"{tag}: metric {k} missing")
            for k in sorted(set(got) - set(want[trace])):
                problems.append(f"{tag}: metric {k} not in BENCHMARK.json")
            for k in sorted(set(got) & set(want[trace])):
                if got[k] != want[trace][k]:
                    problems.append(f"{tag}: {k} in {got[k]}, BENCHMARK.json says {want[trace][k]}")
                if not isinstance(res["metrics"][k]["value"], (int, float)):
                    problems.append(f"{tag}: {k} is not a number")
            print(f"{tag}: {len(got)} metrics", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
