#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source with dune (into
$CARGO_TARGET_DIR, default .bench_build, inside the checkout), runs it in
its own process, checks its report against BENCHMARK.json and prints, as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end ones, with --trace 1 the
per_layer ones (the spans go to <build dir>/traces/). Exits 1 when the
build or run fails, the report is malformed, or any result failed its
check.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def find_dune():
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    return dune


def build():
    """Build the benchmark executable; return its path."""
    if not (ROOT / "dune-project").exists() or not (ROOT / "lib").is_dir():
        die(f"{ROOT} holds no canon source tree to build")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # Keep dune's cache and configuration inside the build directory.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = str(out / "xdg-cache")
    env["XDG_CONFIG_HOME"] = str(out / "xdg-config")
    cmd = [
        find_dune(), "build", "--root", str(ROOT), "--build-dir", str(out / "dune"),
        "--profile", "release", "--display", "quiet", "./perfbench/perfbench.exe",
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0:
        die("build failed")
    return out / "dune" / "default" / "perfbench" / "perfbench.exe"


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def run_exe(exe, args):
    """Run the executable; return its report (the last stdout line, parsed)."""
    try:
        proc = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"perfbench.exe exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("perfbench.exe printed no report")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        die(f"malformed report: {e}")


def check_metrics(report, expected, nonzero):
    """Return the metrics in BENCHMARK.json order, or die on a mismatch."""
    got = report.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(got) != sorted(names):
        die(f"metric set mismatch: missing {sorted(set(names) - set(got))}, "
            f"unexpected {sorted(set(got) - set(names))}")
    out = {}
    for m in expected:
        v, unit = got[m["name"]]["value"], got[m["name"]]["unit"]
        if unit != m["unit"]:
            die(f"{m['name']}: unit {unit}, BENCHMARK.json says {m['unit']}")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            die(f"{m['name']}: value {v!r} is not a finite number")
        if nonzero and v == 0:
            die(f"{m['name']}: end-to-end metric is 0")
        out[m["name"]] = {"value": v, "unit": unit}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    spec = load_spec()
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {a.workload!r}")
    if a.seed < 0 or not a.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")
    exe = build()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{a.workload}-seed{a.seed}.jsonl")]
    report = run_exe(exe, args)
    expected = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = check_metrics(report, expected, nonzero=not a.trace)
    attempted, failed = report.get("attempted"), report.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1):
        die("report lacks whole-number attempted/failed counts")
    correct = bool(report.get("correct")) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
