#!/usr/bin/env python3
"""Determinism self-test of the benchmark, at small sizes.

    python3 perfbench/selftest.py

For every workload, on tiny inputs (perfbench.exe --small):
  - two runs at one seed report identical simulation outputs (delivered
    lookups, hop totals, message and replication counts, sim_ok_frac),
    and identical per-layer counts in traced runs;
  - a run at a second seed reports different simulation outputs, so the
    seed really drives the generated inputs;
  - no result fails its check.
Exits 1 on the first violation.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = ["build-prox", "route-greedy", "churn-live", "kv-faults"]
# Per-layer metrics in these units are timings or depend on how many
# batches fit in the run; every other per-layer metric is a count.
TIMED_UNITS = {"s", "ns", "ratio", "MiB"}


def report(exe, workload, seed, trace):
    r = run.run_exe(exe, ["--small", "--workload", workload, "--seed", str(seed),
                          "--seconds", "0.5", "--trace", str(trace)])
    if not r["correct"] or r["failed"] != 0:
        sys.exit(f"FAIL {workload} seed {seed}: {r['failed']} results failed their check")
    return r


def counts(r):
    return {k: m["value"] for k, m in r["metrics"].items() if m["unit"] not in TIMED_UNITS}


def main():
    exe = run.build()
    for w in WORKLOADS:
        a1, a2, b = (report(exe, w, s, 0) for s in (11, 11, 12))
        if a1["sim"] != a2["sim"]:
            diff = sorted(k for k in a1["sim"] if a1["sim"][k] != a2["sim"].get(k))
            sys.exit(f"FAIL {w}: same seed, different simulation outputs {diff}")
        if a1["metrics"]["sim_ok_frac"] != a2["metrics"]["sim_ok_frac"]:
            sys.exit(f"FAIL {w}: same seed, different sim_ok_frac")
        if a1["sim"] == b["sim"]:
            sys.exit(f"FAIL {w}: seeds 11 and 12 gave identical simulation outputs")
        t1, t2 = (counts(report(exe, w, 11, 1)) for _ in range(2))
        if t1 != t2:
            diff = sorted(k for k in t1 if t1[k] != t2[k])
            sys.exit(f"FAIL {w}: same seed, different per-layer counts {diff}")
        print(f"ok {w}: {len(a1['sim'])} simulation outputs and {len(t1)} per-layer "
              f"counts repeat; a second seed changes the inputs")


if __name__ == "__main__":
    main()
