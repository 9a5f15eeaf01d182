#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1,2,...]

Runs perfbench/run.py once per seed and workload (sequentially, each in
its own process) and prints, per metric, the median and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json. A
spread above a third of the bound is flagged. The last line is the
whole summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    a = p.parse_args()
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in a.seeds.split(",")]
    summary, flagged = {}, 0
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: run.py exited with {proc.returncode}")
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in report["metrics"].items():
                values[name].append(m["value"])
        summary[w] = {}
        print(f"== {w} ({len(seeds)} seeds)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = m["name"] != "setup_s" and spread > m["bound"] / 3
            flagged += flag
            summary[w][m["name"]] = {"median": med, "spread": spread, "values": v}
            print(f"  {m['name']:<14} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {m['bound']}{'  <-- above bound/3' if flag else ''}")
    print(json.dumps(summary))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
