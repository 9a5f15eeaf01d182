#!/usr/bin/env python3
"""Tables gate: the bench harness's deterministic tables must not change.

At the fixed seed every table except `latency` (wall-clock timings) and
`micro` (Bechamel) is a pure function of the code, so a refactor that
changes any cell has changed behaviour. `tables-quick.json` next to this
script holds the quick-scale tables of the committed baseline, and
`tables-paper.json` the paper-scale ones (`--paper`).

Usage:
  python3 bench/tables_gate.py --experiments                  # print the gated experiment ids
  python3 bench/tables_gate.py [--paper] BENCH.json           # compare; exit 1 on any difference
  python3 bench/tables_gate.py --update [--paper] BENCH.json  # rewrite the baseline from BENCH.json

At quick scale (about 10 s) BENCH.json comes from
  CANON_SCALE=quick dune exec bench/main.exe -- \\
    $(python3 bench/tables_gate.py --experiments) --json BENCH.json
and at paper scale (about a minute, release build) from
  dune build --profile release bench/main.exe
  ./_build/default/bench/main.exe $(python3 bench/tables_gate.py --experiments) --json BENCH.json
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINES = {
    "quick": os.path.join(HERE, "tables-quick.json"),
    "paper": os.path.join(HERE, "tables-paper.json"),
}


def load_run(path):
    with open(path) as f:
        run = json.load(f)
    manifest = run["manifest"]
    names = [e["name"] for e in manifest["experiments"]]
    return manifest, names, run["tables"]


def main(argv):
    update = "--update" in argv
    scale = "paper" if "--paper" in argv else "quick"
    paths = [a for a in argv if a not in ("--update", "--paper")]
    baseline = BASELINES[scale]
    with open(baseline) as f:
        base = json.load(f)
    if paths == ["--experiments"] and not update:
        print(" ".join(base["experiments"]))
        return 0
    if len(paths) != 1 or paths[0].startswith("--"):
        print(__doc__, file=sys.stderr)
        return 2
    manifest, names, tables = load_run(paths[0])
    if manifest["scale"] != base["scale"] or manifest["seed"] != base["seed"]:
        print(f"run is scale {manifest['scale']} seed {manifest['seed']}, baseline is "
              f"scale {base['scale']} seed {base['seed']}", file=sys.stderr)
        return 1
    if names != base["experiments"]:
        print(f"run has experiments {names}, baseline has {base['experiments']}", file=sys.stderr)
        return 1
    if update:
        base["tables"] = tables
        with open(baseline, "w") as f:
            json.dump(base, f, indent=1)
            f.write("\n")
        print(f"wrote {baseline}")
        return 0
    changed = 0
    for name, want, got in zip(names, base["tables"], tables):
        if want == got:
            continue
        changed += 1
        print(f"{name}: table changed ({want['title']!r})")
        if want["columns"] != got["columns"]:
            print(f"  columns {want['columns']} -> {got['columns']}")
        for i, (a, b) in enumerate(zip(want["rows"], got["rows"])):
            if a != b:
                print(f"  row {i}: {a} -> {b}")
        if len(want["rows"]) != len(got["rows"]):
            print(f"  {len(want['rows'])} rows -> {len(got['rows'])}")
    if changed:
        print(f"{changed} of {len(names)} tables differ from {baseline}")
        return 1
    print(f"ok: {len(names)} tables identical to the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
