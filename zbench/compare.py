"""Compare two directories of zred benchmark result sets.

    python3 zbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result sets as run.py writes them to .bench_out/.  For
each workload found on both sides, and each end-to-end metric, it prints the
median over the untraced sets of each side and the change as a share of the
before median, marking a change worse than the metric's bound in
BENCHMARK.json.  It refuses, with exit code 2, to compare sets whose zred
backend differs: a built compiled kernel or ZRED_PURE changes what is
measured.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory) -> dict:
    """workload -> untraced result sets found in the directory."""
    sets = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            rs = json.load(f)
        sets.setdefault(rs["stamp"]["workload"], []).append(rs)
    return sets


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    backends = {rs["stamp"]["backend"]
                for sets in (before, after) for group in sets.values() for rs in group}
    if len(backends) > 1:
        print(f"refusing to compare result sets from backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    workloads = [w for w in before if w in after]
    if not workloads:
        print("no workload has result sets on both sides", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    print(f"{'workload':12s} {'metric':14s} {'before':>12s} {'after':>12s} "
          f"{'change':>8s} {'bound':>6s}")
    for w in workloads:
        for side, sets in (("before", before[w]), ("after", after[w])):
            failed = sum(rs["result"]["failed"] for rs in sets)
            attempted = sum(rs["result"]["attempted"] for rs in sets)
            print(f"{w:12s} {side} runs={len(sets)} failed={failed}/{attempted}")
        for m in metrics:
            b, a = (statistics.median(rs["result"]["metrics"][m["name"]]["value"]
                                      for rs in sets)
                    for sets in (before[w], after[w]))
            change = (a - b) / b
            worse = change if m["better"] == "lower" else -change
            flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
            print(f"{w:12s} {m['name']:14s} {b:12.6g} {a:12.6g} {change:+8.2%} "
                  f"{m['bound']:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
