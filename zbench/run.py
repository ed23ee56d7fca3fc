"""zred benchmark: run one workload, check its outputs, print its metrics.

    python3 zbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository: zred is imported from the
checkout's src/ directory, so nothing is installed.  The workload's inputs
come from --seed and are built before any clock starts; timed passes repeat
until they add up to --seconds, each starting with a cold Pell cache.  A
fixed reference loop, independent of zred, runs between passes; each pass's
time is reported in units of the reference loop's time around it, which
cancels the host's changes of speed (see zbench/README.md); so is the time
of the fresh `import zred` that follows each pass, converted back to seconds
of a host on which the reference loop takes REFERENCE_NOMINAL_S.  Every
pass's outputs are checked; outputs equal to an earlier pass's, compared by
digest, share its verdict.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: with
--trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json, with
--trace 1 the per-layer ones, taken from a traced pass that follows the
untraced passes.  The lines above it are a readable summary.  The full
result set, stamped with the backend, Python version, CPU count, git SHA and
seed, goes to .bench_out/ in the checkout; zbench/compare.py compares two
directories of them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from spans import TARGETS, Tracer, installed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _import_zred():
    if not os.path.isfile(os.path.join(SRC, "zred", "__init__.py")):
        sys.exit(f"error: no zred sources under {SRC}")
    sys.path.insert(0, SRC)
    import zred

    if os.path.dirname(os.path.dirname(os.path.abspath(zred.__file__))) != SRC:
        sys.exit(f"error: zred was imported from {zred.__file__}, not {SRC}")
    return zred


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _src_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "zred")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def fresh_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports zred and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import zred"], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=SRC))
    return time.perf_counter() - t0


# The reference loop: fixed pure-Python work of the kinds zred's time goes
# to (small-integer Euclid, tuples as dict keys, bit strings, bigints).  It
# imports nothing from zred, so no change to zred moves it.  It runs with
# the cyclic collector off, so that the number of objects zred keeps alive
# does not change its time, and it keeps its table small, so that it does
# not raise the run's peak memory.
REFERENCE_ROUNDS = 40000
REFERENCE_TOTAL = 19973321866
# setup_s is given in seconds of a host on which the reference loop takes
# this long, about its time on the 2-core machine the benchmark was tuned on.
REFERENCE_NOMINAL_S = 0.1


def _reference_work(rounds) -> int:
    table = {}
    total = 0
    for i in range(rounds):
        a, b = i * 7919 + 104729, i % 97 + 3
        quotients = []
        while b:
            quotients.append(a // b)
            a, b = b, a % b
        key = tuple(quotients)
        table[key] = table.get(key, 0) + 1
        if len(table) == 1000:
            total += sum(table.values())
            table.clear()
        bits = "".join("0" * (q % 5) + "1" for q in quotients)
        total += len(bits) + bits.count("01")
        x = (i + 3) ** 9
        total += (x * x) % 1000003
    return total + len(table)


def reference_seconds() -> float:
    """Wall time of one run of the reference loop, whose result is checked."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = _reference_work(REFERENCE_ROUNDS)
        dt = time.perf_counter() - t0
    finally:
        gc.enable()
    if total != REFERENCE_TOTAL:
        raise SystemExit(f"error: reference loop gave {total}, not {REFERENCE_TOTAL}")
    return dt


def _digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()


def _select(values, specs):
    """Values of exactly the metrics BENCHMARK.json lists, with their units."""
    names = [m["name"] for m in specs]
    if sorted(values) != sorted(names):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(names))} "
                         "are not both measured and listed in BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


class Run:
    """Timed passes of one workload, with their checks and totals."""

    def __init__(self, work, pell_cache):
        self.work = work
        self.pell_cache = pell_cache
        self.attempted = 0
        self.failures = []
        self.tallies = {}  # output digest -> Tally: equal outputs, equal verdict

    def one_pass(self, tracer=None):
        self.pell_cache.cache_clear()  # every zred process starts cold
        gc.collect()
        if tracer is None:
            t0 = time.perf_counter()
            out = self.work.run()
            dt = time.perf_counter() - t0
        else:
            with installed(tracer):
                t0 = time.perf_counter()
                out = self.work.run()
                dt = time.perf_counter() - t0
        digest = _digest(out)
        if digest not in self.tallies:
            self.tallies[digest] = self.work.check(out)
        tally = self.tallies[digest]
        self.attempted += tally.attempted
        self.failures += tally.failures
        return out, dt, tally


def layer_metrics(tracer, tally, pell_info, output_bytes, overhead_s):
    m = {}
    for short, names in TARGETS.items():
        for fname in names:
            calls, _, self_s = tracer.stats[f"{short}.{fname}"]
            m[f"{short}.{fname}.calls"] = calls
            m[f"{short}.{fname}.self_s"] = self_s
    for name, counts in tracer.counts.items():
        if name.startswith("kernel."):
            for label, n in counts.items():
                m[f"{name}.{label}"] = n
    checks = tracer.stats["forms.form"][0] + tracer.stats["forms.check_indefinite"][0]
    m["bench.cases"] = tally.cases
    m["forms.checks_per_case"] = checks / tally.cases
    lookups = pell_info.hits + pell_info.misses
    m["pell.cache_hit_ratio"] = pell_info.hits / lookups if lookups else 0.0
    verified = tracer.counts["oracle.verify"]
    m["oracle.cases"] = verified["cases"]
    m["oracle.failures"] = verified["failures"]
    m["oracle.failure_ratio"] = (verified["failures"] / verified["cases"]
                                 if verified["cases"] else 0.0)
    m["cli.output_bytes"] = output_bytes
    m["trace.overhead_s"] = overhead_s
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    zred = _import_zred()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": zred.backend(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
    }
    fresh_import_seconds()  # writes the bytecode caches
    pell_cache = zred.pell.fundamental_solution
    run = Run(WORKLOADS[args.workload](args.seed), pell_cache)

    # Each pass is timed against the mean of the reference loops just before
    # and just after it.  One set-up sample follows each pass, so that the
    # samples, like the passes, spread over the whole run; it is timed
    # against the reference loop just before it.
    walls, refs, rels, cases_rates, steps_rates = [], [], [], [], []
    setups, setup_rels = [], []
    ref_before = reference_seconds()
    while sum(walls) < args.seconds:
        # The pass's outputs are dropped here, so that the next pass's peak
        # memory does not include them.
        _, dt, tally = run.one_pass()
        del _
        ref_after = reference_seconds()
        ref = (ref_before + ref_after) / 2
        ref_before = ref_after
        walls.append(dt)
        refs.append(ref)
        rels.append(dt / ref)
        cases_rates.append(tally.cases / rels[-1])
        steps_rates.append(tally.steps / rels[-1])
        if not args.trace:
            setups.append(fresh_import_seconds())
            setup_rels.append(setups[-1] / ref_after)
    wall_s = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result_set = {"stamp": stamp, "pass_wall_s": walls, "reference_s": refs,
                  "import_s": setups}
    problems = []  # checks on the run as a whole, beside failed operations
    if len(run.tallies) > 1:
        problems.append("passes over the same inputs gave different outputs")
    if args.trace:
        first, second = Tracer(), Tracer()
        out, traced_wall, tally = run.one_pass(first)
        pell_info = pell_cache.cache_info()
        output_bytes = run.work.output_bytes(out)
        run.one_pass(second)
        if len(run.tallies) > 1:
            problems.append("traced outputs differ from untraced outputs")
        if (first.calls(), first.counts) != (second.calls(), second.counts):
            problems.append("call counts differ between two traced passes")
        values = layer_metrics(first, tally, pell_info, output_bytes,
                               traced_wall - wall_s)
        metrics = _select(values, spec["per_layer"])
        result_set.update(traced_wall_s=traced_wall, spans=first.to_json())
    else:
        metrics = _select({
            "setup_s": statistics.median(setup_rels) * REFERENCE_NOMINAL_S,
            "wall_ref": statistics.median(rels),
            "cases_per_ref": statistics.median(cases_rates),
            "steps_per_ref": statistics.median(steps_rates),
            "peak_rss_mb": peak_rss_mb,
        }, spec["end_to_end"])

    failed = len(run.failures)
    final = {"correct": not (failed or problems), "attempted": run.attempted,
             "failed": failed, "metrics": metrics}
    result_set.update(result=final, error_rate=failed / run.attempted,
                      failures=run.failures[:50], problems=problems)
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(result_set, f)

    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"# passes={len(walls)} attempted={run.attempted} failed={failed} "
          f"error_rate={failed / run.attempted:.6g}")
    print(f"# median pass wall_s={wall_s:.6g} reference_s={statistics.median(refs):.6g}"
          + (f" import_s={statistics.median(setups):.6g}" if setups else ""))
    for line in problems + run.failures[:10]:
        print(f"# FAILED {line}")
    for k, v in metrics.items():
        print(f"#   {k:42s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
