"""Spans around zred's public functions, installed from outside the package.

Each target is rebound in every ``zred.*`` namespace that holds the original
function object, so calls between zred modules are seen as well as calls
from the benchmark, and no file of the package changes.  Callers must look
functions up through their module (``maps.tau``) at call time.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the spans it caused.  Per-function totals, caller edges and the
outermost spans stay in memory; the run writes them out when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# module -> public functions wrapped in a traced pass
TARGETS = {
    "forms": ("form", "check_indefinite", "act"),
    "kernel": ("z_reduced_forms", "g_reduced_forms", "euclid_quotients",
               "denjoy_bits"),
    "pell": ("fundamental_solution",),
    "contfrac": ("cf_expand", "continuant", "surd", "denjoy_surd",
                 "reg_cf_surd", "reg_cf_period", "neg_cf_period"),
    "reduction": ("r_z", "r_g", "reducing_number", "orbit_to_cycle", "cycles",
                  "enumerate_z_reduced", "enumerate_g_reduced"),
    "maps": ("beta", "sigma", "gamma", "mu", "tau", "denjoy_period"),
    "strings": ("sb", "sb_inv", "rotate_bin", "check_nat", "t_z", "t_g",
                "is_primitive"),
    "oracle": ("verify",),
    "cli": ("main",),
}

# span name -> {label: result -> count}; the work a call did, summed per name
OUTPUT_COUNTS = {
    "kernel.z_reduced_forms": {"forms": len},
    "kernel.g_reduced_forms": {"forms": len},
    "kernel.euclid_quotients": {"quotients": len},
    "kernel.denjoy_bits": {"bits": len},
    "oracle.verify": {"cases": lambda r: r.cases,
                      "failures": lambda r: r.failure_count},
}


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self):
        self.stats = {}   # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> {label: total}
        self.edges = {}   # (caller name or None, name) -> calls
        self.spans = []   # outermost spans: (name, start_s, end_s)
        self._stack = []  # open spans: [name, child_s]

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        counters = OUTPUT_COUNTS.get(name, {})
        counts = self.counts.setdefault(name, dict.fromkeys(counters, 0))
        stack, edges, spans = self._stack, self.edges, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    key = (stack[-1][0], name)
                else:
                    spans.append((name, t0, t0 + dt))
                    key = (None, name)
                edges[key] = edges.get(key, 0) + 1
            for label, count in counters.items():
                counts[label] += count(result)
            return result

        return traced

    def calls(self) -> dict:
        return {name: s[0] for name, s in self.stats.items()}

    def to_json(self) -> dict:
        return {
            "functions": {n: {"calls": c, "total_s": t, "self_s": s}
                          for n, (c, t, s) in self.stats.items()},
            "counts": self.counts,
            "edges": [{"caller": a, "callee": b, "calls": n}
                      for (a, b), n in self.edges.items()],
            "outermost_spans": [{"name": n, "start_s": a, "end_s": b}
                                for n, a, b in self.spans],
        }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every target to its traced wrapper for the body of the block."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "zred" or n.startswith("zred.")]
    undo = []
    try:
        for short, names in TARGETS.items():
            module = sys.modules["zred." + short]
            for fname in names:
                original = getattr(module, fname)
                wrapper = tracer.wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            undo.append((m, attr, original))
        yield tracer
    finally:
        for m, attr, original in reversed(undo):
            setattr(m, attr, original)
