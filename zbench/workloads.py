"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload builds its inputs in the constructor, before any clock
starts.  ``run()`` is one timed pass through zred's public entry points, in
one process at ``jobs=1``; it looks functions up through their modules so
that a traced pass sees every call.  ``check(out)`` compares the pass's
outputs with values fixed outside zred's code paths and returns a Tally.
An operation that raises counts as failed; it never stops the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import signal
from functools import partial
from typing import NamedTuple

from zred import cli, maps, oracle, pell, reduction, strings
from zred.forms import UnimodularMatrix, act


class Failed(NamedTuple):
    error: str


class Tally(NamedTuple):
    attempted: int
    failures: list   # one line per failed operation
    cases: int       # checked cases, the numerator of cases_per_ref
    steps: int       # the numerator of steps_per_ref


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Failed(f"{type(exc).__name__}: {exc}")


def _tally(out, check, label) -> Tally:
    """check(i, result) returns a problem (None when operation i's result is
    right) and the work the result stands for; label(i) names operation i."""
    failures, work = [], 0
    for i, result in enumerate(out):
        if isinstance(result, Failed):
            problem, n = result.error, 0
        else:
            problem, n = check(i, result)
        work += n
        if problem:
            failures.append(f"{label(i)}: {problem}")
    return Tally(len(out), failures, work, work)


# ------------------------------------------------------------ sweep, expand

# suite -> (bound, report cases, report failure_count), pinned from zred as
# of this benchmark's first version, at jobs=1.  The seed picks one of four variants with neighbouring
# bounds, so inputs differ between seeds while the work per pass stays within
# about 3%.  expand runs denjoy at a larger bound than lgz so that Denjoy
# expansion, not lgz's orbit walks, carries most of its time.
SWEEP_VARIANTS = [
    {"rotation": (500, 8020, 0), "reductionrelation": (500, 16508, 0),
     "xi_diagram_plus": (500, 2122, 0), "xi_diagram_minus": (500, 2122, 0),
     "mu_fiber": (500, 18162, 0), "primitivity": (500, 8020, 0),
     "weightparity": (500, 8020, 0), "reversal": (500, 10142, 0),
     "firstcoefficient": (500, 2122, 0)},
    {"rotation": (501, 8062, 0), "reductionrelation": (501, 16582, 0),
     "xi_diagram_plus": (501, 2130, 0), "xi_diagram_minus": (501, 2130, 0),
     "mu_fiber": (501, 18254, 0), "primitivity": (501, 8062, 0),
     "weightparity": (501, 8062, 0), "reversal": (501, 10192, 0),
     "firstcoefficient": (501, 2130, 0)},
    {"rotation": (504, 8124, 0), "reductionrelation": (504, 16716, 0),
     "xi_diagram_plus": (504, 2148, 0), "xi_diagram_minus": (504, 2148, 0),
     "mu_fiber": (504, 18396, 0), "primitivity": (504, 8124, 0),
     "weightparity": (504, 8124, 0), "reversal": (504, 10272, 0),
     "firstcoefficient": (504, 2148, 0)},
    {"rotation": (505, 8224, 0), "reductionrelation": (505, 16936, 0),
     "xi_diagram_plus": (505, 2178, 0), "xi_diagram_minus": (505, 2178, 0),
     "mu_fiber": (505, 18626, 0), "primitivity": (505, 8224, 0),
     "weightparity": (505, 8224, 0), "reversal": (505, 10402, 0),
     "firstcoefficient": (505, 2178, 0)},
]
EXPAND_VARIANTS = [
    {"denjoy": (700, 28834, 872), "lgz": (200, 5046, 0)},
    {"denjoy": (701, 28920, 872), "lgz": (201, 5162, 0)},
    {"denjoy": (704, 29078, 881), "lgz": (204, 5246, 0)},
    {"denjoy": (705, 29278, 881), "lgz": (205, 5314, 0)},
]


def _discriminants(bound):
    return [d for d in range(5, bound + 1)
            if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d]


def denjoy_recount(bound) -> int:
    """Expected denjoy failures: scaled forms whose discriminant has a Pell
    unit other than the one of their primitive part, scaled."""
    expected = 0
    for d in _discriminants(bound):
        for f in reduction.enumerate_z_reduced(d):
            m = math.gcd(*f)
            if m == 1:
                continue
            s0 = pell.fundamental_solution(d // (m * m))
            s1 = pell.fundamental_solution(d)
            if (s1.t, s1.u * m, s1.epsilon) != (s0.t, s0.u, s0.epsilon):
                expected += 1
    return expected


class Workload:
    def output_bytes(self, out) -> int:
        """Bytes the pass wrote to standard output through zred's CLI."""
        return 0


class Suites(Workload):
    """verify() on a fixed list of suites, at bounds picked by the seed."""

    def __init__(self, seed, variants):
        pins = variants[seed % len(variants)]
        self.suites = [(sid, bound) for sid, (bound, _, _) in pins.items()]
        self.want = [(cases, failures) for _, cases, failures in pins.values()]

    def run(self):
        return [attempt(oracle.verify, sid, bound, 1) for sid, bound in self.suites]

    def check(self, out) -> Tally:
        def check(i, rep):
            got = (rep.cases, rep.failure_count)
            if got != self.want[i]:
                return f"got {got}, want {self.want[i]}", rep.cases
            return self.recheck(self.suites[i][0], rep), rep.cases

        return _tally(out, check, lambda i: "{} at bound {}".format(*self.suites[i]))

    def recheck(self, sid, rep):
        """A problem with a report whose counts match the pinned ones."""
        return None


class Sweep(Suites):
    def __init__(self, seed):
        super().__init__(seed, SWEEP_VARIANTS)


class Expand(Suites):
    def __init__(self, seed):
        super().__init__(seed, EXPAND_VARIANTS)
        self.recount = denjoy_recount(dict(self.suites)["denjoy"])

    def recheck(self, sid, rep):
        if sid != "denjoy":
            return None
        if rep.failure_count != self.recount:
            return f"{rep.failure_count} failures, the Pell rule counts {self.recount}"
        if not all("not minimal" in f for f in rep.failures):
            return "a failure other than a non-minimal period"
        return None


# ---------------------------------------------------------------- roundtrip

N_STRINGS = 30000
N_FORMS = 10000
# beta(tau(s)) is s for every bead string but this one (acceptance criterion 5)
KNOWN_BEAD_DEFECTS = {(1, 1, 1): (1, 1)}


def _bead_trip(s):
    return maps.beta(maps.tau(s))


def _form_trip(f):
    return maps.tau(strings.sb_inv(maps.sigma(f)))


class Roundtrip(Workload):
    """Bead strings through tau then beta, and Zagier-reduced forms on the
    discriminants k*k +- 4 through sigma, sb_inv and tau."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.beads = [tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 12)))
                      for _ in range(N_STRINGS)]
        pools = {}
        self.forms = []
        for _ in range(N_FORMS):
            k = rng.randint(3, 150)
            delta = k * k + rng.choice((4, -4))
            if delta not in pools:
                pools[delta] = reduction.enumerate_z_reduced(delta)
            self.forms.append(rng.choice(pools[delta]))
        self.want = [KNOWN_BEAD_DEFECTS.get(s, s) for s in self.beads] + self.forms

    def run(self):
        return ([attempt(_bead_trip, s) for s in self.beads]
                + [attempt(_form_trip, f) for f in self.forms])

    def check(self, out) -> Tally:
        def check(i, got):
            return (None if got == self.want[i] else f"got {got}"), 1

        def label(i):
            n = len(self.beads)
            return (f"beta(tau({self.beads[i]}))" if i < n
                    else f"tau(sb_inv(sigma({self.forms[i - n]})))")

        return _tally(out, check, label)


# --------------------------------------------------------------- long-cycle

# (bead count, bead total) per shape.  An even bead count gives sigma an odd
# weight, so the class has one Zagier cycle, of length total - 1 when sigma
# is primitive.
FEW_LARGE_BEADS = (4, 20000)
MANY_SMALL_BEADS = (600, 1200)
# delta -> (Zagier-reduced forms, Zagier cycles, Gauss-reduced forms, Gauss
# cycles), pinned like the suites above; picked near 2*10**6 with similar
# form counts.
CYCLE_PINS = {
    2000057: (7154, 2, 1304, 2),
    2000269: (7111, 1, 1390, 1),
    2000293: (7101, 1, 1386, 1),
    2000297: (7042, 4, 1076, 4),
}
CALL_LIMIT_S = 60

_REDUCE_LINE = re.compile(r"^(pre|cycle): \((-?\d+), (-?\d+), (-?\d+)\)$", re.M)
_FORM = re.compile(r"\((-?\d+), (-?\d+), (-?\d+)\)")


class CallTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CallTimeout(f"call over its {CALL_LIMIT_S} s limit")


def _cli(argv):
    """Exit code and standard output of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), err.getvalue()


def _composition(rng, length, total):
    """Random bead string of the given length and total whose bar string
    (a 1 at each partial sum short of the total) is primitive."""
    while True:
        cuts = sorted(rng.sample(range(1, total), length - 1))
        s = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
        bits = "".join("0" * (q - 1) + "1" for q in s)[:-1]
        if (bits + bits).find(bits, 1) == len(bits):
            return s


def _unimodular(rng):
    k, l = rng.randint(1, 9), rng.randint(1, 9)
    return UnimodularMatrix(1, k, 0, 1) @ UnimodularMatrix(1, 0, -l, 1)


# Reducedness is restated here rather than taken from zred's Form methods, so
# that a defect there cannot hide a wrong output.
def _z_reduced(a, b, c):
    return a > 0 and c > 0 and b > a + c


def _g_reduced(a, b, c):
    return a * c < 0 and b > abs(a + c)


def _exit_ok(result):
    code, _, err = result
    return None if code == 0 else f"exit {code}: {err.strip()[:200]}"


def _check_caliber(want, result):
    problem = _exit_ok(result)
    if not problem and result[1].strip() != str(want):
        problem = f"caliber {result[1].strip()}, want {want}"
    return problem, want


def _check_orbit(delta, want, pre, cycle):
    bad = sum(b * b - 4 * a * c != delta for a, b, c in pre)
    bad += sum(b * b - 4 * a * c != delta or not _z_reduced(a, b, c)
               for a, b, c in cycle)
    if bad:
        return f"{bad} forms off the discriminant or the reduced set"
    if len(cycle) != want:
        return f"cycle of {len(cycle)} forms, want {want}"
    return None


def _check_reduce_text(delta, want, result):
    problem = _exit_ok(result)
    text = result[1]
    pre, cycle = [], []
    for m in _REDUCE_LINE.finditer(text):
        (pre if m[1] == "pre" and not cycle else cycle).append(
            (int(m[2]), int(m[3]), int(m[4])))
    if not problem and text.count("\n") != len(pre) + len(cycle):
        problem = "unparsed output lines"
    problem = problem or _check_orbit(delta, want, pre, cycle)
    return problem, len(pre) + len(cycle)


def _check_reduce_json(delta, want, result):
    problem = _exit_ok(result)
    if problem:
        return problem, 0
    obj = json.loads(result[1])
    pre = [tuple(map(int, f)) for f in obj["pre_period"]]
    cycle = [tuple(map(int, f)) for f in obj["cycle"]]
    return _check_orbit(delta, want, pre, cycle), len(pre) + len(cycle)


def _check_cycles(delta, reduced, n_forms, n_cycles, result):
    problem = _exit_ok(result)
    text = result[1]
    seen = set()
    bad = 0
    for m in _FORM.finditer(text):
        a, b, c = int(m[1]), int(m[2]), int(m[3])
        bad += b * b - 4 * a * c != delta or not reduced(a, b, c) or (a, b, c) in seen
        seen.add((a, b, c))
    if not problem and bad:
        problem = f"{bad} forms off the discriminant, unreduced or repeated"
    lines = text.count("\n")
    if not problem and (len(seen), lines) != (n_forms, n_cycles):
        problem = f"{len(seen)} forms in {lines} cycles, want {n_forms} in {n_cycles}"
    return problem, len(seen)


class LongCycle(Workload):
    """cli.main on caliber, reduce (text and --json) and cycles --op z|g."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.calls = []
        for length, total in (FEW_LARGE_BEADS, MANY_SMALL_BEADS):
            f = maps.tau(_composition(rng, length, total))
            g = act(f, _unimodular(rng))
            delta = f.discriminant()
            self.calls += [
                (["caliber", "--", *map(str, f)], partial(_check_caliber, total - 1)),
                (["reduce", "--", *map(str, g)],
                 partial(_check_reduce_text, delta, total - 1)),
                (["--json", "reduce", "--", *map(str, g)],
                 partial(_check_reduce_json, delta, total - 1)),
            ]
        deltas = sorted(CYCLE_PINS)
        delta = deltas[seed % len(deltas)]
        nz, cz, ng, cg = CYCLE_PINS[delta]
        self.calls += [
            (["cycles", str(delta), "--op", "z"],
             partial(_check_cycles, delta, _z_reduced, nz, cz)),
            (["cycles", str(delta), "--op", "g"],
             partial(_check_cycles, delta, _g_reduced, ng, cg)),
        ]
        signal.signal(signal.SIGALRM, _alarm)

    def run(self):
        return [attempt(_cli, argv) for argv, _ in self.calls]

    def check(self, out) -> Tally:
        tally = _tally(out, lambda i, result: self.calls[i][1](result),
                       lambda i: " ".join(self.calls[i][0])[:100])
        return tally._replace(cases=len(out))

    def output_bytes(self, out) -> int:
        return sum(len(r[1]) for r in out if not isinstance(r, Failed))


WORKLOADS = {
    "sweep": Sweep,
    "expand": Expand,
    "roundtrip": Roundtrip,
    "long-cycle": LongCycle,
}
