"""Mechanical verification of the package's claims at desk scale.

Every suite rechecks a theorem-shaped statement by brute enumeration,
independent re-derivation, or randomized identity testing, and returns a
VerificationReport.  Suites never trust the quantity under test: the
Zagier cycles that cycles() seeds through mu are checked against the
independently enumerated reduced forms, and calibers come from orbit
walks rather than anything cached in the maps module.  No suite checks
the expansion engines against rational interval refinement: that is
expand_surd_oracle, which the tests call.

Suites shard over their discriminant range (or sample chunks) into units
and can run those in parallel; reports merge in unit order, so failures
list the smallest discriminant first and output is deterministic.  A unit
is a pair (work, arg) of a module-level generator function and its
argument, so it pickles by reference.  work(arg) yields one item per
case, in order: None when the case holds, else the failure message;
_work is the only code that counts cases and collects failures.

The forms and strings a suite feeds the maps come from the reduced-form
enumerations, from reduction steps on them, or from product, so they are
valid by construction: suites call the unchecked cores (_beta, _gamma,
_z_step, ...) and take isqrt(delta) once per unit.  The cores keep their
asserts, and the boundary tests of each module cover the public checks.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .contfrac import (
    QuadraticSurd,
    _as_surd,
    _expand,
    _period,
    _term_count,
    continuant,
    continuant_matrix,
    neg_to_reg_stream,
    reg_to_denjoy,
    surd,
)
from .forms import Form, UnimodularMatrix, act, as_int
from .kernel import denjoy_bits
from .maps import _beta, _denjoy_period, _gamma, _mu, _sigma, _tau
from .pell import _fundamental_solution
from .reduction import (
    _g_step,
    _z_number,
    _z_step,
    cycles,
    enumerate_g_reduced,
    enumerate_z_reduced,
    orbit_to_cycle,
)
from .strings import (
    eta_minus,
    eta_plus,
    is_primitive,
    knead,
    least_rotation,
    pinch_both,
    primitive_root,
    rotate_bin,
    sb_inv,
    t_g,
    t_z,
)

MAX_RECORDED_FAILURES = 50


@dataclass
class VerificationReport:
    theorem_id: str
    bound: int
    cases: int = 0
    failure_count: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def merge(self, cases: int, failures: list) -> None:
        self.cases += cases
        self.failure_count += len(failures)
        room = MAX_RECORDED_FAILURES - len(self.failures)
        if room > 0:
            self.failures.extend(failures[:room])

    def summary(self) -> str:
        head = (f"{self.theorem_id}: {'PASS' if self.passed else 'FAIL'} "
                f"({self.cases} cases, bound {self.bound}")
        if self.passed:
            return head + ")"
        return head + f", {self.failure_count} failures; first: {self.failures[0]})"

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "bound": self.bound,
            "cases": self.cases,
            "passed": self.passed,
            "failure_count": self.failure_count,
            "failures": list(self.failures),
        }


def discriminants(delta_max: int) -> list:
    """Nonsquare values 0 or 1 mod 4 up to delta_max; the ones with forms."""
    return [d for d in range(5, delta_max + 1)
            if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d]


# ---------------------------------------------------------------- suites

def _per_delta(work):
    return lambda delta_max: [(work, d) for d in discriminants(delta_max)]


def _at(table, f):
    # table[f] for a form the sweep enumerated; a step that left the reduced
    # set gets a note naming its form, which equals no map value, so the
    # check records a failure and the sweep goes on
    return table[f] if f in table else f"{f}, which is not reduced"


def _rotation_work(delta):
    s = math.isqrt(delta)
    zf = enumerate_z_reduced(delta)
    sig = {f: _sigma(f) for f in zf}
    for f in zf:
        got, want = rotate_bin(sig[f]), _at(sig, _z_step(f, s))
        yield None if got == want else (
            f"delta={delta} f={f}: rotate_bin(sigma)={got} but sigma(r_z)={want}")


def _xi_plus_work(delta):
    for f in enumerate_g_reduced(delta):
        if f.a < 0:
            continue
        got, want = _beta(_mu(f)), eta_plus(_gamma(f))
        yield None if got == want else (
            f"delta={delta} f={f}: beta(mu)={got} eta+(gamma)={want}")


def _xi_minus_work(delta):
    for f in enumerate_g_reduced(delta):
        if f.a > 0:
            continue
        got, want = _beta(_mu(f)), eta_minus(_gamma(f.rho()))
        yield None if got == want else (
            f"delta={delta} f={f}: beta(mu)={got} eta-(gamma rho)={want}")


def _bead_discs(delta_max):
    out = set()
    k = 1
    while k * k + 4 <= delta_max:
        out.add(k * k + 4)
        k += 1
    k = 3
    while k * k - 4 <= delta_max:
        out.add(k * k - 4)
        k += 1
    return sorted(out)


def _beads_units(delta_max):
    units = [(_beads_forms, d) for d in _bead_discs(delta_max)]
    if delta_max >= 5:
        units.extend((_beads_strings, (l, q1))
                     for l in range(2, 9) for q1 in range(1, 7))
    return units


def _beads_forms(delta):
    for f in enumerate_z_reduced(delta):
        g = _tau(_beta(f))
        yield None if g == f else f"delta={delta} f={f}: tau(beta(f))={g}"


def _beads_strings(length_first):
    # every string of the given length and first bead, beads up to 6
    l, q1 = length_first
    for rest in product(range(1, 7), repeat=l - 1):
        s = (q1,) + rest
        got = _beta(_tau(s))
        yield None if got == s else (
            f"s={s}: beta(tau(s))={got} (delta={_tau(s).discriminant()})")


def _reduction_work(delta):
    r = math.isqrt(delta)

    def check(tag, f, got, want):
        return None if got == want else (
            f"delta={delta} f={f} [{tag}]: got {got} want {want}")

    # each map is taken once per form and looked up after a step
    gam = {f: _gamma(f) for f in enumerate_g_reduced(delta) if f.a > 0}
    bet = {g: _beta(g) for g in enumerate_z_reduced(delta)}
    for f, s in gam.items():
        f1 = _g_step(f, r)
        f2 = _g_step(f1, r)
        mf = _mu(f)
        yield check("gamma_rho_rg", f, _at(gam, f1.rho()), t_g(s))
        yield check("gamma_rg2", f, _at(gam, f2), t_g(t_g(s)))
        yield check("mu_rg", f, _mu(f1), _z_step(mf, r))
        h = mf
        for _ in range(s[1 % len(s)]):
            h = _z_step(h, r)
        yield check("mu_rg2", f, _mu(f2), h)
    for g, b in bet.items():
        yield check("beta_rz", g, _at(bet, _z_step(g, r)), t_z(b))


def _firstcoeff_work(delta):
    s = math.isqrt(delta)
    for f in enumerate_g_reduced(delta):
        if f.a < 0:
            continue
        m = UnimodularMatrix(_gamma(f)[0], 1, -1, 0)
        got, want = act(f, m), _g_step(f, s)
        yield None if got == want else (
            f"delta={delta} f={f}: f|M(q1)={got} r_g={want}")


def _reversal_work(delta):
    # a G- form's reverse and rho are both G+, so gamma is taken once per
    # G+ form and beta once per Zagier-reduced form
    gf = enumerate_g_reduced(delta)
    gam = {f: _gamma(f) for f in gf if f.a > 0}
    for f in gf:
        if f.a > 0:
            continue
        fr, fp = f.reverse(), f.rho()
        if fr not in gam or fp not in gam:
            yield f"delta={delta} f={f}: reverse {fr} or rho {fp} is not reduced"
            continue
        got, want = gam[fr], tuple(reversed(gam[fp]))
        yield None if got == want else (
            f"delta={delta} f={f}: gamma(reverse)={got} reversed(gamma(rho))={want}")
    bet = {g: _beta(g) for g in enumerate_z_reduced(delta)}
    for g, b in bet.items():
        got, want = _at(bet, g.reverse()), tuple(reversed(b))
        yield None if got == want else (
            f"delta={delta} g={g}: beta(reverse)={got} reversed(beta)={want}")


_SWAP = UnimodularMatrix(-1, 1, -1, 0)


def _mu_fiber_work(delta):
    s = math.isqrt(delta)
    plus, minus = {}, {}
    for f in enumerate_g_reduced(delta):
        (plus if f.a > 0 else minus)[_mu(f)] = f
    for h, g in minus.items():
        f0 = act(g, _SWAP)
        if f0.is_g_reduced() and f0.a > 0:
            ok = _mu(f0) == h and _g_step(g, s) == f0 and plus.get(h) == f0
            yield None if ok else (
                f"delta={delta} g={g}: fiber partner {f0} "
                f"mismatch (mu={_mu(f0)})")
        else:
            yield None if h not in plus else (
                f"delta={delta} g={g}: mu collides with {plus[h]} "
                f"but g(-x+y,-x)={f0} is not reduced")
    # image characterization: h has a G+/G- preimage under mu exactly when
    # its bead string starts/ends with 1
    for h in enumerate_z_reduced(delta):
        b = _beta(h)
        plus_pre = Form(h.a, h.b - 2 * h.a, h.a - h.b + h.c)
        minus_pre = Form(h.a - h.b + h.c, h.b - 2 * h.c, h.c)
        yield None if plus_pre.is_g_reduced() == (b[0] == 1) else (
            f"delta={delta} h={h}: mu(G+) membership "
            f"{plus_pre.is_g_reduced()} vs beads {b}")
        yield None if minus_pre.is_g_reduced() == (b[-1] == 1) else (
            f"delta={delta} h={h}: mu(G-) membership "
            f"{minus_pre.is_g_reduced()} vs beads {b}")


def _primitivity_work(delta):
    # sigma is injective on the primitive forms of one discriminant and
    # lands in primitive strings; scaled forms may reuse a primitive
    # string from a smaller discriminant, so nothing is claimed for them.
    # Membership in mu(G+), read off the first bead, is mu_fiber's check.
    seen = {}
    for f in enumerate_z_reduced(delta):
        if not f.is_primitive():
            yield None
            continue
        s = _sigma(f)
        if not is_primitive(s):
            yield f"delta={delta} f={f}: sigma={s} is a repetition"
        elif s in seen:
            yield f"delta={delta} f={f}: sigma={s} collides with {seen[s]}"
        else:
            seen[s] = f
            yield None


def _weightparity_work(delta):
    eps = _fundamental_solution(delta).epsilon
    for f in enumerate_z_reduced(delta):
        w = _sigma(f).count("1")
        yield None if (w % 2 == 1) == (eps == -4) else (
            f"delta={delta} f={f}: weight {w} vs epsilon {eps:+d}")


def _zcaliber_work(length):
    for bits in product("01", repeat=length):
        s = "".join(bits)
        if "1" not in s or least_rotation(s) != s or not is_primitive(s):
            continue
        classes = {}
        for r in range(length):
            rot = s[r:] + s[:r]
            orbit = orbit_to_cycle(_tau(sb_inv(rot))).cycle
            classes[min(orbit)] = len(orbit)
        want_classes = 1 if s.count("1") % 2 == 1 else 2
        yield None if (len(classes) == want_classes
                       and sum(classes.values()) == length) else (
            f"necklace {s}: classes {sorted(classes.items())} "
            f"(want {want_classes} classes with calibers summing to {length})")


def _denjoy_work(delta):
    for f in enumerate_z_reduced(delta):
        p = _denjoy_period(f)
        # w - 1 = (b - 2a + sqrt(delta))/(2a) is a valid state for the core:
        # delta - (b - 2a)**2 = 4a(b - a - c), which 2a divides, and w > 1
        got = denjoy_bits(f.b - 2 * f.a, 2 * f.a, delta, 3 * len(p))
        yield None if got == p * 3 else (
            f"delta={delta} f={f}: expansion {got} does not repeat period {p}")
        root = primitive_root(p)
        yield None if root == p else (
            f"delta={delta} f={f}: period {p} is not minimal (true period {root})")


def _lgz_units(delta_max):
    units = [(_lgz_forms, d) for d in discriminants(delta_max)]
    units.append((_lgz_sample, delta_max))
    return units


def _lgz_forms(delta):
    # each form's period is walked once, and each Zagier cycle once: a
    # form's reducing numbers are its cycle's, rotated to start at it
    s = math.isqrt(delta)
    place = {}
    for cyc in cycles(delta):
        nums = tuple(_z_number(g.a, g.b, s) for g in cyc)
        for i, g in enumerate(cyc):
            # a form listed more than once keeps no place
            place[g] = None if g in place else (nums, i)
    for f in enumerate_z_reduced(delta):
        x = QuadraticSurd(f.b, 2 * f.a, delta)
        period = _period(*x, True)
        yield None if (x.cmp(1) > 0 and x.conj_cmp(0) > 0 and x.conj_cmp(1) < 0
                       and period[0] == ()) else (
            f"delta={delta} f={f}: {x} fails the reduced negative characterization")
        # cycles seeds its walks rather than scanning every form, so this
        # is the check that it lists each of them exactly once
        if f not in place:
            yield f"delta={delta} f={f}: in no cycle that cycles lists"
        elif place[f] is None:
            yield f"delta={delta} f={f}: in more than one listed cycle"
        else:
            nums, i = place[f]
            want = nums[i:] + nums[:i]
            yield None if period == ((), want) else (
                f"delta={delta} f={f}: negative period {period} "
                f"vs reducing numbers {want}")
    for f in enumerate_g_reduced(delta):
        if f.a < 0:
            continue
        x = QuadraticSurd(f.b, 2 * f.a, delta)
        period = _period(*x, False)
        yield None if (x.cmp(1) > 0 and x.conj_cmp(-1) > 0 and x.conj_cmp(0) < 0
                       and period[0] == ()) else (
            f"delta={delta} f={f}: {x} fails the reduced regular characterization")
        if f.is_primitive():
            yield None if period == ((), _gamma(f)) else (
                f"delta={delta} f={f}: regular period {period} vs gamma {_gamma(f)}")


def _denjoy_bits_stepwise(p, q, delta, n):
    """Reference binary expansion, one bit per step on the (p, q) state.

    denjoy_surd is built from regular quotients, so checking the
    regular-to-binary rewrite against it would be circular; this takes
    the binary step itself: bit 1 and x -> 1/(x - 1) when x > 1, else
    bit 0 and x -> 1/x.
    """
    s = math.isqrt(delta)
    bits = []
    for _ in range(n):
        if q > 0:
            fl = (p + s) // q
        else:
            fl = -((p + s) // (-q)) - 1
        bit = 1 if fl >= 1 else 0
        p1 = bit * q - p
        q1, r = divmod(delta - p1 * p1, q)
        assert r == 0, "surd state lost the divisibility invariant"
        p, q = p1, q1
        bits.append("1" if bit else "0")
    return "".join(bits)


def _lgz_sample(delta_max):
    rng = random.Random(1729)
    hi = max(5, delta_max)
    for _ in range(500):
        d = rng.randint(2, hi)
        if math.isqrt(d) ** 2 == d:
            continue
        s = math.isqrt(d)
        p = rng.randint(-3 * s - 5, 3 * s + 5)
        q = rng.choice((-1, 1)) * rng.randint(1, 2 * s + 3)
        # surd rescales the raw triple; the walks take the triple it returns
        x = surd(p, q, d)
        reg_char = x.cmp(1) > 0 and x.conj_cmp(-1) > 0 and x.conj_cmp(0) < 0
        neg_char = x.cmp(1) > 0 and x.conj_cmp(0) > 0 and x.conj_cmp(1) < 0
        # reduced is tested on x, not by the walk's predicate; a walk started
        # late would end the pre-period in the period's last quotient
        for kind, (pre, per), char in (
                ("regular", _period(*x, False), reg_char),
                ("negative", _period(*x, True), neg_char)):
            if (pre == ()) != char:
                yield (f"x={x}: purely periodic {kind} "
                       f"{pre == ()} but reduced is {char}")
            elif pre and pre[-1] == per[-1]:
                yield (f"x={x}: {kind} pre-period {pre} is not "
                       f"minimal before period {per}")
            else:
                yield None
    # cross-engine: the two conversion algorithms against the direct
    # expanders, on random reduced surds of either kind, 50 terms each;
    # 2a divides delta - b*b = -4ac, so the surds need no rescaling
    pool = discriminants(max(hi, 120))
    for _ in range(50):
        d = rng.choice(pool)
        f = rng.choice(enumerate_z_reduced(d))
        x = QuadraticSurd(f.b, 2 * f.a, d)
        pre, per = _period(*x, True)
        if pre:
            yield f"x={x}: negative expansion not purely periodic"
        elif neg_to_reg_stream(per, 50) != _expand(*x, 50, False):
            yield (f"x={x}: negative-to-regular stream diverges "
                   f"from the direct expansion")
        else:
            yield None
        g = rng.choice([h for h in enumerate_g_reduced(d) if h.a > 0])
        y = QuadraticSurd(g.b, 2 * g.a, d)
        bits = reg_to_denjoy(_expand(*y, 50, False))
        want = _denjoy_bits_stepwise(y.p, y.q, y.delta, 50)
        yield None if bits[:50] == want else (
            f"y={y}: regular-to-binary rewrite diverges from the direct expansion")


def _continuant_work(n):
    rng = random.Random(271828)

    def check(tag, s, got, want):
        return None if got == want else f"s={s} [{tag}]: got {got} want {want}"

    fixed = [(1,), (2,), (9,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (3, 1, 2)]
    for i in range(int(n)):
        if i < len(fixed):
            s = fixed[i]
        else:
            s = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 12)))
        l = len(s)
        k = continuant(s)
        left, right = continuant(s[:-1]), continuant(s[1:])
        inner = continuant(s[1:-1]) if l >= 2 else 0
        sign = (-1) ** l
        yield check("symmetry", s, k, continuant(s[::-1]))
        yield check("matrix", s, continuant_matrix(s), ((k, left), (right, inner)))
        yield check("det", s, k * inner - left * right, sign)
        x = rng.randint(0, 5)
        yield check("end_shift_last", s, continuant(s[:-1] + (s[-1] + x,)),
                    k + x * left)
        yield check("end_shift_first", s, continuant((s[0] + x,) + s[1:]),
                    k + x * right)
        yield check("ones_last", s, continuant(s + (1,)),
                    continuant(s[:-1] + (s[-1] + 1,)))
        yield check("ones_first", s, continuant((1,) + s),
                    continuant((s[0] + 1,) + s[1:]))
        if l >= 2:
            low_both = (s[0] - 1,) + s[1:-1] + (s[-1] - 1,)
            low_first = (s[0] - 1,) + s[1:]
            low_last = s[:-1] + (s[-1] - 1,)
            yield check("det_lowered", s,
                        k * continuant(low_both)
                        - continuant(low_first) * continuant(low_last), sign)
        yield check("zero_prepend", s, continuant((0,) + s), right)
        yield check("zero_append", s, continuant(s + (0,)), left)
    yield check("zero_single", (0,), continuant((0,)), 0)
    yield check("empty", (), continuant(()), 1)


def _tz_knead_work(n):
    rng = random.Random(31415)
    samples = []
    for l in range(2, 7):
        samples.extend(product((1, 2, 3), repeat=l))
    samples.extend(tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 12)))
                   for _ in range(int(n)))
    for s in samples:
        got, want = pinch_both(knead(pinch_both(s))), t_z(s)
        yield None if got == want else f"s={s}: pinch.knead.pinch={got} t_z={want}"
        yield None if sum(t_z(s)) == sum(s) else f"s={s}: t_z changed the bead count"


# suite id -> the units it runs at a bound
_SUITES = {
    "rotation": _per_delta(_rotation_work),
    "xi_diagram_plus": _per_delta(_xi_plus_work),
    "xi_diagram_minus": _per_delta(_xi_minus_work),
    "formfrombeads": _beads_units,
    "reductionrelation": _per_delta(_reduction_work),
    "firstcoefficient": _per_delta(_firstcoeff_work),
    "reversal": _per_delta(_reversal_work),
    "mu_fiber": _per_delta(_mu_fiber_work),
    "primitivity": _per_delta(_primitivity_work),
    "weightparity": _per_delta(_weightparity_work),
    "zcaliber": lambda _: [(_zcaliber_work, l) for l in range(1, 10)],
    "denjoy": _per_delta(_denjoy_work),
    "lgz": _lgz_units,
    "continuant_identities": lambda n: [(_continuant_work, n)],
    "tz_knead": lambda n: [(_tz_knead_work, n)],
}

SUITE_IDS = list(_SUITES)


def _work(unit):
    work, arg = unit
    items = list(work(arg))
    return len(items), [m for m in items if m is not None]


def verify(theorem_id: str, delta_max: int, jobs: int = 1) -> VerificationReport:
    """Run one suite up to its bound and report.

    delta_max is the discriminant bound for sweep suites and the sample
    count for continuant_identities and tz_knead; zcaliber's necklace
    sweep is fixed and ignores it.  jobs > 1 shards units across at most
    os.cpu_count() processes; results are merged in unit order either
    way.
    """
    if not isinstance(theorem_id, str) or theorem_id not in _SUITES:
        known = ", ".join(SUITE_IDS)
        raise ValueError(f"unknown suite {theorem_id!r}; known suites: {known}")
    bound = as_int(delta_max)
    if bound < 1:
        raise ValueError("delta_max must be at least 1")
    jobs = as_int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    units = _SUITES[theorem_id](bound)
    report = VerificationReport(theorem_id, bound)
    workers = min(jobs, len(units), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=workers) as pool:
            results = pool.map(_work, units, chunksize=8)
    else:
        results = map(_work, units)
    for cases, failures in results:
        report.merge(cases, failures)
    return report


def expand_surd_oracle(x: QuadraticSurd, kind: str, n: int):
    """Slow independent expansion of x for cross-checking the engines.

    Tracks the tail as (a*sqrt(delta) + b)/(c*sqrt(delta) + e) with integer
    coefficients and answers each floor question by refining a Fraction
    bracket around sqrt(delta) until both endpoints agree.  Shares no code
    with the (p, q) state machinery.
    """
    if kind not in ("reg", "neg", "denjoy"):
        raise ValueError(f"kind must be reg, neg or denjoy, got {kind!r}")
    x = _as_surd(x)
    if kind == "denjoy" and x.cmp(0) < 0:
        raise ValueError("binary expansion needs a positive value")
    d = x.delta
    lo, hi = Fraction(math.isqrt(d)), Fraction(math.isqrt(d) + 1)
    a, b, c, e = 1, x.p, 0, x.q

    def refine():
        nonlocal lo, hi
        mid = (lo + hi) / 2
        if mid * mid < d:
            lo = mid
        else:
            hi = mid

    def floor_of_tail():
        while True:
            dlo, dhi = c * lo + e, c * hi + e
            if dlo == 0 or dhi == 0 or (dlo < 0) != (dhi < 0):
                refine()
                continue
            f1 = math.floor((a * lo + b) / dlo)
            f2 = math.floor((a * hi + b) / dhi)
            if f1 == f2:
                return f1
            refine()

    quots, bits = [], []
    for _ in range(_term_count(n)):
        fl = floor_of_tail()
        if kind == "reg":
            quots.append(fl)
            a, b, c, e = c, e, a - fl * c, b - fl * e
        elif kind == "neg":
            quots.append(fl + 1)
            a, b, c, e = c, e, (fl + 1) * c - a, (fl + 1) * e - b
        else:
            bit = 1 if fl >= 1 else 0
            bits.append("1" if bit else "0")
            a, b, c, e = c, e, a - bit * c, b - bit * e
    return "".join(bits) if kind == "denjoy" else tuple(quots)
