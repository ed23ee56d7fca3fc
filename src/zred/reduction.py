"""Reduction operators on indefinite forms and cycle structure.

Both theories send (a, b, c) to (a n^2 - b n + c, 2 a n - b, a) and
differ only in the multiplier n: the Zagier step takes the ceiling of
(b + sqrt(delta)) / (2a) and keeps a > 0 throughout, the Gauss step on
reduced forms takes the sign-matched floor and flips sign(a) each time.
Each step is the right action of a determinant-1 substitution, so classes
are preserved.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernel
from .forms import Form, as_int, check_delta, form, nonsquare_isqrt


class OrbitResult(NamedTuple):
    pre_period: tuple
    cycle: tuple


# Public functions check their input once; the cores below take a checked
# Form and s = isqrt(delta) of its discriminant, which a walk computes once.

def _z_number(a: int, b: int, s: int) -> int:
    # ceil((b + sqrt(delta)) / (2a)) = floor + 1 for a != 0, the value being
    # irrational; the floor of (b + sqrt(delta)) / q is (b + s) // q for q > 0
    # and -((b + s) // -q) - 1 for q < 0
    return (b + s) // (2 * a) + 1 if a > 0 else -((b + s) // (-2 * a))


def _z_step(f: Form, s: int) -> Form:
    a, b, c = f
    n = _z_number(a, b, s)
    return Form(a * n * n - b * n + c, 2 * a * n - b, a)


def _g_step(f: Form, s: int) -> Form:
    a, b, c = f
    m = (b + s) // (2 * abs(a))
    n = m if a > 0 else -m
    g = Form(a * n * n - b * n + c, 2 * a * n - b, a)
    assert g.is_g_reduced(), f"Gauss step left the reduced set at {f}"
    return g


def _checked(f: Form) -> tuple:
    """f as a Form with s = isqrt of its discriminant, a positive nonsquare."""
    f = form(*f)
    return f, nonsquare_isqrt(f.discriminant())


def _check_g_reduced(f: Form, what: str) -> None:
    if not f.is_g_reduced():
        raise ValueError(f"{what} needs a Gauss-reduced form, got {f}")


def _check_op(op: str) -> None:
    if op not in ("z", "g"):
        raise ValueError(f"op must be 'z' or 'g', got {op!r}")


def reducing_number(f: Form) -> int:
    """ceil((b + sqrt(delta)) / (2a)); the multiplier used by r_z."""
    f, s = _checked(f)
    return _z_number(f.a, f.b, s)


def r_z(f: Form) -> Form:
    """One Zagier reduction step.

    Sends (a, b, c) to (a n^2 - b n + c, 2 a n - b, a) with n the reducing
    number; lands on a Zagier-reduced form after finitely many steps and
    permutes them.  The discriminant must be a positive nonsquare
    (ValueError otherwise); n comes from one isqrt of it.
    """
    return _z_step(*_checked(f))


def r_g(f: Form) -> Form:
    """One Gauss reduction step on a Gauss-reduced form.

    The multiplier is sign-matched to a with magnitude
    floor((b + sqrt(delta)) / (2|a|)), so the leading coefficient flips
    sign every step.
    """
    f, s = _checked(f)
    _check_g_reduced(f, "r_g")
    return _g_step(f, s)


def _cycle_from(f: Form, step, s: int) -> list:
    """The forms from f until step brings the walk back to f."""
    cyc = [f]
    g = step(f, s)
    while g != f:
        cyc.append(g)
        g = step(g, s)
    return cyc


def orbit_to_cycle(f: Form, op: str = "z") -> OrbitResult:
    """Iterate a reduction step until a state repeats.

    Returns the pre-period and the cycle; r_z reaches a cycle of reduced
    forms from any indefinite form, r_g requires a reduced start.  Both
    steps permute the reduced forms of a discriminant, so the first
    reduced form of the orbit starts the cycle and the walk stores only
    the forms it returns.
    """
    f, s = _checked(f)
    _check_op(op)
    pre = []
    if op == "z":
        while not f.is_z_reduced():
            pre.append(f)
            f = _z_step(f, s)
        cycle = _cycle_from(f, _z_step, s)
        assert all(h.is_z_reduced() for h in cycle)
    else:
        _check_g_reduced(f, "r_g")
        cycle = _cycle_from(f, _g_step, s)
    return OrbitResult(tuple(pre), tuple(cycle))


def enumerate_z_reduced(delta: int) -> list:
    """All Zagier-reduced forms of discriminant delta, sorted.

    Empty for delta = 2, 3 mod 4, where no integral form exists.
    """
    return [Form(*t) for t in kernel.z_reduced_forms(check_delta(delta))]


def enumerate_g_reduced(delta: int) -> list:
    """All Gauss-reduced forms of discriminant delta, both signs of a."""
    return [Form(*t) for t in kernel.g_reduced_forms(check_delta(delta))]


def cycles(delta: int, op: str = "z") -> list:
    """The reduction cycles on the reduced forms of discriminant delta.

    Each cycle is a tuple starting from its least member; the list is
    ordered by those representatives.
    """
    _check_op(op)
    d = as_int(delta)
    s = nonsquare_isqrt(d)
    if op == "z":
        reduced, step = kernel.z_reduced_forms(d), _z_step
    else:
        reduced, step = kernel.g_reduced_forms(d), _g_step
    seen = set()
    out = []
    for f in map(Form._make, reduced):
        if f in seen:
            continue
        cyc = _cycle_from(f, step, s)
        i = cyc.index(min(cyc))
        cyc = cyc[i:] + cyc[:i]
        seen.update(cyc)
        out.append(tuple(cyc))
    out.sort(key=lambda c: c[0])
    return out


def z_caliber(f: Form) -> int:
    """Length of the Zagier cycle attached to f's class."""
    return len(orbit_to_cycle(f, "z").cycle)
