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
from .contfrac import _period
from .forms import Form, as_form, as_int, check_delta, nonsquare_isqrt
from .maps import _mu


class OrbitResult(NamedTuple):
    pre_period: tuple
    cycle: tuple


# Public functions check their input once; the cores below take a checked
# Form and s = isqrt(delta) of its discriminant, which a walk computes once.

def _z_number(a: int, b: int, s: int) -> int:
    # ceil((b + sqrt(delta)) / (2a)) = floor + 1 for a != 0, the value being
    # irrational; the floor of (b + sqrt(delta)) / q is (b + s) // q for q > 0
    # and -((b + s) // -q) - 1 for q < 0.  The Gauss multiplier rounds the
    # same value toward zero, the floor for a > 0 and the ceiling for a < 0,
    # so it is this number minus one for a > 0 and this number for a < 0.
    return (b + s) // (2 * a) + 1 if a > 0 else -((b + s) // (-2 * a))


def _z_step(f: Form, s: int) -> Form:
    a, b, c = f
    n = _z_number(a, b, s)
    return Form(a * n * n - b * n + c, 2 * a * n - b, a)


def _g_step(f: Form, s: int) -> Form:
    a, b, c = f
    n = _z_number(a, b, s) - (a > 0)
    g = Form(a * n * n - b * n + c, 2 * a * n - b, a)
    assert g.is_g_reduced(), f"Gauss step left the reduced set at {f}"
    return g


def _checked(f: Form) -> tuple:
    """f as a Form with s = isqrt of its discriminant, a positive nonsquare."""
    f = as_form(f)
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


def _cycle_from(f: Form, s: int, op: str) -> list:
    """The forms of op's cycle through f, which must be op-reduced.

    Steps (a, b, c) as plain ints with op's multiplier and builds each Form
    once, checking it reduced as it is made; the walk ends when the step
    brings back f.  On the Zagier cycle a > 0, so its multiplier is the
    floor of (b + s) / (2a) plus one.
    """
    a, b, c = f
    a0, b0 = a, b
    z = op == "z"
    new = tuple.__new__
    cyc = [f]
    while True:
        if z:
            n = (b + s) // (2 * a) + 1
        else:
            n = (b + s) // (2 * a) if a > 0 else -((b + s) // (-2 * a))
        a, b, c = a * n * n - b * n + c, 2 * a * n - b, a
        if a == a0 and b == b0:  # c follows from a, b and delta
            return cyc
        assert ((a > 0 and c > 0 and b > a + c) if z
                else (a * c < 0 and b > abs(a + c))), \
            f"{'Zagier' if z else 'Gauss'} step left the reduced set at {cyc[-1]}"
        cyc.append(new(Form, (a, b, c)))


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
    else:
        _check_g_reduced(f, "r_g")
    return OrbitResult(tuple(pre), tuple(_cycle_from(f, s, op)))


def enumerate_z_reduced(delta: int) -> list:
    """All Zagier-reduced forms of discriminant delta, sorted.

    Empty for delta = 2, 3 mod 4, where no integral form exists.
    """
    return kernel.z_reduced_forms(check_delta(delta))


def enumerate_g_reduced(delta: int) -> list:
    """All Gauss-reduced forms of discriminant delta, both signs of a."""
    return kernel.g_reduced_forms(check_delta(delta))


def cycles(delta: int, op: str = "z") -> list:
    """The reduction cycles on the reduced forms of discriminant delta.

    Each cycle is a tuple starting from its least member; the list is
    ordered by those representatives.

    The Gauss cycles are walked from the sorted Gauss-reduced forms.  The
    Zagier cycles are seeded through mu from the Gauss-reduced forms with
    a > 0, with no scan of the Zagier-reduced forms.  mu keeps their
    order, since it sends (a, b) to (a, 2a + b), and its image is the
    Zagier-reduced forms whose reducing number n is at least 3.  The least
    member (a, b, c) of a Zagier cycle is one of them: its predecessor has
    leading coefficient c >= a, so b > a + c gives the successor's
    4a - 2b + c < a if n were 2.  So every Zagier cycle is reached, and
    first at its least member.
    """
    _check_op(op)
    d = as_int(delta)
    s = nonsquare_isqrt(d)
    seeds = kernel.g_reduced_forms(d)
    if op == "z":
        seeds = (_mu(f) for f in seeds if f.a > 0)
    seen = set()
    out = []
    # the seeds are sorted and hold each cycle's least member, so the first
    # seed of a cycle not yet seen is its least member, and the cycles come
    # out ordered by it
    for f in seeds:
        if f in seen:
            continue
        cyc = _cycle_from(f, s, op)
        seen.update(cyc)
        out.append(tuple(cyc))
    return out


def z_caliber(f: Form) -> int:
    """Length of the Zagier cycle attached to f's class.

    The rule: expand w = (b + sqrt(delta)) / (2a) as a regular continued
    fraction [a0; a1, a2, ...] and take one period of it.  The caliber is
    the sum of the period's quotients at odd positions when the period
    length is even, and the sum of all its quotients when it is odd.

    Why it holds: r_z sends w to 1/(n - w), so f's Zagier orbit is the
    tail sequence of the negative continued fraction of w, and the caliber
    is that expansion's period length.  The negative expansion of
    [a0; a1, a2, ...] is a0 + 1 and then, for each pair (a_2k-1, a_2k),
    a_2k-1 - 1 twos and a_2k + 2 (the rule of neg_to_reg_stream, read
    backwards).  So each regular quotient at an odd position unfolds into
    that many Zagier steps.  An odd-length regular period comes back with
    its positions swapped, so the Zagier period spans it twice.

    Cost: the regular pre-period plus one period of steps on the state
    (p, q) = (b, 2a), where q already divides delta - p^2 = -4ac, holding
    that one period; no Zagier walk.
    """
    f, _ = _checked(f)
    pre, per = _period(f.b, 2 * f.a, f.discriminant(), False)
    # odd positions count from a0, so in per they start at index 1 - len(pre)
    return sum(per) if len(per) % 2 else sum(per[(1 - len(pre)) % 2::2])
