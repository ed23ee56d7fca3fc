"""The dictionary between reduced forms, bead strings, and necklaces.

gamma and beta read a form's bead string off the fundamental automorph:
with (t, u) the fundamental solution of |t^2 - delta u^2| = 4 and
2z = t + b u, the string is the continued fraction of z/(a u) for a
Gauss-reduced form with a > 0, and of z/(z - a u) for a Zagier-reduced
form.  The expansion length parity is pinned by the sign of t^2 -
delta u^2, which makes both maps single-valued.

tau and xi go back from strings to forms through continuants, and mu
carries Gauss-reduced forms onto Zagier-reduced ones.
"""

from __future__ import annotations

from .contfrac import _cf_parity, _continuants
from .forms import Form, as_form, nonsquare_isqrt
from .pell import _fundamental_solution
from .strings import Necklace, _alternating_necklace, _least_start, _sb, check_nat

# Public maps check their input once; the cores (_automorph_z, _gamma, _beta,
# _sigma, _mu, _denjoy_period) take a checked Form and _tau a checked tuple,
# and sigma_bar runs the necklace cores on the sigma it has built.
# A square discriminant passes the reducedness checks (beta of (2, 5, 2) has
# delta = 9); _fundamental_solution's nonsquare_isqrt rejects it, and mu,
# which needs no Pell unit, checks it itself.


def _automorph_z(f: Form) -> tuple:
    a, b, c = f
    t, u, eps = _fundamental_solution(b * b - 4 * a * c)
    num = t + b * u
    assert num % 2 == 0, "t and b*u must share parity on one discriminant"
    return num // 2, u, eps


def _z_reduced(f: Form, what: str) -> Form:
    f = as_form(f)
    if not f.is_z_reduced():
        raise ValueError(f"{what} needs a Zagier-reduced form, got {f}")
    return f


def _gamma(f: Form) -> tuple:
    z, u, eps = _automorph_z(f)
    return _cf_parity(z, f.a * u, eps == -4)


def gamma(f: Form) -> tuple:
    """Bead string of a Gauss-reduced form with a > 0.

    The result determines f up to the choice cut of its cycle; its length
    parity is odd exactly when t^2 - delta u^2 = -4.
    """
    f = as_form(f)
    if not f.is_g_reduced() or f.a < 0:
        raise ValueError(f"gamma needs a Gauss-reduced form with a > 0, got {f}")
    return _gamma(f)


def _beta(f: Form) -> tuple:
    z, u, eps = _automorph_z(f)
    den = z - f.a * u
    assert den > 0, "z exceeds a*u on Zagier-reduced forms"
    s = _cf_parity(z, den, eps != -4)
    assert len(s) >= 2, f"bead string of {f} collapsed to one entry"
    return s


def beta(f: Form) -> tuple:
    """Bead string of a Zagier-reduced form.

    Expansion of z/(z - a u), with parity even exactly when
    t^2 - delta u^2 = -4.  Always at least two beads.
    """
    return _beta(_z_reduced(f, "beta"))


def _sigma(f: Form) -> str:
    return _sb(_beta(f))


def sigma(f: Form) -> str:
    """Binary string of a Zagier-reduced form: stars and bars on beta."""
    return _sigma(_z_reduced(f, "sigma"))


def sigma_bar(f: Form):
    """Class invariant: the necklace of sigma, with alternating bar colors
    remembered when the weight is even (odd weight identifies the colors)."""
    s = _sigma(_z_reduced(f, "sigma_bar"))
    if s.count("1") % 2 == 1:
        r = _least_start(s)[0]
        return Necklace(s[r:] + s[:r])
    return _alternating_necklace(s, s.index("1"))


def _mu(f: Form) -> Form:
    if f.a > 0:
        g = Form(f.a, 2 * f.a + f.b, f.a + f.b + f.c)
    else:
        g = Form(f.a + f.b + f.c, f.b + 2 * f.c, f.c)
    assert g.is_z_reduced(), f"mu left the Zagier-reduced set at {f}"
    return g


def mu(f: Form) -> Form:
    """Zagier-reduced companion of a Gauss-reduced form.

    Shifts by the substitution x -> x + y on positive a, x -> y, y -> x + y
    mirrored on negative a; two-to-one onto its image overall but injective
    on each sign of a.
    """
    f = as_form(f)
    if not f.is_g_reduced():
        raise ValueError(f"mu needs a Gauss-reduced form, got {f}")
    nonsquare_isqrt(f.discriminant())
    return _mu(f)


def _tau(t: tuple) -> Form:
    k, k_left, k_right, k_inner = _continuants(t)
    a = k - k_right
    c = k - k_left
    kk = k - k_left - k_right + k_inner
    b = k + kk
    # the checks of Form.discriminant and Form.is_z_reduced, on the ints
    assert b * b - 4 * a * c == (k - kk) ** 2 + (4 if len(t) % 2 == 0 else -4)
    assert a > 0 and c > 0 and b > a + c, f"tau left the Zagier-reduced set at {t}"
    return tuple.__new__(Form, (a, b, c))


def tau(s) -> Form:
    """Form of a bead string (two or more beads), inverse to beta on the
    discriminants k*k + 4 and k*k - 4 with one exception: 5 is of both
    shapes, tau((1, 1)) = tau((1, 1, 1)) = (1, 3, 1), and beta returns
    (1, 1) there, so (1, 1, 1) is not beta of any form.

    Built from continuants of the string with an end lowered: the middle
    coefficient adds the untouched and the doubly lowered versions.  The
    entries are checked once (positive integers, at least two; ValueError
    otherwise), then one pass of the continuant-matrix product gives K(t),
    K(t[:-1]), K(t[1:]) and K(t[1:-1]); lowering the first entry by one
    subtracts K(t[1:]), lowering the last subtracts K(t[:-1]).
    """
    return _tau(check_nat(s, min_len=2))


def xi(s) -> Form:
    """Gauss-reduced form with a > 0 attached to a nonempty string.

    Companion of tau through the mu diagrams; discriminant
    (K + K_inner)^2 -+ 4 by the continuant determinant identity.
    """
    t = check_nat(s, min_len=1)
    k, k_left, k_right, inner = _continuants(t)
    g = Form(k_right, k - inner, -k_left)
    assert g.discriminant() == (k + inner) ** 2 + (4 if len(t) % 2 == 1 else -4)
    assert g.is_g_reduced() and g.a > 0, f"xi left the Gauss-reduced set at {t}"
    return g


def _denjoy_period(f: Form) -> str:
    # _sigma(f) with every 0 thickened to 01, built in one join
    return "1".join(["01" * (q - 1) for q in _beta(f)])


def denjoy_period(f: Form) -> str:
    """Binary expansion period of (b - 2a + sqrt(delta)) / (2a).

    Reads sigma with every 0 thickened to 01; primitive for primitive f.
    On a scaled form m*g the surd is g's but the Pell unit is the k-th
    power of g's unit, the first whose u is divisible by m, so the result
    is g's period repeated k times.
    """
    return _denjoy_period(_z_reduced(f, "denjoy_period"))
