"""The dictionary between reduced forms and strings.

The two collision cases at discriminant 5 are pinned on purpose: tau
sends (1, 1) and (1, 1, 1) to the same form because 5 is both 1^2 + 4
and 3^2 - 4, the unique coincidence of the two discriminant families.
The parity of the Pell solution picks the even-length expansion, so
beta returns (1, 1) and the odd string has no inverse image.
"""

import math
import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zred.contfrac import continuant, reg_cf_period
from zred.forms import Form
from zred.maps import (
    _beta,
    _denjoy_period,
    _gamma,
    _mu,
    _sigma,
    _tau,
    beta,
    denjoy_period,
    gamma,
    mu,
    sigma,
    sigma_bar,
    tau,
    xi,
)
from zred.oracle import discriminants
from zred.reduction import enumerate_g_reduced, enumerate_z_reduced, orbit_to_cycle
from zred.strings import sb, sb_inv


def test_gamma_frozen():
    assert gamma(Form(1, 3, -2)) == (3, 1, 1)
    assert gamma(Form(2, 1, -2)) == (1, 3, 1)
    assert gamma(Form(1, 1, -1)) == (1,)


def test_gamma_rejects_wrong_domain():
    with pytest.raises(ValueError):
        gamma(Form(1, 5, 2))
    with pytest.raises(ValueError):
        gamma(Form(-2, 3, 1))  # negative leading coefficient


def test_beta_frozen():
    assert beta(Form(1, 5, 2)) == (1, 3, 1, 1)
    assert beta(Form(4, 9, 4)) == (2, 1, 1, 2)
    assert beta(Form(1, 3, 1)) == (1, 1)
    with pytest.raises(ValueError):
        beta(Form(1, 3, -2))


def test_sigma_frozen_cycle():
    cycle = orbit_to_cycle(Form(1, 5, 2)).cycle
    assert [sigma(f) for f in cycle] == \
        ["10011", "11001", "00111", "01110", "11100"]


def test_mu_frozen():
    assert mu(Form(1, 3, -2)) == Form(1, 5, 2)
    assert mu(Form(-2, 3, 1)) == Form(2, 5, 1)
    with pytest.raises(ValueError):
        mu(Form(1, 5, 2))


def test_mu_is_two_to_one_onto_overlap():
    # both signs of a can land on the same form; the positive-a preimage
    # is one Gauss step ahead of the negative one
    from zred.reduction import r_g
    f_minus = Form(-2, 3, 1)
    f_plus = r_g(f_minus)
    assert f_plus == Form(2, 1, -2)
    assert mu(f_plus) == mu(f_minus) == Form(2, 5, 1)


def test_tau_frozen_and_collision():
    assert tau((1, 3, 1, 1)) == Form(2, 10, 4)
    assert tau((2, 1, 1, 2)) == Form(8, 18, 8)
    assert tau((1, 1)) == Form(1, 3, 1)
    assert tau((1, 1, 1)) == Form(1, 3, 1)  # the delta = 5 coincidence
    assert beta(tau((1, 1, 1))) == (1, 1)
    with pytest.raises(ValueError):
        tau((4,))


def test_xi_frozen():
    assert xi((3, 1, 1)) == Form(2, 6, -4)
    assert xi((1,)) == Form(1, 1, -1)
    assert xi((2,)) == Form(1, 2, -1)
    with pytest.raises(ValueError):
        xi(())


def test_xi_image_discriminants():
    for l in range(1, 6):
        for s in product((1, 2, 3, 4), repeat=l):
            d = xi(s).discriminant()
            k = math.isqrt(d - 4) if math.isqrt(d - 4) ** 2 == d - 4 else \
                math.isqrt(d + 4)
            assert d in (k * k + 4, k * k - 4), s


def test_gamma_inverts_xi_except_the_coincidence():
    for l in range(1, 6):
        for s in product((1, 2, 3, 4), repeat=l):
            if s == (1, 1):
                assert gamma(xi(s)) == (1,)
            else:
                assert gamma(xi(s)) == s, s


def test_tau_inverts_beta_on_bead_discriminants():
    ks = [k * k + 4 for k in range(1, 14)] + \
         [k * k - 4 for k in range(3, 14)]
    for d in sorted(set(ks)):
        for f in enumerate_z_reduced(d):
            assert tau(beta(f)) == f


def test_beta_inverts_tau_except_the_coincidence():
    for l in range(2, 6):
        for s in product((1, 2, 3), repeat=l):
            want = (1, 1) if s == (1, 1, 1) else s
            assert beta(tau(s)) == want, s


def test_sigma_section_except_the_coincidence():
    for n in range(1, 9):
        for bits in product("01", repeat=n):
            b = "".join(bits)
            if "1" not in b:
                continue
            want = "1" if b == "11" else b
            assert sigma(tau(sb_inv(b))) == want, b


def test_sigma_bar_constant_on_cycles():
    for delta in (17, 12, 24, 33, 40, 52, 68):
        for f in enumerate_z_reduced(delta):
            cyc = orbit_to_cycle(f).cycle
            marks = {sigma_bar(g) for g in cyc}
            assert len(marks) == 1, (delta, f)


def test_sigma_bar_separates_the_two_classes_of_even_weight():
    # delta 12: two classes whose sigma strings are rotations of each other
    forms = enumerate_z_reduced(12)
    reps = {min(orbit_to_cycle(f).cycle) for f in forms}
    if len(reps) == 2:
        a, b = sorted(reps)
        assert sigma_bar(a) != sigma_bar(b)


def test_class_invariants():
    # weight and length of sigma, the same on both forms of the class
    for f in (Form(1, 5, 2), Form(4, 9, 4)):
        s = sigma(f)
        assert (s.count("1"), len(s)) == (3, 5)


def test_denjoy_period_frozen():
    assert denjoy_period(Form(1, 5, 2)) == "1010111"
    assert denjoy_period(Form(1, 3, 1)) == "1"
    assert denjoy_period(Form(2, 6, 2)) == "111"


def test_denjoy_period_is_the_substituted_sigma():
    # the core joins the thickened blocks of beta in one pass; the reference
    # builds sigma and then thickens it, on every Zagier-reduced form with
    # delta <= 1000, scaled forms included
    scaled = 0
    for delta in discriminants(1000):
        for f in enumerate_z_reduced(delta):
            assert _denjoy_period(f) == _sigma(f).replace("0", "01"), f
            scaled += not f.is_primitive()
    assert scaled > 0


def test_string_maps_respect_scaling():
    # scaled forms read their string off the scaled automorph, which can
    # coincide with the primitive one's: (2, 10, 4) shares sigma with (1, 5, 2)
    assert sigma(Form(2, 10, 4)) == sigma(Form(1, 5, 2)) == "10011"
    assert beta(Form(2, 10, 4)) == (1, 3, 1, 1)


def test_gamma_length_parity_tracks_epsilon():
    for delta in (17, 20, 12, 24, 40, 52, 68, 73):
        for f in enumerate_g_reduced(delta):
            if f.a < 0:
                continue
            from zred.pell import fundamental_solution
            eps = fundamental_solution(delta).epsilon
            assert (len(gamma(f)) % 2 == 1) == (eps == -4), f


def test_beta_always_has_two_entries():
    for delta in (5, 8, 12, 13, 17, 20, 21, 24):
        for f in enumerate_z_reduced(delta):
            s = beta(f)
            assert len(s) >= 2
            assert sb(s) == sigma(f)


# ------------------------------------------- Dirichlet's period at large delta

def random_g_plus_forms(rng, count, lo, hi):
    """count random primitive Gauss-reduced forms with a > 0, lo <= delta < hi.

    delta is a nonsquare 0 or 1 mod 4 and b < sqrt(delta) has its parity, so
    4 divides delta - b^2 = 4m; a is a divisor of m above
    (isqrt(delta) - b) // 2, below which b > |a + c| fails for c = -m/a.
    """
    out = []
    while len(out) < count:
        d = rng.randrange(lo, hi)
        s = math.isqrt(d)
        if d % 4 > 1 or s * s == d:
            continue
        b = rng.randrange(d % 2, s + 1, 2)
        m = (d - b * b) // 4
        small = [k for k in range(1, math.isqrt(m) + 1) if m % k == 0]
        above = sorted({k for j in small for k in (j, m // j)
                        if k > (s - b) // 2})
        if not above:
            continue
        a = rng.choice(above)
        f = Form(a, b, -(m // a))
        if f.is_g_reduced() and f.is_primitive():
            out.append(f)
    return out


def test_gamma_and_beta_match_dirichlets_period_at_large_delta():
    # Dirichlet's map: for a primitive Gauss-reduced f with a > 0, the surd
    # w = (b + sqrt(delta))/(2a) is regular-reduced, so its period has no
    # pre-period and is gamma(f); the period walk shares no code with the
    # Pell unit and the Euclid expansion behind gamma.  beta(mu(f)) puts a
    # 1 in front of it (the xi+ diagram).
    rng = random.Random(20170306)
    forms = random_g_plus_forms(rng, 200, 10**6, 10**8)
    assert len(set(forms)) == 200
    for f in forms:
        g = gamma(f)
        assert reg_cf_period((f.b, 2 * f.a, f.discriminant())) == ((), g), f
        assert beta(mu(f)) == (1,) + g, f


# ------------------------------------------------- one-pass continuants

def tau_four_continuants(s):
    """tau as four continuants of the lowered strings: the slow reference."""
    t = tuple(s)
    a = continuant((t[0] - 1,) + t[1:])
    c = continuant(t[:-1] + (t[-1] - 1,))
    k = continuant(t)
    kk = continuant((t[0] - 1,) + t[1:-1] + (t[-1] - 1,))
    return Form(a, k + kk, c)


def xi_four_continuants(s):
    t = tuple(s)
    inner = continuant(t[1:-1]) if len(t) >= 2 else 0
    return Form(continuant(t[1:]), continuant(t) - inner, -continuant(t[:-1]))


entry = st.one_of(st.integers(1, 9), st.integers(1, 10**20))


@given(st.lists(entry, min_size=2, max_size=12))
def test_tau_one_pass_matches_four_continuants(s):
    assert tau(s) == tau_four_continuants(s)


@given(st.lists(entry, min_size=1, max_size=12))
def test_xi_one_pass_matches_four_continuants(s):
    assert xi(s) == xi_four_continuants(s)


def test_tau_one_pass_on_ones_and_pairs():
    # lowered ends of 1 become zero ends, where the reference leans on
    # continuant's zero-end convention
    for l in range(2, 7):
        for s in product((1, 2), repeat=l):
            assert tau(s) == tau_four_continuants(s), s


# ------------------------------------------ cores against the public maps

def test_cores_match_public_maps_on_every_reduced_form():
    # the verify suites call the cores on enumerated forms; the public maps
    # add only their checks, so both must agree on every reduced form
    for delta in discriminants(1000):
        for f in enumerate_g_reduced(delta):
            assert _mu(f) == mu(f), f
            if f.a > 0:
                assert _gamma(f) == gamma(f), f
        for f in enumerate_z_reduced(delta):
            assert _beta(f) == beta(f), f
            assert _sigma(f) == sigma(f), f
            assert _denjoy_period(f) == denjoy_period(f), f


@given(st.lists(entry, min_size=2, max_size=12).map(tuple))
def test_tau_core_matches_tau(t):
    assert _tau(t) == tau(t)


# ------------------------------------------------------- boundary checks

def test_boundary_rejects_square_discriminants():
    # (2, 5, 2) has the Zagier-reduced shape but delta = 9; (3, 4, -4) has
    # the Gauss-reduced shape but delta = 64
    for fn in (beta, sigma, denjoy_period):
        with pytest.raises(ValueError):
            fn(Form(2, 5, 2))
    for fn in (gamma, mu):
        with pytest.raises(ValueError):
            fn(Form(3, 4, -4))


def test_boundary_rejects_bad_strings():
    for s in ((0, 3), (2,), (3, 0), (), (1, -1)):
        with pytest.raises(ValueError):
            tau(s)
    with pytest.raises(ValueError):
        xi((2, 0))


def test_non_integral_input_is_rejected_not_truncated():
    with pytest.raises(ValueError):
        tau((1.5, 2.9))
    with pytest.raises(ValueError):
        xi((2.0,))
    with pytest.raises(ValueError):
        beta((1.7, 3, 1))
    with pytest.raises(ValueError):
        gamma((1, 3.0, -2))
    with pytest.raises(ValueError):
        mu((1, 3, -2.5))
    # decimal strings are the one non-int input accepted
    assert tau(("1", "3", "1", "1")) == Form(2, 10, 4)
    assert beta(("1", "5", "2")) == (1, 3, 1, 1)
