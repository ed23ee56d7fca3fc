"""Reduction steps, cycles, and the reduced-form enumerations."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from zred.contfrac import neg_cf_surd, reg_cf_surd, surd
from zred.forms import Form
from zred.maps import mu, tau
from zred.oracle import discriminants
from zred.pell import fundamental_solution
from zred.strings import is_primitive
from zred.reduction import (
    _g_step,
    _z_number,
    _z_step,
    cycles,
    enumerate_g_reduced,
    enumerate_z_reduced,
    orbit_to_cycle,
    r_g,
    r_z,
    reducing_number,
    z_caliber,
)


def brute_z(delta):
    # quadratic-time scan; independent of the kernel enumerations
    out = []
    for a in range(1, delta + 1):
        for c in range(1, delta + 1):
            t = delta + 4 * a * c
            b = math.isqrt(t)
            if b * b == t and b > a + c:
                out.append(Form(a, b, c))
    return sorted(out)


def brute_g(delta):
    out = []
    top = math.isqrt(delta)
    for b in range(1, top + 1):
        rem = delta - b * b
        if rem % 4:
            continue
        m = rem // 4
        for a in range(1, m + 1):
            if m % a:
                continue
            c = m // a
            for f in (Form(a, b, -c), Form(-a, b, c)):
                if f.b > abs(f.a + f.c):
                    out.append(f)
    return sorted(out)


def test_enumerations_match_bruteforce():
    for delta in range(5, 130):
        if delta % 4 not in (0, 1) or math.isqrt(delta) ** 2 == delta:
            continue
        assert enumerate_z_reduced(delta) == brute_z(delta), delta
        assert enumerate_g_reduced(delta) == brute_g(delta), delta


# The trial-division enumerations that the pruned kernel loops replaced,
# kept as the references they are compared against.

def z_reduced_reference(delta):
    out = []
    d = 0
    while d * d < delta:
        n = delta - d * d
        e = 1
        while e * e < n:
            if n % e == 0:
                f = n // e
                if (f - e) % 2 == 0:
                    s = (f - e) // 2  # a + c
                    b = (e + f) // 2
                    if s >= d + 2 and (s - d) % 2 == 0:
                        a = (s + d) // 2
                        c = (s - d) // 2
                        out.append(Form(a, b, c))
                        if d > 0:
                            out.append(Form(c, b, a))
            e += 1
        d += 1
    return sorted(out)


def g_reduced_reference(delta):
    out = []
    b = 1
    while b * b < delta:
        rem = delta - b * b
        if rem % 4 == 0:
            m = rem // 4  # = -a*c > 0
            a = 1
            while a * a <= m:
                if m % a == 0:
                    c = m // a
                    if b > abs(a - c):
                        out.append(Form(a, b, -c))
                        out.append(Form(-a, b, c))
                        if a != c:
                            out.append(Form(c, b, -a))
                            out.append(Form(-c, b, a))
                a += 1
        b += 1
    return sorted(out)


def nonsquare(delta):
    return math.isqrt(delta) ** 2 != delta


def test_enumerations_match_trial_division_on_every_small_delta():
    for delta in filter(nonsquare, range(5, 3001)):
        z, g = enumerate_z_reduced(delta), enumerate_g_reduced(delta)
        assert z == z_reduced_reference(delta), delta
        assert g == g_reduced_reference(delta), delta
        if delta % 4 in (2, 3):
            assert z == g == [], delta


@given(st.integers(5, 2 * 10**5).filter(nonsquare))
def test_enumerations_match_trial_division(delta):
    assert enumerate_z_reduced(delta) == z_reduced_reference(delta)
    assert enumerate_g_reduced(delta) == g_reduced_reference(delta)


@pytest.mark.parametrize("delta, nz, ng", [
    (2000057, 7154, 1304), (2000269, 7111, 1390),
    (2000293, 7101, 1386), (2000297, 7042, 1076)])
def test_enumerations_match_trial_division_near_two_million(delta, nz, ng):
    z, g = enumerate_z_reduced(delta), enumerate_g_reduced(delta)
    assert (len(z), len(g)) == (nz, ng)
    assert z == z_reduced_reference(delta)
    assert g == g_reduced_reference(delta)


def test_enumerations_empty_off_the_form_residues():
    assert enumerate_z_reduced(7) == []
    assert enumerate_g_reduced(11) == []


def test_enumeration_validation():
    for bad in (0, -4, 9, 16):
        with pytest.raises(ValueError):
            enumerate_z_reduced(bad)
        with pytest.raises(ValueError):
            enumerate_g_reduced(bad)


def test_reducing_numbers_around_the_17_cycle():
    forms = [Form(1, 5, 2), Form(2, 5, 1), Form(4, 7, 2), Form(4, 9, 4),
             Form(2, 7, 4)]
    assert [reducing_number(f) for f in forms] == [5, 3, 2, 2, 3]


def test_zagier_cycle_of_17():
    res = orbit_to_cycle(Form(1, 5, 2))
    assert res.pre_period == ()
    assert res.cycle == (Form(1, 5, 2), Form(2, 5, 1), Form(4, 7, 2),
                         Form(4, 9, 4), Form(2, 7, 4))
    assert z_caliber(Form(1, 5, 2)) == 5
    assert z_caliber(Form(4, 9, 4)) == 5


def test_unreduced_start_reaches_the_cycle():
    res = orbit_to_cycle(Form(1, 1, -9))  # discriminant 37
    assert res.pre_period
    assert not res.pre_period[0].is_z_reduced()
    assert all(f.is_z_reduced() for f in res.cycle)


def test_gauss_step_flips_sign_and_cycles():
    f = Form(1, 3, -2)
    assert r_g(f) == Form(-2, 3, 1)
    res = orbit_to_cycle(f, "g")
    assert res.pre_period == ()
    assert len(res.cycle) == 6
    assert set(res.cycle) == set(enumerate_g_reduced(17))
    signs = [g.a > 0 for g in res.cycle]
    assert signs == [True, False] * 3


def test_gauss_step_requires_reduced():
    with pytest.raises(ValueError):
        r_g(Form(1, 5, 2))


def test_square_discriminants_rejected():
    with pytest.raises(ValueError):
        reducing_number(Form(1, 3, 2))
    with pytest.raises(ValueError):
        orbit_to_cycle(Form(1, 3, 2))
    with pytest.raises(ValueError):
        orbit_to_cycle(Form(1, 5, 2), "q")


def test_cycles_partition_the_reduced_forms():
    for delta in (17, 20, 32, 40, 68, 145):
        for op in ("z", "g"):
            cyc = cycles(delta, op)
            members = [f for c in cyc for f in c]
            pool = (enumerate_z_reduced if op == "z" else
                    enumerate_g_reduced)(delta)
            assert sorted(members) == pool
            assert len(members) == len(set(members))
            step = r_z if op == "z" else r_g
            for c in cyc:
                assert c[0] == min(c)
                for i, f in enumerate(c):
                    assert step(f) == c[(i + 1) % len(c)]
    assert [c[0] for c in cycles(17)] == [Form(1, 5, 2)]


small = st.integers(-9, 9)


@given(small, small, small)
def test_zagier_orbit_always_lands_reduced(a, b, c):
    f = Form(a, b, c)
    if not f.is_indefinite():
        return
    res = orbit_to_cycle(f)
    assert res.cycle
    assert all(g.is_z_reduced() for g in res.cycle)
    assert all(g.discriminant() == f.discriminant()
               for g in res.pre_period + res.cycle)


@given(small, small, small)
def test_reducing_number_at_least_two_on_reduced(a, b, c):
    f = Form(a, b, c)
    if not (f.is_indefinite() and f.is_z_reduced()):
        return
    assert reducing_number(f) >= 2


# ------------------------------------- lean steps against the surd engine

def r_z_reference(f):
    """The Zagier step with its multiplier taken from the surd engine."""
    a, b, c = f
    (n,) = neg_cf_surd(surd(b, 2 * a, f.discriminant()), 1)
    return Form(a * n * n - b * n + c, 2 * a * n - b, a)


def r_g_reference(f):
    a, b, c = f
    (m,) = reg_cf_surd(surd(b, 2 * abs(a), f.discriminant()), 1)
    n = m if a > 0 else -m
    return Form(a * n * n - b * n + c, 2 * a * n - b, a)


coefficient = st.one_of(st.integers(-50, 50),
                        st.integers(-10**40, 10**40),
                        st.integers(10**30, 10**32).map(lambda x: -x),
                        st.integers(10**30, 10**32))
indefinite = st.builds(Form, coefficient, coefficient, coefficient).filter(
    lambda f: f.is_indefinite())


@given(indefinite)
def test_r_z_matches_surd_reference(f):
    assert r_z(f) == r_z_reference(f)
    x = surd(f.b, 2 * f.a, f.discriminant())
    assert (reducing_number(f),) == neg_cf_surd(x, 1)


def test_r_z_reference_sees_both_signs_and_big_coefficients():
    for f in (Form(-3, 1, 7), Form(-(10**31), 3, 10**31 + 1),
              Form(10**35 + 1, -(10**36), -7), Form(2, -(10**31), 5)):
        assert f.is_indefinite()
        assert r_z(f) == r_z_reference(f)


magnitude = st.one_of(st.integers(1, 50), st.integers(10**30, 10**40))


@st.composite
def g_reduced(draw):
    a, c = draw(magnitude), -draw(magnitude)
    if draw(st.booleans()):
        a, c = -a, -c
    f = Form(a, abs(a + c) + draw(magnitude), c)
    assume(f.is_indefinite())
    return f


@given(g_reduced())
def test_r_g_matches_surd_reference(f):
    assert r_g(f) == r_g_reference(f)


def walk_reference(f, op):
    """orbit_to_cycle rebuilt on the public steps."""
    step = r_z if op == "z" else r_g
    seen, seq = {}, []
    while f not in seen:
        seen[f] = len(seq)
        seq.append(f)
        f = step(f)
    i = seen[f]
    return tuple(seq[:i]), tuple(seq[i:])


walk_coefficient = st.integers(-300, 300)


@given(st.builds(Form, walk_coefficient, walk_coefficient, walk_coefficient)
       .filter(lambda f: f.is_indefinite()))
def test_orbit_to_cycle_matches_public_walk(f):
    assert tuple(orbit_to_cycle(f)) == walk_reference(f, "z")
    if f.is_g_reduced():
        assert tuple(orbit_to_cycle(f, "g")) == walk_reference(f, "g")


def cycles_reference(delta, op):
    """Every op-reduced form enumerated, then each new one's cycle walked."""
    pool = enumerate_z_reduced(delta) if op == "z" else enumerate_g_reduced(delta)
    out, seen = [], set()
    for f in pool:
        if f not in seen:
            cyc = walk_reference(f, op)[1]
            cyc = min(cyc[i:] + cyc[:i] for i in range(len(cyc)))
            seen.update(cyc)
            out.append(cyc)
    return sorted(out)


def test_cycles_match_public_walk():
    # the Zagier cycles are seeded through mu, not from the enumeration
    for delta in range(2, 3001):
        if math.isqrt(delta) ** 2 != delta:
            for op in ("z", "g"):
                assert cycles(delta, op) == cycles_reference(delta, op), (delta, op)


# delta -> (Zagier-reduced forms, Zagier cycles) at the long-cycle
# benchmark's discriminants
LONG_CYCLE_PINS = {
    2000057: (7154, 2),
    2000269: (7111, 1),
    2000293: (7101, 1),
    2000297: (7042, 4),
}


def test_cycles_on_long_zagier_cycles():
    for delta, want in LONG_CYCLE_PINS.items():
        cyc = cycles(delta)
        assert (sum(map(len, cyc)), len(cyc)) == want, delta
        assert cyc == cycles_reference(delta, "z"), delta


def check_mu_refines_gauss_cycles(delta):
    # Zagier reduction refines Gauss reduction, cycle by cycle: mu sends the
    # a > 0 members of each Gauss cycle into one Zagier cycle, in their
    # cyclic order, one to one from the Gauss cycles of delta onto its
    # Zagier cycles.
    zcyc = cycles(delta, "z")
    where = {f: (k, i) for k, c in enumerate(zcyc) for i, f in enumerate(c)}
    assert len(where) == sum(map(len, zcyc)), delta
    hit = []
    for gc in cycles(delta, "g"):
        spots = [where.get(mu(f)) for f in gc if f.a > 0]
        assert None not in spots, (delta, gc)
        (k,) = {k for k, _ in spots}
        # in cyclic order: the positions descend once, at the wrap-around
        pos = [i for _, i in spots]
        assert sum(pos[j - 1] >= pos[j] for j in range(len(pos))) == 1, (delta, gc)
        hit.append(k)
    assert sorted(hit) == list(range(len(zcyc))), delta


def test_mu_refines_gauss_cycles():
    # every delta with forms up to 3000, scaled forms included
    for delta in discriminants(3000):
        check_mu_refines_gauss_cycles(delta)


# ------------------------------------- class numbers (Dirichlet's formula)

def kronecker(d, n):
    """Kronecker symbol (d/n) for n >= 1: (d/2) from d mod 8 for each
    factor 2 of n, then the Jacobi symbol by reciprocity."""
    k = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            k = -k
    d %= n
    while d:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                k = -k
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            k = -k
        d %= n
    return k if n == 1 else 0


def fundamental_part(delta):
    """(delta0, f) with delta = delta0 * f^2 and delta0 fundamental."""
    core, g, p = delta, 1, 2
    while p * p <= core:
        while core % (p * p) == 0:
            core //= p * p
            g *= p
        p += 1
    # core is delta's squarefree part; delta = 0 mod 4 when core is not 1 mod 4
    return (core, g) if core % 4 == 1 else (4 * core, g // 2)


def narrow_class_number(delta):
    """h+(delta) as a float, from Dirichlet's class number formula.

    h+ log(eps+) = sqrt(delta) L(1, chi_delta), with eps+ = (t + u sqrt(delta))/2
    the least unit of norm +1 and chi_delta the Kronecker symbol (delta/.).
    For delta = delta0 f^2, L(1, chi_delta) = L(1, chi_delta0) times the
    product over primes p | f of 1 - chi_delta0(p)/p, and L(1, chi_delta0) =
    -delta0^(-1/2) sum over 0 < a < delta0 of chi_delta0(a) log sin(pi a/delta0)
    (H. Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    5.6).  chi_delta0 is even, so the sum runs over half the range, twice.
    """
    d0, f = fundamental_part(delta)
    total = 2 * sum(kronecker(d0, a) * math.log(math.sin(math.pi * a / d0))
                    for a in range(1, (d0 + 1) // 2))
    euler, m, p = 1.0, f, 2
    while m > 1:  # over the primes p | f, by trial division
        if m % p == 0:
            euler *= 1 - kronecker(d0, p) / p
            while m % p == 0:
                m //= p
        p += 1
    t, u, eps = fundamental_solution(delta)
    # log((t + u sqrt(delta))/2), where u sqrt(delta) = sqrt(t^2 - eps);
    # a unit of norm -1 squares to eps+
    log_unit = math.log(t) + math.log((1 + math.sqrt(1 - eps / t**2)) / 2)
    if eps == -4:
        log_unit *= 2
    # sqrt(delta) = f sqrt(delta0), which cancels L's delta0^(-1/2)
    return -f * total * euler / log_unit


def check_cycles_count_classes(delta):
    # one cycle per proper class in both theories, so the primitive cycles
    # of each number h+(delta); a wrong unit must not round onto the count
    h = narrow_class_number(delta)
    assert abs(h - round(h)) < 1e-6, (delta, h)
    for op in ("g", "z"):
        count = sum(c[0].is_primitive() for c in cycles(delta, op))
        assert count == round(h), (delta, op, count, h)


def test_cycles_count_narrow_classes():
    # every delta with forms up to 3000, non-fundamental ones included
    for delta in discriminants(3000):
        check_cycles_count_classes(delta)


def test_cores_match_public_steps_on_every_reduced_form():
    # the verify suites take s = isqrt(delta) once and call the cores
    for delta in discriminants(1000):
        s = math.isqrt(delta)
        for f in enumerate_z_reduced(delta):
            assert _z_step(f, s) == r_z(f), f
            assert _z_number(f.a, f.b, s) == reducing_number(f), f
        for f in enumerate_g_reduced(delta):
            assert _g_step(f, s) == r_g(f), f
            assert _z_number(f.a, f.b, s) == reducing_number(f), f


def test_caliber_rule_matches_the_walk_on_every_reduced_form():
    # the caliber comes from one regular period of (b + sqrt(delta)) / (2a);
    # orbit_to_cycle walks the Zagier cycle itself.  rho gives a < 0, and
    # the enumerations include the scaled forms.
    for delta in discriminants(600):
        for f in enumerate_z_reduced(delta) + enumerate_g_reduced(delta):
            for g in (f, f.rho()):
                assert z_caliber(g) == len(orbit_to_cycle(g).cycle), g


@given(st.builds(Form, walk_coefficient, walk_coefficient, walk_coefficient)
       .filter(lambda f: f.is_indefinite()))
def test_caliber_rule_matches_the_walk(f):
    assert z_caliber(f) == len(orbit_to_cycle(f).cycle)


def test_caliber_of_long_cycles_without_walking_them():
    # a cycle of 2,000,001 forms, which a walk takes seconds to store
    assert z_caliber(Form(1, 1, -10**12)) == 2000001
    # four beads with a primitive bar string: one Zagier cycle of
    # total - 1 forms
    s = (1, 2, 3, 19994)
    assert is_primitive("".join("0" * (q - 1) + "1" for q in s)[:-1])
    assert z_caliber(tau(s)) == sum(s) - 1


def test_boundary_checks_square_discriminants():
    square = Form(1, 3, 2)  # delta = 1
    for fn in (r_z, r_g, reducing_number, orbit_to_cycle, z_caliber):
        with pytest.raises(ValueError):
            fn(square)
    with pytest.raises(ValueError):
        orbit_to_cycle(Form(3, 4, -4), "g")  # Gauss-reduced shape, delta = 64
    with pytest.raises(ValueError):
        orbit_to_cycle(Form(1, 5, 2), "g")  # not Gauss-reduced
    with pytest.raises(ValueError):
        cycles(9)
    with pytest.raises(ValueError):
        cycles(17, "q")
    with pytest.raises(ValueError):
        r_z((1.5, 5, 2))
    assert r_z(("1", "5", "2")) == Form(2, 5, 1)
