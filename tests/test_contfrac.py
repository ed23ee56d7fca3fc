"""Continuants, parity-pinned expansions, and the surd engines."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zred import contfrac
from zred.contfrac import (
    QuadraticSurd,
    _cf_parity,
    cf_expand,
    continuant,
    continuant_matrix,
    denjoy_surd,
    is_purely_periodic_neg,
    is_purely_periodic_reg,
    neg_cf_period,
    neg_cf_surd,
    neg_to_reg_stream,
    reg_cf_period,
    reg_cf_surd,
    reg_to_denjoy,
    surd,
)
from zred.kernel import euclid_quotients
from zred.oracle import expand_surd_oracle

nat = st.lists(st.integers(1, 9), min_size=1, max_size=10).map(tuple)

nonsquare = st.integers(2, 4000).filter(lambda d: math.isqrt(d) ** 2 != d)


@st.composite
def surds(draw, positive=False):
    d = draw(nonsquare)
    s = math.isqrt(d)
    q = draw(st.integers(1, 2 * s + 2)) * draw(st.sampled_from((-1, 1)))
    if positive:
        # p + sqrt(d) > 0 over q > 0: any p > -sqrt(d)
        q = abs(q)
        p = draw(st.integers(-s, 3 * s + 4))
    else:
        p = draw(st.integers(-3 * s - 4, 3 * s + 4))
    return surd(p, q, d)


def bracket_floor(x: QuadraticSurd) -> int:
    """Interval-arithmetic floor used only as a reference here."""
    lo, hi = Fraction(math.isqrt(x.delta)), Fraction(math.isqrt(x.delta) + 1)
    while True:
        flo = math.floor((x.p + lo) / x.q)
        fhi = math.floor((x.p + hi) / x.q)
        if flo == fhi:
            return flo
        mid = (lo + hi) / 2
        if mid * mid < x.delta:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------- continuants

def test_continuant_small_table():
    assert continuant(()) == 1
    assert continuant((0,)) == 0
    assert continuant((7,)) == 7
    assert continuant((2, 3)) == 7
    assert continuant((1, 1, 1)) == 3
    assert continuant((1, 3, 1, 1)) == 9


def test_continuant_zero_end_conventions():
    assert continuant((0, 4, 2)) == continuant((2,))
    assert continuant((4, 2, 0)) == continuant((4,))
    assert continuant((0, 5)) == 1
    assert continuant((5, 0)) == 1
    assert continuant((0, 0)) == 1
    with pytest.raises(ValueError):
        continuant((1, 0, 1))
    with pytest.raises(ValueError):
        continuant((2, -1))


@given(nat)
def test_continuant_symmetry_and_recurrence(s):
    assert continuant(s) == continuant(s[::-1])
    if len(s) >= 2:
        assert continuant(s) == s[-1] * continuant(s[:-1]) + continuant(s[:-2])


@given(nat)
def test_continuant_matrix_entries(s):
    m = continuant_matrix(s)
    inner = continuant(s[1:-1]) if len(s) >= 2 else 0
    assert m == ((continuant(s), continuant(s[:-1])),
                 (continuant(s[1:]), inner))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det == (-1) ** len(s)


def test_continuant_matrix_is_generator_product():
    s = (2, 1, 4)
    prod = ((1, 0), (0, 1))
    for q in s:
        prod = ((q * prod[0][0] + prod[0][1], prod[0][0]),
                (q * prod[1][0] + prod[1][1], prod[1][0]))
    assert continuant_matrix(s) == prod


# ----------------------------------------------------------------- cf_expand

def test_cf_expand_parity_switch():
    assert cf_expand(9, 7, "odd") == (1, 3, 2)
    assert cf_expand(9, 7, "even") == (1, 3, 1, 1)
    assert cf_expand(7, 2, "even") == (3, 2)
    assert cf_expand(7, 2, "odd") == (3, 1, 1)
    assert cf_expand(1, 1, "odd") == (1,)


def test_cf_expand_validation():
    with pytest.raises(ValueError):
        cf_expand(1, 1, "even")
    with pytest.raises(ValueError):
        cf_expand(3, 5, "odd")
    with pytest.raises(ValueError):
        cf_expand(3, 0, "odd")
    with pytest.raises(ValueError):
        cf_expand(9, 7, "either")


@given(st.integers(1, 10**6), st.integers(1, 10**6),
       st.sampled_from(("odd", "even")))
def test_cf_expand_reconstructs_the_ratio(a, b, parity):
    num, den = max(a, b), min(a, b)
    if num == den and parity == "even":
        return
    s = cf_expand(num, den, parity)
    assert (len(s) % 2 == 1) == (parity == "odd")
    assert all(q >= 1 for q in s)
    assert all(q >= 1 for q in s[1:])
    assert Fraction(num, den) == Fraction(continuant(s), continuant(s[1:]))


def test_cf_expand_ignores_common_factors():
    assert cf_expand(18, 14, "odd") == cf_expand(9, 7, "odd")


def cf_parity_reference(num, den, want_odd):
    """The Euclid list first, then its parity fixed at the end.

    The fix handles a last quotient of 1 too, which the folded loop in
    _cf_parity assumes never happens.
    """
    q = euclid_quotients(num, den)
    if num == den:
        return (1,)
    if (len(q) % 2 == 1) != want_odd:
        if q[-1] >= 2:
            q[-1] -= 1
            q.append(1)
        else:
            q.pop()
            q[-1] += 1
    return tuple(q)


@settings(max_examples=500)
@given(st.integers(1, 10**60), st.integers(1, 10**60), st.booleans())
@example(1, 1, True)
@example(7, 7, True)
@example(2, 1, True)
@example(2, 1, False)
@example(10**60, 10**60 - 1, True)
@example(10**60, 10**60 - 1, False)
def test_cf_parity_matches_euclid_then_fix(a, b, want_odd):
    num, den = max(a, b), min(a, b)
    if num == den and not want_odd:
        return
    got = _cf_parity(num, den, want_odd)
    assert got == cf_parity_reference(num, den, want_odd)
    assert (len(got) % 2 == 1) == want_odd


def test_cf_parity_splits_the_last_quotient():
    # both parities, with one Euclid quotient and with several
    assert euclid_quotients(6, 2) == [3]
    assert _cf_parity(6, 2, True) == (3,)
    assert _cf_parity(6, 2, False) == (2, 1)
    assert euclid_quotients(9, 7) == [1, 3, 2]
    assert _cf_parity(9, 7, True) == (1, 3, 2)
    assert _cf_parity(9, 7, False) == (1, 3, 1, 1)
    assert _cf_parity(4, 4, True) == (1,)


# --------------------------------------------------------------------- surds

def test_surd_invariant_rescaling():
    x = surd(0, 3, 2)
    assert (x.p, x.q, x.delta) == (0, 9, 18)
    assert reg_cf_surd(x, 1) == (0,)
    # rescaling leaves the represented value alone
    assert reg_cf_surd(x, 8) == reg_cf_surd(surd(0, 3, 2), 8)


def test_surd_validation():
    with pytest.raises(ValueError):
        surd(1, 0, 5)
    with pytest.raises(ValueError):
        surd(1, 2, 16)
    with pytest.raises(ValueError):
        surd(1, 2, -3)


def test_expansions_take_raw_triples_through_surd():
    # (1 + sqrt(6))/2 built without surd: 2 does not divide 6 - 1
    raw = QuadraticSurd(1, 2, 6)
    x = surd(*raw)
    assert x == (2, 4, 24)
    assert reg_cf_surd(raw, 8) == reg_cf_surd(x, 8) == \
        expand_surd_oracle(raw, "reg", 8) == (1, 1, 2, 1, 1, 1, 2, 1)
    assert neg_cf_surd(raw, 8) == neg_cf_surd(x, 8) == \
        expand_surd_oracle(raw, "neg", 8)
    assert denjoy_surd(raw, 20) == denjoy_surd(x, 20) == \
        expand_surd_oracle(raw, "denjoy", 20)
    assert reg_cf_period(raw) == reg_cf_period(x)
    assert neg_cf_period(raw) == neg_cf_period(x)
    assert is_purely_periodic_reg(raw) == is_purely_periodic_reg(x)
    assert is_purely_periodic_neg(raw) == is_purely_periodic_neg(x)
    # plain tuples are accepted as well
    assert reg_cf_surd((1, 2, 6), 8) == reg_cf_surd(x, 8)


@pytest.mark.parametrize("bad", [(1.5, 2, 5), (1, 2, 5.0), (1, 2, 16),
                                 (1, 0, 5)])
def test_expansions_reject_bad_triples_with_value_error(bad):
    for call in (lambda: reg_cf_surd(bad, 3), lambda: neg_cf_surd(bad, 3),
                 lambda: denjoy_surd(bad, 3), lambda: reg_cf_period(bad),
                 lambda: neg_cf_period(bad),
                 lambda: is_purely_periodic_reg(bad),
                 lambda: is_purely_periodic_neg(bad)):
        with pytest.raises(ValueError):
            call()


def test_expansions_reject_negative_term_counts():
    x = surd(0, 1, 2)
    for expand in (reg_cf_surd, neg_cf_surd, denjoy_surd):
        assert len(expand(x, 0)) == 0
        with pytest.raises(ValueError):
            expand(x, -3)


def test_neg_to_reg_stream_rejects_negative_term_counts():
    assert neg_to_reg_stream((3, 2, 4), 0) == ()
    with pytest.raises(ValueError):
        neg_to_reg_stream((3, 2, 4), -2)


def test_non_integral_input_is_rejected():
    with pytest.raises(ValueError):
        continuant((1.5, 2))
    with pytest.raises(ValueError):
        continuant_matrix((2, 2.0))
    with pytest.raises(ValueError):
        cf_expand(9.5, 7, "odd")
    with pytest.raises(ValueError):
        surd(1, 2, 5.0)
    with pytest.raises(ValueError):
        reg_cf_surd(surd(0, 1, 2), 2.5)
    with pytest.raises(ValueError):
        neg_to_reg_stream((3, 2.5), 4)
    with pytest.raises(ValueError):
        reg_to_denjoy((1.5,))
    assert continuant(("2", "3")) == 7
    # a str is not read digit by digit
    with pytest.raises(ValueError):
        continuant("123")
    with pytest.raises(ValueError):
        reg_to_denjoy("12")
    with pytest.raises(ValueError):
        neg_to_reg_stream("32", 4)


def test_floor_ceil_golden_ratio():
    # a surd's floor and ceiling are its first regular and negative quotients
    golden = surd(1, 2, 5)
    assert reg_cf_surd(golden, 1) == (1,)
    assert neg_cf_surd(golden, 1) == (2,)
    neg = surd(1, -2, 5)  # (1 + sqrt 5)/(-2), about -1.618
    assert reg_cf_surd(neg, 1) == (-2,)
    assert neg_cf_surd(neg, 1) == (-1,)


@settings(max_examples=300)
@given(surds())
def test_floor_matches_interval_reference(x):
    assert reg_cf_surd(x, 1)[0] == bracket_floor(x)
    assert neg_cf_surd(x, 1)[0] == bracket_floor(x) + 1


@given(surds(), st.integers(-12, 12))
def test_cmp_sign_conventions(x, m):
    # the value is irrational, so x > m exactly when m <= floor(x)
    if m <= bracket_floor(x):
        assert x.cmp(m) == 1
    else:
        assert x.cmp(m) == -1


def bracket_sqrt(d):
    # 50 bisection steps give far more than enough separation for the
    # integer comparisons exercised here
    lo, hi = Fraction(math.isqrt(d)), Fraction(math.isqrt(d) + 1)
    for _ in range(50):
        mid = (lo + hi) / 2
        if mid * mid < d:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@settings(max_examples=200)
@given(surds(), st.integers(-12, 12))
def test_conj_cmp_matches_rational_approximation(x, m):
    approx = (Fraction(x.p) - bracket_sqrt(x.delta)) / x.q
    assert x.conj_cmp(m) == (1 if approx > m else -1)


def test_str_form():
    assert str(surd(3, 2, 17)) == "(3+sqrt(17))/2"


# ------------------------------------------------------------------- engines

def test_regular_expansion_frozen():
    assert reg_cf_surd(surd(0, 1, 2), 6) == (1, 2, 2, 2, 2, 2)
    assert reg_cf_surd(surd(1, 2, 5), 6) == (1, 1, 1, 1, 1, 1)
    assert reg_cf_surd(surd(0, 1, 7), 9) == (2, 1, 1, 1, 4, 1, 1, 1, 4)


def test_regular_expansion_allows_leading_zero():
    # (sqrt 5 - 1)/2 is below one, so the expansion opens with 0
    assert reg_cf_surd(surd(-1, 2, 5), 5) == (0, 1, 1, 1, 1)


def test_negative_expansion_frozen():
    # (3 + sqrt 5)/2 has conjugate in (0, 1): purely periodic, all 3s
    assert neg_cf_surd(surd(3, 2, 5), 5) == (3, 3, 3, 3, 3)
    assert neg_cf_period(surd(3, 2, 5)) == ((), (3,))
    # sqrt 2 needs one step to climb above 1
    assert neg_cf_surd(surd(0, 1, 2), 6) == (2, 2, 4, 2, 4, 2)


def test_period_detection():
    assert reg_cf_period(surd(0, 1, 2)) == ((1,), (2,))
    assert reg_cf_period(surd(1, 2, 5)) == ((), (1,))
    pre, per = reg_cf_period(surd(0, 1, 31))
    assert pre == (5,)
    assert per == (1, 1, 3, 5, 3, 1, 1, 10)
    assert is_purely_periodic_reg(surd(1, 2, 5))
    assert not is_purely_periodic_reg(surd(0, 1, 2))
    assert is_purely_periodic_neg(surd(3, 2, 5))
    assert not is_purely_periodic_neg(surd(1, 2, 5))


def test_pure_periodicity_walks_no_period(monkeypatch):
    # purely periodic iff reduced (Galois; Zagier for the negative
    # expansion), so the answer is read off x itself
    def no_walk(*args):
        raise AssertionError("a period was walked")

    monkeypatch.setattr(contfrac, "_period", no_walk)
    big = (0, 1, 10**9 + 9)
    assert not is_purely_periodic_reg(big)
    assert not is_purely_periodic_neg(big)
    assert is_purely_periodic_reg(surd(1, 2, 5))
    assert is_purely_periodic_neg(surd(3, 2, 5))


@st.composite
def raw_triples(draw):
    # (p, q, delta) as given, q not necessarily dividing delta - p*p
    d = draw(nonsquare)
    s = math.isqrt(d)
    q = draw(st.integers(1, 2 * s + 2)) * draw(st.sampled_from((-1, 1)))
    return draw(st.integers(-3 * s - 4, 3 * s + 4)), q, d


@given(st.one_of(surds(), raw_triples()))
@example((1, 2, 6))
@example((2, 1, 5))
def test_pure_periodicity_matches_the_period_walk(x):
    assert is_purely_periodic_reg(x) == (reg_cf_period(x)[0] == ())
    assert is_purely_periodic_neg(x) == (neg_cf_period(x)[0] == ())


def period_by_generic_walk(x, neg):
    """_period with every state, reduced or not, taken by _step: the
    reference for its inline loops on reduced states."""
    p, q, d = contfrac._as_surd(x)
    s = math.isqrt(d)
    pre, per = [], []
    while not contfrac._reduced(p, q, s, neg):
        a, p, q = contfrac._step(p, q, d, s, neg)
        pre.append(a)
    p0, q0 = p, q
    while not per or p != p0 or q != q0:
        a, p, q = contfrac._step(p, q, d, s, neg)
        per.append(a)
    return tuple(pre), tuple(per)


@settings(max_examples=300)
@given(st.one_of(surds(), raw_triples()))
@example((0, 1, 2))
@example((0, 1, 10**6 + 1))
@example((-7, -3, 19))
def test_period_matches_the_generic_walk(x):
    # raw triples are rescaled by _as_surd; pre-periods of any length occur
    for walk, neg in ((reg_cf_period, False), (neg_cf_period, True)):
        assert walk(x) == period_by_generic_walk(x, neg)


@given(surds())
def test_period_concatenation_matches_stream(x):
    # a pre-period one quotient too long ends in the period's last quotient
    pre, per = reg_cf_period(x)
    assert not pre or pre[-1] != per[-1]
    n = len(pre) + 2 * len(per) + 3
    want = list(pre)
    while len(want) < n:
        want.extend(per)
    assert reg_cf_surd(x, n) == tuple(want[:n])
    pre, per = neg_cf_period(x)
    assert not pre or pre[-1] != per[-1]
    n = len(pre) + 2 * len(per) + 3
    want = list(pre)
    while len(want) < n:
        want.extend(per)
    assert neg_cf_surd(x, n) == tuple(want[:n])


def test_denjoy_frozen():
    assert denjoy_surd(surd(3, 2, 17), 14) == "10101111010111"
    assert denjoy_surd(surd(1, 2, 5), 4) == "1111"
    with pytest.raises(ValueError):
        denjoy_surd(surd(-5, 2, 5), 4)


def test_denjoy_long_expansions_are_pinned():
    # one period of steps, then repetition: the golden ratio is all ones and
    # sqrt(2) = [1; 2, 2, ...] is 1 followed by blocks 101
    assert denjoy_surd(surd(1, 2, 5), 10**6) == "1" * 10**6
    n, k = 100_001, 33_334
    assert denjoy_surd(surd(0, 1, 2), n) == ("1" + "101" * k)[:n]


def test_expansions_cost_their_length_not_a_period():
    # the period of this surd is far too long to walk (reg_cf_period does not
    # finish in 10 s); n terms must take n steps, and n bits the steps that
    # give them, so neither engine may be routed through a whole period
    x = (7, 3, 10**30 + 57)
    assert reg_cf_surd(x, 12) == (333333333333335, 1, 2, 11695906432748, 4, 1,
                                  7, 1, 2, 1, 205191340924, 1)
    assert neg_cf_surd(x, 12) == (333333333333336, 4) + (2,) * 10
    assert denjoy_surd(x, 12) == "101010101010"


@settings(max_examples=150)
@given(surds(positive=True), st.integers(1, 80))
def test_denjoy_never_shows_00(x, n):
    bits = denjoy_surd(x, n)
    assert len(bits) == n
    assert "00" not in bits


# --------------------------------------------------------------- conversions

def test_reg_to_denjoy_blocks():
    assert reg_to_denjoy((3, 1, 1)) == "1010111"
    assert reg_to_denjoy((1,)) == "1"
    assert reg_to_denjoy((4,)) == "1010101"
    with pytest.raises(ValueError):
        reg_to_denjoy(())
    with pytest.raises(ValueError):
        reg_to_denjoy((2, 0))


@settings(max_examples=80)
@given(surds(positive=True), st.integers(1, 25))
def test_reg_to_denjoy_prefix_property(x, n):
    if x.cmp(1) < 0:
        return
    bits = reg_to_denjoy(reg_cf_surd(x, n))
    direct = denjoy_surd(x, len(bits))
    assert bits == direct


def test_neg_to_reg_stream_frozen():
    assert neg_to_reg_stream((5, 3, 2, 2, 3), 7) == (4, 1, 1, 3, 1, 1, 3)
    assert neg_to_reg_stream((5, 3, 2, 2, 3), 7) == reg_cf_surd(surd(5, 2, 17), 7)
    assert neg_to_reg_stream((3,), 5) == (2, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        neg_to_reg_stream((2, 2), 5)
    with pytest.raises(ValueError):
        neg_to_reg_stream((3, 1), 5)
    with pytest.raises(ValueError):
        neg_to_reg_stream((), 5)


@settings(max_examples=60)
@given(surds())
def test_neg_to_reg_stream_agrees_with_engine(x):
    pre, per = neg_cf_period(x)
    if pre or any(q < 2 for q in per) or all(q == 2 for q in per):
        return
    assert neg_to_reg_stream(per, 30) == reg_cf_surd(x, 30)
