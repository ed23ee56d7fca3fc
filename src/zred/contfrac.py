"""Continuants, parity-controlled expansions, and quadratic surd engines.

Three expansion flavours share one exact state machine on (p, q, delta)
triples representing (p + sqrt(delta))/q:

  regular   quotient = floor,   next = 1/(x - quotient)
  negative  quotient = ceiling, next = 1/(quotient - x)
  binary    quotient = 1 if x > 1 else 0, next = 1/(x - quotient)

No floating point anywhere; floors of surds come from integer square roots.
"""

from __future__ import annotations

import math
from itertools import cycle, islice
from typing import Iterable, NamedTuple

from . import kernel
from .forms import as_int, as_ints, nonsquare_isqrt
from .strings import check_nat


def continuant(s: Iterable) -> int:
    """K(q1, ..., ql): numerator of the continued fraction [q1; q2, ..., ql].

    K() = 1 and K(q) = q; a zero at either end drops that end, matching
    [0, q2, ...] = [q3, ...] and [..., ql-1, 0] = [..., ql-2].  Zeros in
    the interior are rejected.
    """
    t = as_ints(s)
    for i, q in enumerate(t):
        if q < 1 and not (q == 0 and i in (0, len(t) - 1)):
            raise ValueError(f"continuant entries must be positive, got {t}")
    return _continuants(t)[0]


def continuant_matrix(s: Iterable) -> tuple:
    """((K(q1..ql), K(q1..q_{l-1})), (K(q2..ql), K(q2..q_{l-1}))).

    Equals the product of the matrices ((q, 1), (1, 0)) over the entries.
    """
    m11, m12, m21, m22 = _continuants(check_nat(s, min_len=0))
    return ((m11, m12), (m21, m22))


def _continuants(t: tuple) -> tuple:
    # the entries of continuant_matrix, flat, for already checked entries
    m11, m12, m21, m22 = 1, 0, 0, 1
    for q in t:
        m11, m12, m21, m22 = q * m11 + m12, m11, q * m21 + m22, m21
    return m11, m12, m21, m22


def cf_expand(num: int, den: int, parity: str) -> tuple:
    """Continued fraction of num/den >= 1 with the requested length parity.

    gcd(num, den) may be anything; the expansion only sees the ratio.
    The two canonical expansions differ by (..., ql) <-> (..., ql - 1, 1);
    num == den is allowed and yields (1), which exists only with parity
    'odd'.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    num, den = as_int(num), as_int(den)
    if den < 1 or num < den:
        raise ValueError("cf_expand needs num >= den >= 1")
    if num == den and parity == "even":
        raise ValueError("1 has no even-length expansion with positive entries")
    return _cf_parity(num, den, parity == "odd")


def _cf_parity(num: int, den: int, want_odd: bool) -> tuple:
    # cf_expand on checked input: num > den >= 1, or num == den with want_odd.
    # For num > den each Euclid step divides a larger number by a smaller
    # one and the last divides exactly, so its quotient is at least 2 and
    # the other parity is the split (..., q - 1, 1).  For num == den it
    # gives the one quotient 1, of odd length, so only want_odd admits it.
    assert num > den or (num == den and want_odd), "cf_expand core misused"
    out = []
    while den:
        q = num // den
        out.append(q)
        num, den = den, num - q * den
    if (len(out) % 2 == 1) != want_odd:
        out[-1] -= 1
        out.append(1)
    return tuple(out)


class QuadraticSurd(NamedTuple):
    """(p + sqrt(delta))/q, meant to hold the invariant q | delta - p*p.

    The class stores what it is given: QuadraticSurd(1, 3, 5) stays (1, 3,
    5).  surd(), and every public function that takes a surd, check the
    triple and rescale one missing the invariant by |q|, which leaves the
    value fixed.  With the invariant, equal values have equal (p, q, delta)
    for fixed delta, so tuple equality is value equality.
    """

    p: int
    q: int
    delta: int

    def __str__(self) -> str:
        return f"({self.p}+sqrt({self.delta}))/{self.q}"

    def cmp(self, m: int) -> int:
        """Sign of self - m for an integer m (never 0)."""
        return _sign(self.p - m * self.q, self.q, self.delta)

    def conj_cmp(self, m: int) -> int:
        """Sign of conjugate (p - sqrt(delta))/q - m, which is
        -((m q - p) + sqrt(delta))/q (never 0)."""
        return -_sign(m * self.q - self.p, self.q, self.delta)


def _sign(t: int, q: int, delta: int) -> int:
    # sign of (t + sqrt(delta))/q, delta a nonsquare; t + sqrt(delta) > 0
    # exactly when t >= 0 or t^2 < delta
    sn = 1 if t >= 0 or t * t < delta else -1
    return sn if q > 0 else -sn


def surd(p: int, q: int, delta: int) -> QuadraticSurd:
    return _as_surd((p, q, delta))


def _as_surd(x) -> QuadraticSurd:
    # the one coercion of a surd triple at the public boundary: each entry
    # once, then delta, then q; a triple missing the invariant is rescaled
    p, q, delta = as_ints(x, 3)
    nonsquare_isqrt(delta)
    if q == 0:
        raise ValueError("surd denominator must be nonzero")
    if (delta - p * p) % q:
        k = abs(q)
        p, delta, q = p * k, delta * k * k, q * k
    return QuadraticSurd(p, q, delta)


def _step(p: int, q: int, delta: int, s: int, neg: bool) -> tuple:
    # the negative quotient is the ceiling, which for an irrational value
    # is the regular floor plus one
    a = ((p + s) // q if q > 0 else -((p + s) // (-q)) - 1) + neg
    p1 = a * q - p
    q1, r = divmod(p1 * p1 - delta if neg else delta - p1 * p1, q)
    assert r == 0, "surd state lost the divisibility invariant"
    return a, p1, q1


def _reduced(p: int, q: int, s: int, neg: bool) -> bool:
    # x > 1 and -1 < x' < 0 (regular), or 0 < x' < 1 (negative)
    return 0 < q <= p + s and (p - q <= s < p if neg else p <= s < p + q)


def _term_count(n) -> int:
    n = as_int(n)
    if n < 0:
        raise ValueError(f"term count must be nonnegative, got {n}")
    return n


# The expansions take x through _as_surd once, so a bad triple raises
# ValueError rather than failing a step; the cores take its checked ints.

def _expand(p: int, q: int, d: int, n: int, neg: bool) -> tuple:
    s = math.isqrt(d)
    out = []
    for _ in range(n):
        a, p, q = _step(p, q, d, s, neg)
        out.append(a)
    return tuple(out)


def reg_cf_surd(x: QuadraticSurd, n: int) -> tuple:
    """First n regular continued fraction quotients of x."""
    return _expand(*_as_surd(x), _term_count(n), False)


def neg_cf_surd(x: QuadraticSurd, n: int) -> tuple:
    """First n negative (ceiling) continued fraction quotients of x."""
    return _expand(*_as_surd(x), _term_count(n), True)


def denjoy_surd(x: QuadraticSurd, n: int) -> str:
    """First n binary quotients of x > 0: 1 where the tail exceeds 1.

    Tail values stay positive, so the quotient sequence never shows two
    zeros in a row.  The expansion takes the pre-period plus one period
    of regular steps, whatever n is; the later bits repeat the period.
    """
    x, n = _as_surd(x), _term_count(n)
    if x.cmp(0) < 0:
        raise ValueError("binary expansion needs a positive value")
    return kernel.denjoy_bits(x.p, x.q, x.delta, n)


def _period(p: int, q: int, d: int, neg: bool) -> tuple:
    # a tail is purely periodic iff reduced (Galois; Zagier for the negative
    # expansion), so the minimal period runs from the first reduced state on
    s = math.isqrt(d)
    pre, per = [], []
    while not _reduced(p, q, s, neg):
        a, p, q = _step(p, q, d, s, neg)
        pre.append(a)
    # Reduced states stay reduced and have q > 0, so the period is stepped
    # inline with no sign branch: the negative quotient is the regular one
    # plus 1, and the next q's numerator changes sign.
    p0, q0 = p, q
    if neg:
        while True:
            a = (p + s) // q + 1
            p = a * q - p
            q, r = divmod(p * p - d, q)
            assert r == 0, "surd state lost the divisibility invariant"
            per.append(a)
            if p == p0 and q == q0:
                break
    else:
        while True:
            a = (p + s) // q
            p = a * q - p
            q, r = divmod(d - p * p, q)
            assert r == 0, "surd state lost the divisibility invariant"
            per.append(a)
            if p == p0 and q == q0:
                break
    return tuple(pre), tuple(per)


def reg_cf_period(x: QuadraticSurd) -> tuple:
    """(pre_period, period) of the regular expansion of x, both minimal.

    The period starts at the first tail with x > 1 and -1 < x' < 0.
    """
    return _period(*_as_surd(x), False)


def neg_cf_period(x: QuadraticSurd) -> tuple:
    """(pre_period, period) of the negative expansion of x, both minimal.

    The period starts at the first tail with x > 1 and 0 < x' < 1.  One
    step sends any value above 1, so every expansion is eventually periodic.
    """
    return _period(*_as_surd(x), True)


def is_purely_periodic_reg(x: QuadraticSurd) -> bool:
    """No regular pre-period: by Galois, exactly when x > 1 and -1 < x' < 0."""
    p, q, d = _as_surd(x)
    return _reduced(p, q, math.isqrt(d), False)


def is_purely_periodic_neg(x: QuadraticSurd) -> bool:
    """No negative pre-period: by Zagier, exactly when x > 1 and 0 < x' < 1."""
    p, q, d = _as_surd(x)
    return _reduced(p, q, math.isqrt(d), True)


def reg_to_denjoy(period: Iterable) -> str:
    """One regular period rewritten as a binary quotient period.

    Quotient q becomes 1 followed by q - 1 copies of 01.
    """
    t = check_nat(period)
    return "".join("1" + "01" * (q - 1) for q in t)


def neg_to_reg_stream(period: Iterable, n: int) -> tuple:
    """First n regular quotients of the value with negative period `period`.

    Entries must all be >= 2 and not all 2 (all 2s is the constant 1).
    A run of k 2s between larger entries contributes the regular pair
    (k + 1, next - 2); the opening entry contributes q1 - 1.
    """
    t = as_ints(period)
    if not t or any(q < 2 for q in t):
        raise ValueError("negative period entries must be >= 2")
    if all(q == 2 for q in t):
        raise ValueError("the all-2s period is the rational 1")
    n = _term_count(n)
    out = [t[0] - 1]
    rest = islice(cycle(t), 1, None)
    while len(out) < n:
        run = 0
        v = next(rest)
        while v == 2:
            run += 1
            v = next(rest)
        out.append(run + 1)
        out.append(v - 2)
    return tuple(out[:n])
