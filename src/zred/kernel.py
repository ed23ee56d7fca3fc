"""The hot inner loops behind the sweeps, in pure Python.

Euclid quotients, the two reduced-form enumerations and the binary
(Denjoy) expansion of a surd.  All arithmetic is exact and unbounded.
"""

from __future__ import annotations

import math

from .forms import Form


def backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"


def euclid_quotients(num: int, den: int) -> list:
    """Quotient sequence of the Euclidean algorithm on num/den (den >= 1).

    contfrac._cf_parity runs the same loop inline with its parity rule;
    this list is the reference its tests compare against.
    """
    if den < 1 or num < 1:
        raise ValueError("euclid_quotients needs positive integers")
    out = []
    while den:
        q = num // den
        out.append(q)
        num, den = den, num - q * den
    return out


def z_reduced_forms(delta: int) -> list:
    """All Zagier-reduced Forms (a, b, c) with b*b - 4*a*c == delta, sorted.

    Parametrized by d = a - c >= 0 (the form (c, b, a) has -d) and
    s = a + c: then
    (b - s)(b + s) = delta - d*d = n, so every form comes from a
    factorization n = e*f with e = b - s >= 1 and f = b + s.  Only the
    divisors e that can give a form are tried:
    - e and f have one parity, because b and s are integers, so n = 2
      mod 4 has no form, odd n needs odd e and n = 0 mod 4 needs even e;
    - c >= 1 means s >= d + 2, i.e. f - e >= 2d + 4; multiplied by e this
      is (e + d + 2)**2 <= delta + 4d + 4, so e stops at
      isqrt(delta + 4d + 4) - d - 2;
    - a and c are integers when s = d mod 2, i.e. f - e = 2d mod 4, which
      also makes f even when e is.
    The bound on e does not grow with d, so the loop on d ends at the
    first d that leaves no e.  That is about delta/4 trial divisions in
    all, against about 0.8 delta for every e below sqrt(n).
    """
    new = tuple.__new__
    out = []
    d = 0
    while True:
        emax = math.isqrt(delta + 4 * d + 4) - d - 2
        if emax < 1:
            break
        n = delta - d * d
        if n % 4 != 2:
            for e in range(2 - n % 2, emax + 1, 2):
                if n % e == 0:
                    f = n // e
                    if (f - e - 2 * d) % 4 == 0:
                        b, s = (e + f) // 2, (f - e) // 2
                        a, c = (s + d) // 2, (s - d) // 2
                        out.append(new(Form, (a, b, c)))
                        if d > 0:
                            out.append(new(Form, (c, b, a)))
        d += 1
    out.sort()
    return out


def g_reduced_forms(delta: int) -> list:
    """All Gauss-reduced Forms of discriminant delta, both signs, sorted.

    Each form is (a, b, -c) or (-a, b, c) with 1 <= a <= c, a*c = m and
    b*b + 4m = delta, so b has the parity of delta and b < sqrt(delta).
    Reducedness, b > c - a, is a*a + a*b > m, i.e.
    a > (sqrt(delta) - b)/2 >= (isqrt(delta) - b)//2, so the divisors a
    start just above that floor and stop at isqrt(m).
    """
    new = tuple.__new__
    out = []
    r = math.isqrt(delta)
    for b in range(2 - delta % 2, r + 1, 2):
        rem = delta - b * b
        if rem % 4:
            continue
        m = rem // 4
        for a in range((r - b) // 2 + 1, math.isqrt(m) + 1):
            if m % a == 0:
                c = m // a
                out.append(new(Form, (a, b, -c)))
                out.append(new(Form, (-a, b, c)))
                if a != c:
                    out.append(new(Form, (c, b, -a)))
                    out.append(new(Form, (-c, b, a)))
    out.sort()
    return out


# the binary block "1" + "01" * (a - 1) of each regular quotient a < 32, so
# the reduced loop indexes a block rather than builds it; on the surds of
# Zagier-reduced forms q is even, so a <= isqrt(delta) and the table holds
# every reduced quotient for delta < 1024
_BLOCKS = tuple("1" + "01" * (a - 1) for a in range(32))


def denjoy_bits(p: int, q: int, delta: int, n: int) -> str:
    """First n Denjoy quotients of (p + sqrt(delta))/q as a 0/1 string.

    The state invariant q | delta - p*p must hold; the value must be
    positive.  Takes regular continued fraction steps: quotient a >= 1
    is the binary block 1 followed by a - 1 copies of 01, and a = 0 (only
    possible first, for a value below 1) is the single bit 0.  A block
    is cut to the bits still wanted, so a huge quotient builds only those.

    Once the state is reduced it stays reduced and runs round a cycle
    (Galois), and each step depends on the state alone, so when the
    first reduced state comes back every later bit repeats the bits
    since it.  The rest is filled by repetition: the cost is the
    pre-period plus one period of steps, whatever n is.  A reduced state
    has q > 0 and quotient a >= 1, so the second loop steps it with no
    sign branch and no reduced test.
    """
    s = math.isqrt(delta)
    out = []
    left = n
    # the pre-period; contfrac._reduced(p, q, s, False), inline
    while left > 0 and not (0 < q <= p + s and p <= s < p + q):
        a = (p + s) // q if q > 0 else -((p + s) // (-q)) - 1
        if a >= 1:
            size = 2 * a - 1
            if size >= left:
                out.append(("1" + "01" * min(a - 1, left // 2))[:left])
                return "".join(out)
            out.append("1" + "01" * (a - 1))
            left -= size
        elif a == 0:
            out.append("0")
            left -= 1
        else:
            raise ValueError("binary expansion needs a positive value")
        p1 = a * q - p
        q1, r = divmod(delta - p1 * p1, q)
        assert r == 0, "surd state lost the divisibility invariant"
        p, q = p1, q1
    mark, p0, q0 = len(out), p, q
    while left > 0:
        a = (p + s) // q
        size = 2 * a - 1
        if size >= left:
            out.append(("1" + "01" * min(a - 1, left // 2))[:left])
            break
        out.append(_BLOCKS[a] if a < 32 else "1" + "01" * (a - 1))
        left -= size
        p = a * q - p
        q, r = divmod(delta - p * p, q)
        assert r == 0, "surd state lost the divisibility invariant"
        if p == p0 and q == q0:
            per = "".join(out[mark:])
            k, r = divmod(left, len(per))
            out.append(per * k + per[:r])
            break
    return "".join(out)
