"""The hot inner loops behind the sweeps, in pure Python.

Euclid quotients, the two reduced-form enumerations and the binary
(Denjoy) expansion of a surd.  All arithmetic is exact and unbounded.
"""

from __future__ import annotations

import math


def backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"


def euclid_quotients(num: int, den: int) -> list:
    """Quotient sequence of the Euclidean algorithm on num/den (den >= 1)."""
    if den < 1 or num < 1:
        raise ValueError("euclid_quotients needs positive integers")
    out = []
    while den:
        q = num // den
        out.append(q)
        num, den = den, num - q * den
    return out


def z_reduced_forms(delta: int) -> list:
    """All Zagier-reduced (a, b, c) with b*b - 4*a*c == delta, sorted.

    Parametrized by d = a - c: from (b - a - c)(b + a + c) = delta - d*d,
    every form comes from a same-parity factorization of delta - d*d.
    This is O(sqrt(delta)) factorizations of numbers <= delta, far cheaper
    than trial-dividing (b*b - delta)/4 for every b up to delta.
    """
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
                        out.append((a, b, c))
                        if d > 0:
                            out.append((c, b, a))
            e += 1
        d += 1
    out.sort()
    return out


def g_reduced_forms(delta: int) -> list:
    """All Gauss-reduced (a, b, c) of discriminant delta, both signs, sorted."""
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
                        out.append((a, b, -c))
                        out.append((-a, b, c))
                        if a != c:
                            out.append((c, b, -a))
                            out.append((-c, b, a))
                a += 1
        b += 1
    out.sort()
    return out


def denjoy_bits(p: int, q: int, delta: int, n: int) -> str:
    """First n Denjoy quotients of (p + sqrt(delta))/q as a 0/1 string.

    The state invariant q | delta - p*p must hold; the value must be
    positive.  Takes regular continued fraction steps: quotient a >= 1
    is the binary block 1 followed by a - 1 copies of 01, and a = 0 (only
    possible first, for a value below 1) is the single bit 0.  A block
    is cut to the bits still wanted, so a huge quotient builds only those.
    """
    s = math.isqrt(delta)
    out = []
    left = n
    while left > 0:
        a = (p + s) // q if q > 0 else -((p + s) // (-q)) - 1
        if a >= 1:
            size = 2 * a - 1
            if size >= left:
                out.append(("1" + "01" * min(a - 1, left // 2))[:left])
                break
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
    return "".join(out)
