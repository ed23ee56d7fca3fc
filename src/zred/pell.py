"""Fundamental solutions of |t^2 - delta*u^2| = 4.

The fundamental solution is the one with the smallest u >= 1; when both
signs occur at that u the negative one is taken (that happens only for
delta = 5, where (1, 1, -4) beats (3, 1, +4)).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .contfrac import _continuants, _period
from .forms import as_int, check_delta, nonsquare_isqrt


class PellSolution(NamedTuple):
    t: int
    u: int
    epsilon: int  # t*t - delta*u*u, always +4 or -4

    def __str__(self) -> str:
        return f"t={self.t} u={self.u} epsilon={self.epsilon:+d}"


def solve_pell_bruteforce(delta: int, u_max: int) -> list[PellSolution]:
    """Every solution with 1 <= u <= u_max, ordered by (u, t).

    Exhaustive search; exists as an independent check on
    fundamental_solution, not for production use.
    """
    delta = check_delta(delta)
    u_max = as_int(u_max)
    if u_max < 1:
        raise ValueError("u_max must be at least 1")
    out = []
    for u in range(1, u_max + 1):
        du2 = delta * u * u
        for eps in (-4, 4):
            t2 = du2 + eps
            if t2 <= 0:
                continue
            t = math.isqrt(t2)
            if t * t == t2:
                out.append(PellSolution(t, u, eps))
    out.sort(key=lambda s: (s.u, s.t))
    return out


def _unit_from_omega(delta: int) -> PellSolution:
    # delta = 0 or 1 mod 4: take the regular period of (b0 + sqrt(delta))/2
    # with b0 the largest integer of delta's parity below sqrt(delta).  That
    # surd is reduced, so its period starts at once; the convergent matrix
    # of one period yields the fundamental unit.  _fundamental_solution's
    # nonsquare_isqrt has checked delta, and 2 divides delta - b0*b0.
    s = math.isqrt(delta)
    b0 = s if (s - delta) % 2 == 0 else s - 1
    _, per = _period(b0, 2, delta, False)
    _, _, u, m22 = _continuants(per)
    t = u * b0 + 2 * m22
    eps = t * t - delta * u * u
    assert abs(eps) == 4, "period of a reduced surd must give a unit"
    return PellSolution(t, u, eps)


def fundamental_solution(delta: int) -> PellSolution:
    """Smallest-u solution of |t^2 - delta*u^2| = 4, preferring epsilon = -4.

    delta must be positive and not a perfect square.  Requires nothing of
    delta mod 4; for delta = 2, 3 mod 4 the parity forces t, u even, and
    the unit is read off the reduced surd of discriminant 4*delta.

    delta is coerced by as_int before the cache hashes it, so [61] raises
    ValueError rather than TypeError; a cache hit on an int runs no isqrt.
    """
    return _fundamental_solution(as_int(delta))


@lru_cache(maxsize=1 << 16)
def _fundamental_solution(delta: int) -> PellSolution:
    nonsquare_isqrt(delta)
    for eps in (-4, 4):
        t2 = delta + eps
        if t2 > 0:
            t = math.isqrt(t2)
            if t * t == t2:
                return PellSolution(t, 1, eps)
    if delta % 4 in (0, 1):
        return _unit_from_omega(delta)
    # delta = 2, 3 mod 4: every solution has t, u even, and (t, u/2) solves
    # the same equation for 4*delta, so the units correspond
    t, u, eps = _unit_from_omega(4 * delta)
    return PellSolution(t, 2 * u, eps)


fundamental_solution.cache_clear = _fundamental_solution.cache_clear
fundamental_solution.cache_info = _fundamental_solution.cache_info
