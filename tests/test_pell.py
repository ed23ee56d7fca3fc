"""Checks for the |t^2 - delta u^2| = 4 solver."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zred.forms import Form
from zred.maps import beta
from zred.pell import PellSolution, fundamental_solution, solve_pell_bruteforce

# independently computed minimal solutions
FROZEN = {
    2: (2, 2, -4),
    3: (4, 2, 4),
    5: (1, 1, -4),
    6: (10, 4, 4),
    12: (4, 1, 4),
    17: (8, 2, -4),
    20: (4, 1, -4),
    21: (5, 1, 4),
    61: (39, 5, -4),
    68: (8, 1, -4),
}


@pytest.mark.parametrize("delta,expected", sorted(FROZEN.items()))
def test_frozen_values(delta, expected):
    assert fundamental_solution(delta) == PellSolution(*expected)


def unit_from_sqrt(delta):
    # reference for delta = 2, 3 mod 4: halve to |x^2 - delta*y^2| = 1 and
    # expand sqrt(delta) up to the first denominator 1
    s = math.isqrt(delta)
    p, q = 0, 1
    num1, num0 = 1, 0
    den1, den0 = 0, 1
    while True:
        a = (p + s) // q
        num1, num0 = a * num1 + num0, num1
        den1, den0 = a * den1 + den0, den1
        p = a * q - p
        q = (delta - p * p) // q
        if q == 1:
            break
    eps = num1 * num1 - delta * den1 * den1
    assert abs(eps) == 1
    return PellSolution(2 * num1, 2 * den1, 4 * eps)


def test_two_three_mod_four_matches_sqrt_expansion():
    # delta +- 1 square, where 4*delta +- 4 is square and u/2 = 1
    for delta in (2, 3, 10, 15, 26, 35, 50, 63, 999**2 + 1, 1000**2 - 1):
        assert fundamental_solution(delta) == unit_from_sqrt(delta)
    # 2, 3 mod 4 holds no squares
    for delta in range(2, 20000):
        if delta % 4 in (2, 3):
            assert fundamental_solution(delta) == unit_from_sqrt(delta), delta


@settings(max_examples=200)
@given(st.integers(2, 10**7).filter(lambda d: d % 4 in (2, 3)))
def test_two_three_mod_four_matches_sqrt_expansion_sampled(delta):
    assert fundamental_solution(delta) == unit_from_sqrt(delta)


def test_solution_identity_sweep():
    for delta in range(2, 2001):
        if math.isqrt(delta) ** 2 == delta:
            continue
        t, u, eps = fundamental_solution(delta)
        assert t >= 1 and u >= 1
        assert eps in (-4, 4)
        assert t * t - delta * u * u == eps


def test_minimality_against_bruteforce():
    # brute search below the found u; skipped where the unit is too large
    # to enumerate, which the identity sweep still covers
    for delta in range(2, 400):
        if math.isqrt(delta) ** 2 == delta:
            continue
        sol = fundamental_solution(delta)
        if sol.u > 3000:
            continue
        sols = solve_pell_bruteforce(delta, sol.u)
        assert sols[0] == sol
        assert all(s.u == sol.u for s in sols if s.t <= sol.t)


def test_bruteforce_ordering_and_validation():
    sols = solve_pell_bruteforce(5, 10)
    assert sols == sorted(sols, key=lambda s: (s.u, s.t))
    assert PellSolution(1, 1, -4) in sols
    assert PellSolution(3, 1, 4) in sols
    with pytest.raises(ValueError):
        solve_pell_bruteforce(9, 10)
    for bad in (0, -3, 2.5, "2.5", None):
        with pytest.raises(ValueError):
            solve_pell_bruteforce(5, bad)
    assert solve_pell_bruteforce(5, "3") == solve_pell_bruteforce(5, 3)


def test_rejects_squares_and_nonpositive():
    for bad in (-4, 0, 1, 4, 9, 16, 625):
        with pytest.raises(ValueError):
            fundamental_solution(bad)


def test_rejects_non_integral_discriminants():
    for bad in (17.0, 17.5, "17.5", None):
        with pytest.raises(ValueError):
            fundamental_solution(bad)
    assert fundamental_solution("17") == fundamental_solution(17)


def test_minus_four_on_primes():
    # classical: t^2 - p u^2 = -4 is solvable for primes 1 mod 4 and
    # never for primes 3 mod 4
    def primes(n):
        sieve = [True] * n
        for i in range(2, n):
            if sieve[i]:
                yield i
                for j in range(i * i, n, i):
                    sieve[j] = False

    for p in primes(500):
        if p % 4 == 1:
            assert fundamental_solution(p).epsilon == -4, p
        elif p % 4 == 3:
            assert fundamental_solution(p).epsilon == 4, p


def test_str_format():
    assert str(fundamental_solution(17)) == "t=8 u=2 epsilon=-4"
    assert str(fundamental_solution(12)) == "t=4 u=1 epsilon=+4"


def test_large_discriminant_is_fast_enough():
    # a worst-ish case regulator among small inputs; must not hang
    sol = fundamental_solution(1621)
    assert sol.t * sol.t - 1621 * sol.u * sol.u == sol.epsilon
    big = fundamental_solution(10**10 + 1)
    assert big.t * big.t - (10**10 + 1) * big.u * big.u == big.epsilon


def test_wrong_shapes_raise_value_error():
    # the argument is coerced before the cache hashes it
    for bad in ([61], (61,), {61: 1}):
        with pytest.raises(ValueError, match="expected an integer"):
            fundamental_solution(bad)
    assert fundamental_solution(61).epsilon == -4
    assert fundamental_solution("21").epsilon == 4


def test_cache_controls_and_hits_without_isqrt(monkeypatch):
    fundamental_solution.cache_clear()
    assert fundamental_solution.cache_info().currsize == 0
    f = Form(1, 7, 3)  # delta 37
    want = beta(f)
    assert fundamental_solution.cache_info().misses == 1

    def no_isqrt(n):
        raise AssertionError("isqrt on a cache hit")

    monkeypatch.setattr(math, "isqrt", no_isqrt)
    assert beta(f) == want
    assert fundamental_solution(37) == fundamental_solution(37)
    info = fundamental_solution.cache_info()
    assert (info.hits, info.misses) == (3, 1)
