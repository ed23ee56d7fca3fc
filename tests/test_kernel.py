"""The kernel against independent references."""

import math
import random

import pytest

import zred
from zred import kernel
from zred.contfrac import reg_cf_period, surd
from zred.oracle import _denjoy_bits_stepwise, expand_surd_oracle


def test_backend_names():
    assert zred.backend() == kernel.backend() == "pure"


def test_euclid_quotients_agree():
    rng = random.Random(7)
    pairs = [(1, 1), (9, 7), (10**30 + 7, 9973), (2**64 - 1, 2**31 + 3)]
    pairs += [(rng.randint(1, 10**12), rng.randint(1, 10**12))
              for _ in range(300)]
    for a, b in pairs:
        num, den = max(a, b), min(a, b)
        got = kernel.euclid_quotients(num, den)
        # the quotients must rebuild the reduced fraction
        n, d = 1, 0
        for q in reversed(got):
            n, d = q * n + d, n
        g = math.gcd(num, den)
        assert (n, d) == (num // g, den // g)


def test_euclid_validation_matches():
    for bad in ((0, 3), (3, 0), (-2, 5), (5, -1)):
        with pytest.raises(ValueError):
            kernel.euclid_quotients(*bad)


def _random_states(rng, count):
    # positive surds (p + sqrt(d))/q with q | d - p*p, either sign of q
    out = []
    while len(out) < count:
        d = rng.randint(2, 5000)
        s = math.isqrt(d)
        if s * s == d:
            continue
        x = surd(rng.randint(-3 * s, 3 * s),
                 rng.choice((-1, 1)) * rng.randint(1, 2 * s + 1), d)
        if x.cmp(0) > 0:
            out.append(x)
    return out


def test_denjoy_bits_agree():
    rng = random.Random(11)
    cases = [(surd(3, 2, 17), 60), (surd(1, 2, 5), 60), (surd(0, 1, 2), 60),
             # values in (0, 1): the first bit is 0
             (surd(-1, 1, 2), 40), (surd(1, 7, 2), 40),
             # q < 0
             (surd(-3, -1, 5), 40), (surd(-9, -2, 17), 40),
             # n = 0, and n ending inside the block of quotient 3
             (surd(3, 2, 17), 0), (surd(3, 2, 17), 2), (surd(3, 2, 17), 4),
             # a first quotient of 10**15 cut after 3 bits
             (surd(10**15, 1, 2), 3), (surd(10**15, 1, 2), 0)]
    cases += [(x, rng.randint(0, 120)) for x in _random_states(rng, 200)]
    for x, n in cases:
        got = kernel.denjoy_bits(x.p, x.q, x.delta, n)
        assert len(got) == n
        assert got == _denjoy_bits_stepwise(x.p, x.q, x.delta, n), (x, n)
        assert got == expand_surd_oracle(x, "denjoy", n), (x, n)


def test_denjoy_bits_big_values_fall_back():
    # past the range of fixed-width integers the exact arithmetic still holds
    big = 2**72 + 3
    assert math.isqrt(big) ** 2 != big
    for x, n in ((surd(0, 1, big), 90), (surd(2**40, 7, big), 64)):
        got = kernel.denjoy_bits(x.p, x.q, x.delta, n)
        assert len(got) == n
        assert got == _denjoy_bits_stepwise(x.p, x.q, x.delta, n), (x, n)
        assert got == expand_surd_oracle(x, "denjoy", n), (x, n)


def _bit_count(quotients):
    # binary length of regular quotients: 2a - 1 bits for a >= 1, one for 0
    return sum(2 * a - 1 if a else 1 for a in quotients)


def test_denjoy_bits_repeat_the_period_exactly():
    # after the first reduced state comes back the bits are filled by
    # repetition; the step-per-bit reference crosses every boundary of it
    rng = random.Random(12)
    xs = [surd(3, 2, 17), surd(1, 2, 5), surd(0, 1, 2), surd(0, 1, 94),
          # values in (0, 1): the first bit is 0
          surd(-1, 1, 2), surd(1, 7, 2), surd(-4, 3, 19),
          # q < 0
          surd(-3, -1, 5), surd(-9, -2, 17), surd(-13, -4, 61)]
    xs += _random_states(rng, 40)
    for x in xs:
        pre, per = reg_cf_period(x)
        head, size = _bit_count(pre), _bit_count(per)
        ns = {0, head, head + size - 1, head + size, head + size + 1,
              head + 4 * size + rng.randint(1, size)}
        for n in sorted(ns):
            got = kernel.denjoy_bits(x.p, x.q, x.delta, n)
            assert len(got) == n
            assert got == _denjoy_bits_stepwise(x.p, x.q, x.delta, n), (x, n)
            if n <= 200:
                assert got == expand_surd_oracle(x, "denjoy", n), (x, n)


def test_denjoy_bits_repeat_a_period_with_a_large_quotient():
    # the period (2000,) is 3999 bits; the cut falls inside a repeated block
    x = surd(1000, 1, 10**6 + 1)
    assert reg_cf_period(x) == ((), (2000,))
    block = "1" + "01" * 1999
    for n in (3998, 3999, 4000, 2 * 3999 + 1234):
        got = kernel.denjoy_bits(x.p, x.q, x.delta, n)
        assert got == _denjoy_bits_stepwise(x.p, x.q, x.delta, n), n
        assert got == (block * 3)[:n], n


def test_denjoy_bits_at_every_cut_of_both_loops():
    # the pre-period loop takes the full step (signs, a = 0, the cut block)
    # and hands over at the first reduced state; n runs over every length
    # through two periods, so it ends inside the pre-period, exactly at the
    # hand-over, and inside every cut block of either loop
    rng = random.Random(13)
    xs = [surd(3, 2, 17), surd(0, 1, 2), surd(7, 1, 61),
          # values below 1: the first bit is 0
          surd(-1, 1, 2), surd(1, 7, 2), surd(-4, 3, 19), surd(-39, 40, 1601),
          # q < 0
          surd(-3, -1, 5), surd(-9, -2, 17), surd(-13, -4, 61),
          # a pre-period quotient of 40, then the reduced quotient 80
          surd(0, 1, 1601), surd(40, 1, 1601)]
    # random states whose two periods fit in 400 bits, as every n is tried
    xs += [x for x in _random_states(rng, 300)
           if sum(map(_bit_count, reg_cf_period(x))) <= 200][:60]
    for x in xs:
        pre, per = reg_cf_period(x)
        head, size = _bit_count(pre), _bit_count(per)
        want = _denjoy_bits_stepwise(x.p, x.q, x.delta, head + 2 * size + 2)
        for n in range(len(want) + 1):
            assert kernel.denjoy_bits(x.p, x.q, x.delta, n) == want[:n], (x, n)


def test_denjoy_bits_rejects_a_negative_value():
    # (-3 + sqrt(5))/1 is below 0: its first regular quotient is -1
    with pytest.raises(ValueError, match="positive value"):
        kernel.denjoy_bits(-3, 1, 5, 4)
