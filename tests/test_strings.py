"""String moves: stars and bars, shifts, pinching, rotation, necklaces."""

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zred.maps import tau
from zred.strings import (
    AlternatingNecklace,
    ColoredBin,
    Necklace,
    _least_start,
    alternating_necklace,
    check_bin,
    check_nat,
    eta_minus,
    eta_plus,
    is_primitive,
    knead,
    least_rotation,
    necklace,
    pinch_both,
    pinch_left,
    pinch_right,
    primitive_root,
    rotate_bin,
    sb,
    sb_inv,
    t_g,
    t_z,
)

nat2 = st.lists(st.integers(1, 9), min_size=2, max_size=8).map(tuple)
nat1 = st.lists(st.integers(1, 9), min_size=1, max_size=8).map(tuple)
bin1 = st.text(alphabet="01", min_size=1, max_size=14).filter(lambda b: "1" in b)


def test_checkers():
    assert check_nat([3, "1"]) == (3, 1)
    with pytest.raises(ValueError):
        check_nat((1, 0, 2))
    with pytest.raises(ValueError):
        check_nat((1,), min_len=2)
    assert check_bin("0101") == "0101"
    with pytest.raises(ValueError):
        check_bin("012")
    with pytest.raises(ValueError):
        check_bin("")
    with pytest.raises(ValueError):
        check_bin("000")


def check_bin_reference(b):
    # check_bin with the alphabet tested by a set rather than str.strip
    if not isinstance(b, str) or set(b) - {"0", "1"} or b.count("1") < 1:
        raise ValueError(f"need a string over 0/1 with at least one 1, got {b!r}")
    return b


def check_outcome(fn, b):
    try:
        r = fn(b)
    except ValueError as e:
        return ValueError, str(e)
    assert r is b
    return r


def test_check_bin_matches_the_set_reference():
    words = ["".join(p) for n in range(5) for p in product("01 2", repeat=n)]
    for b in words + [b"01", ["0"], None, 101]:
        assert check_outcome(check_bin, b) == check_outcome(check_bin_reference, b)


def test_sb_frozen():
    assert sb((2, 1, 3)) == "01100"
    assert sb((1, 3, 1, 1)) == "10011"
    assert sb((1, 1)) == "1"
    assert sb((3, 3)) == "00100"
    with pytest.raises(ValueError):
        sb((4,))


def test_sb_inv_frozen():
    assert sb_inv("01100") == (2, 1, 3)
    assert sb_inv("10011") == (1, 3, 1, 1)
    assert sb_inv("1") == (1, 1)
    with pytest.raises(ValueError):
        sb_inv("000")


def sb_inv_reference(b):
    """sb_inv by scanning for the bars' positions: the reference."""
    m = len(b)
    bars = [i + 1 for i, ch in enumerate(b) if ch == "1"]
    parts = [bars[0]]
    parts.extend(bars[i + 1] - bars[i] for i in range(len(bars) - 1))
    parts.append(m + 1 - bars[-1])
    return tuple(parts)


def test_sb_inv_matches_the_bar_scan_on_every_short_string():
    for m in range(1, 15):
        for bits in product("01", repeat=m):
            b = "".join(bits)
            if "1" in b:
                assert sb_inv(b) == sb_inv_reference(b), b
            else:
                with pytest.raises(ValueError):
                    sb_inv(b)


@given(nat2)
def test_sb_round_trip(s):
    b = sb(s)
    assert len(b) == sum(s) - 1
    assert b.count("1") == len(s) - 1
    assert sb_inv(b) == s


@given(bin1)
def test_sb_inv_round_trip(b):
    assert sb(sb_inv(b)) == b


def test_eta():
    assert eta_plus((3, 1)) == (1, 3, 1)
    assert eta_minus((3, 1)) == (3, 1, 1)


@given(nat1)
def test_t_g_cycles_fully(s):
    assert t_g(s) == s[1:] + s[:1]
    out = s
    for _ in range(len(s)):
        out = t_g(out)
    assert out == s


def test_t_z_cases():
    assert t_z((3, 1, 2)) == (2, 1, 3)
    assert t_z((1, 2)) == (2, 1)
    assert t_z((1, 2, 3)) == (3, 2, 1)
    assert t_z((1, 1, 2, 5)) == (2, 5, 1, 1)
    assert t_z((4,)) == (4,)
    assert t_z((1,)) == (1,)


@given(nat1)
def test_t_z_preserves_bead_count(s):
    assert sum(t_z(s)) == sum(s)
    assert all(q >= 1 for q in t_z(s))


def test_pinch_cases():
    assert pinch_left(()) == ()
    assert pinch_left((1,)) == (1,)
    assert pinch_left((3, 1)) == (1, 2, 1)
    assert pinch_left((1, 4, 2)) == (5, 2)
    assert pinch_right((3, 1)) == (4,)
    assert pinch_right((3, 2)) == (3, 1, 1)
    assert pinch_both((1, 1)) == (1, 1)
    assert pinch_both((1, 1, 1)) == (3,)


def pinch_right_by_cases(t):
    """pinch_right written out case by case: the reference for the mirror."""
    if len(t) <= 1 and (not t or t[0] == 1):
        return t
    if t[-1] >= 2:
        return t[:-1] + (t[-1] - 1, 1)
    return t[:-2] + (t[-2] + 1,)


def test_pinch_right_is_pinch_left_mirrored():
    for length in range(7):
        for t in product(range(1, 5), repeat=length):
            assert pinch_right(t) == pinch_right_by_cases(t), t


def test_knead_cases():
    assert knead((5,)) == (5,)
    assert knead((3,)) == (3,)
    assert knead((1, 3, 1, 1)) == (1, 2, 2, 1)
    assert knead((1, 1, 1)) == (1, 1, 1)
    with pytest.raises(ValueError):
        knead(())


@given(nat1)
def test_pinch_and_knead_preserve_bead_count(s):
    assert sum(pinch_left(s)) == sum(s)
    assert sum(pinch_right(s)) == sum(s)
    assert sum(knead(s)) == sum(s)


def test_zagier_shift_factors_through_pinching():
    # exhaustive at small scale; the verification suite runs this large
    for l in range(1, 5):
        for s in product((1, 2, 3), repeat=l):
            assert pinch_both(knead(pinch_both(s))) == t_z(s), s


def test_rotate_bin_cases():
    assert rotate_bin("0110") == "1100"
    assert rotate_bin("1000") == "0001"
    assert rotate_bin("10011") == "11001"
    ring = ["10011", "11001", "00111", "01110", "11100"]
    for cur, nxt in zip(ring, ring[1:] + ring[:1]):
        assert rotate_bin(cur) == nxt
    with pytest.raises(ValueError):
        rotate_bin("000")


@given(bin1)
def test_rotate_bin_is_a_rotation(b):
    r = rotate_bin(b)
    assert len(r) == len(b)
    assert r.count("1") == b.count("1")
    assert r in (b[i:] + b[:i] for i in range(len(b)))


@given(bin1)
def test_rotate_bin_orbit_returns(b):
    seen = {b}
    cur = rotate_bin(b)
    steps = 1
    while cur != b:
        assert steps <= len(b)
        seen.add(cur)
        cur = rotate_bin(cur)
        steps += 1


def test_primitive_examples():
    assert is_primitive("10011")
    assert not is_primitive("1010")
    assert not is_primitive("111")
    assert is_primitive("1")
    assert is_primitive((1, 2, 1))
    assert not is_primitive((2, 1, 2, 1))
    with pytest.raises(ValueError):
        is_primitive("")


def test_words_of_the_wrong_shape_raise_value_error():
    # a word is a str or a sequence of ints: a mapping or a set has no
    # order of entries, and an int or None is no sequence
    for fn in (is_primitive, least_rotation, primitive_root):
        for bad in ({1: 2}, {3, 1}, 5, None, b"\x01", (), [1.5, 2]):
            with pytest.raises(ValueError):
                fn(bad)
    assert least_rotation([3, "1", 2]) == (1, 2, 3)


def primitive_root_by_divisors(s):
    """The shortest block whose repetition is s, tried at each divisor of
    len(s): the reference for primitive_root's self-search on a str and
    for the period that _least_start reads on a tuple."""
    n = len(s)
    for d in range(1, n // 2 + 1):
        if n % d == 0 and s == s[:d] * (n // d):
            return s[:d]
    return s


def test_primitive_root_matches_the_divisor_loop():
    for n in range(1, 15):
        for bits in product("01", repeat=n):
            b = "".join(bits)
            assert primitive_root(b) == primitive_root_by_divisors(b), b
    beads = [(1,), (2, 1, 2, 1), (1, 2, 1), (3, 3, 3), (1, 2, 1, 2, 1),
             (5, 1, 5, 1, 5, 1), (10**6, 10**6)]
    beads += [tuple(t) for n in range(1, 7) for t in product((1, 2), repeat=n)]
    for t in beads:
        assert primitive_root(t) == primitive_root_by_divisors(t), t


@given(bin1)
def test_primitive_agrees_with_naive(b):
    naive = all(b[i:] + b[:i] != b for i in range(1, len(b)))
    assert is_primitive(b) == naive


def least_rotation_by_scan(s):
    return min(s[i:] + s[:i] for i in range(len(s)))


@given(st.text(alphabet="012", min_size=1, max_size=12))
def test_least_rotation_is_minimum(s):
    assert least_rotation(s) == least_rotation_by_scan(s)
    t = tuple(map(int, s))
    assert least_rotation(t) == least_rotation_by_scan(t)


class CountedReads(tuple):
    """A tuple that counts its reads by index, and so does s + s."""

    reads = 0

    def __add__(self, other):
        return CountedReads(tuple(self) + tuple(other))

    def __getitem__(self, i):
        CountedReads.reads += 1
        return tuple.__getitem__(self, i)


def test_least_start_is_linear():
    # each comparison raises i + j + k, which stays below 3n, so the scan
    # reads fewer than 6n entries; on 1^m 0 a scan that did not skip every
    # start that lost would read about m^2 of them
    rng = random.Random(5)
    words = [(1,) * 300 + (0,), (0,) * 300 + (1,), (1, 0) * 150 + (1,),
             (2, 1) * 100 + (1, 2) * 100]
    words += [tuple(rng.choice((0, 1)) for _ in range(300)) for _ in range(20)]
    for w in words:
        CountedReads.reads = 0
        r, p = _least_start(CountedReads(w))
        assert CountedReads.reads < 6 * len(w), (w, CountedReads.reads)
        assert w[r:] + w[:r] == least_rotation_by_scan(w)
        assert w[:p] == primitive_root_by_divisors(w)


def test_least_rotation_of_long_periodic_words():
    for block in ("1", "10", "0010", "0110100", "2101", (3, 1, 2), (0, 0, 5, 0)):
        for k in (1, 2, 7, 64, 501):
            w = block * k
            assert least_rotation(w) == least_rotation_by_scan(block) * k, (block, k)


@given(bin1)
def test_necklace_rotation_invariance(b):
    n = necklace(b)
    assert isinstance(n, Necklace)
    for i in range(len(b)):
        assert necklace(b[i:] + b[:i]) == n


def test_alternating_necklace_colors():
    # "1001": the two 1s are rotation-inequivalent once one is marked
    x = ColoredBin("1001", 0)
    y = ColoredBin("1001", 3)
    assert alternating_necklace(x) != alternating_necklace(y)
    # rotating bits and mark together changes nothing
    assert alternating_necklace(x) == alternating_necklace(ColoredBin("0110", 2))
    assert alternating_necklace(y) == alternating_necklace(ColoredBin("0110", 1))
    # with two 1s adjacent, one rotation swaps the colors
    assert alternating_necklace(ColoredBin("11", 0)) == \
        alternating_necklace(ColoredBin("11", 1))


def test_alternating_necklace_validation():
    with pytest.raises(ValueError):
        alternating_necklace(ColoredBin("1001", 1))
    with pytest.raises(ValueError):
        alternating_necklace(ColoredBin("1001", 7))
    # a plain (bits, green) pair is read like a ColoredBin
    want = alternating_necklace(ColoredBin("1001", 3))
    assert alternating_necklace(("1001", 3)) == alternating_necklace(["1001", 3]) == want
    # a str is not read one character at a time: "10" is not
    # ColoredBin("1", "0"); None and sequences of the wrong length are
    # the wrong shape too
    for bad in ("10", "101", None, 5, (), ("101",), ("101", 0, 1)):
        with pytest.raises(ValueError, match=r"expected a \(bits, green\) pair"):
            alternating_necklace(bad)


def test_alternating_necklace_coerces_the_mark():
    # the mark goes through as_int: a float is rejected, not used as an index
    with pytest.raises(ValueError):
        alternating_necklace(ColoredBin("101", 0.0))
    with pytest.raises(ValueError):
        alternating_necklace(ColoredBin("101", 2.0))
    # a decimal string is an integer at the boundary, as everywhere else
    assert alternating_necklace(ColoredBin("101", "0")) == \
        alternating_necklace(ColoredBin("101", 0))


@given(bin1, st.data())
def test_alternating_necklace_representative_independence(b, data):
    ones = [i for i, ch in enumerate(b) if ch == "1"]
    mark = data.draw(st.sampled_from(ones))
    base = alternating_necklace(ColoredBin(b, mark))
    assert isinstance(base, AlternatingNecklace)
    r = data.draw(st.integers(0, len(b) - 1))
    rb = b[r:] + b[:r]
    assert alternating_necklace(ColoredBin(rb, (mark - r) % len(b))) == base


def alternating_necklace_by_scan(x):
    """alternating_necklace by trying all n rotations: the quadratic reference."""
    bits, n = x.bits, len(x.bits)
    canon = least_rotation_by_scan(bits)
    ones = [i for i, ch in enumerate(bits) if ch == "1"]
    k = ones.index(x.green)
    # colors alternate around the cycle, starting green at the mark
    greens = (ones[k:] + ones[:k])[::2]
    phases = []
    for r in range(n):
        if bits[r:] + bits[:r] == canon:
            phases.extend((g - r) % n for g in greens)
    return AlternatingNecklace(canon, min(phases))


def assert_every_mark_matches_the_scan(b):
    for mark, ch in enumerate(b):
        if ch == "1":
            x = ColoredBin(b, mark)
            assert alternating_necklace(x) == alternating_necklace_by_scan(x), x


@given(bin1)
def test_alternating_necklace_matches_the_rotation_scan(b):
    assert_every_mark_matches_the_scan(b)


def test_alternating_necklace_on_periodic_blocks():
    # a string with primitive period p is fixed by every p-th rotation
    for block in ("1", "10", "01", "110", "1001", "10110", "0110100"):
        for k in range(1, 8):
            assert_every_mark_matches_the_scan(block * k)
    # past the scan's reach: every rotation by the period is a least one,
    # and the phase is the least over all of them
    n = 20000
    assert alternating_necklace(("1" * n, 7)) == AlternatingNecklace("1" * n, 0)
    assert alternating_necklace(("10" * n, 6)) == AlternatingNecklace("01" * n, 1)


def sb_bar_set(s):
    """sb as the bar set of partial sums, read gap by gap: the slow reference."""
    t = tuple(s)
    bars = set()
    acc = 0
    for q in t[:-1]:
        acc += q
        bars.add(acc)
    return "".join("1" if i in bars else "0" for i in range(1, sum(t)))


@given(st.lists(st.integers(1, 40), min_size=2, max_size=12))
def test_sb_matches_bar_set_construction(s):
    assert sb(s) == sb_bar_set(s)
    assert sb_inv(sb(s)) == tuple(s)


def test_check_nat_coercion():
    t = (3, 1, 4)
    assert check_nat(t) is t  # a tuple of ints is not rebuilt
    assert check_nat(["3", 1]) == (3, 1)
    # a str or bytes is not read one digit or byte at a time
    for bad in ((1.5, 2), (2, 2.0), ("1.5", 2), (None, 1), ("x", 1),
                "31", b"\x03\x01"):
        with pytest.raises(ValueError):
            check_nat(bad)


def test_string_moves_check_their_input():
    with pytest.raises(ValueError):
        sb((3,))
    with pytest.raises(ValueError):
        sb((2, 0, 1))
    with pytest.raises(ValueError):
        t_z((1.5, 2))
    with pytest.raises(ValueError):
        eta_plus((0,))
    with pytest.raises(ValueError):
        eta_plus("5")
    with pytest.raises(ValueError):
        sb("21")
    with pytest.raises(ValueError):
        tau("31")
