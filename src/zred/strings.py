"""Bead strings, binary strings, necklaces, and their transfer moves.

A NatString is a tuple of positive integers; a BinString is a str over
{0, 1}. The stars-and-bars bijection sb ties the two together, and the
moves t_z, t_g, rotate_bin are the string shadows of the reduction
operators on forms.
"""

from __future__ import annotations

from typing import NamedTuple

from .forms import as_int, as_ints


def check_nat(s, min_len: int = 1) -> tuple:
    """s as a tuple of at least min_len positive ints, else ValueError.

    Entries are coerced by forms.as_ints, so 1.5 and the str "31" are
    rejected rather than truncated or read digit by digit; a tuple of ints
    is returned as it is, not rebuilt.
    """
    t = s
    if type(t) is not tuple or not all(type(q) is int for q in t):
        t = as_ints(s)
    if len(t) < min_len:
        raise ValueError(f"need at least {min_len} entries, got {t}")
    if t and min(t) < 1:
        raise ValueError(f"entries must be positive integers, got {t}")
    return t


def check_bin(b: str, min_weight: int = 0) -> str:
    """b itself, after checking it is a nonempty str over 0/1 with at least
    min_weight ones; ValueError otherwise.  Stripping 0s and 1s from both
    ends leaves nothing exactly when no other character occurs."""
    if not isinstance(b, str) or not b or b.strip("01"):
        raise ValueError(f"need a nonempty string over 0/1, got {b!r}")
    if b.count("1") < min_weight:
        raise ValueError(f"need at least {min_weight} ones, got {b!r}")
    return b


def sb(s) -> str:
    """Stars and bars: (q1, ..., ql) to the bar picture of its partial sums.

    The output has length q1 + ... + ql - 1 with a 1 at each gap where a
    partial sum q1 + ... + qi lands, so sb((2, 1, 3)) = '01100'.  Needs at
    least two entries; a single entry would leave no bar.
    """
    return _sb(check_nat(s, min_len=2))


def _sb(t: tuple) -> str:
    # block q is q - 1 stars; a bar separates consecutive blocks
    return "1".join(["0" * (q - 1) for q in t])


def sb_inv(b: str):
    """Inverse of sb: gaps with a 1 cut 1..m+1 into consecutive blocks."""
    check_bin(b, min_weight=1)
    # the bars cut b into runs of stars, each run one short of its entry
    return tuple(len(block) + 1 for block in b.split("1"))


def eta_plus(s) -> tuple:
    """Prepend a 1."""
    return (1,) + check_nat(s)


def eta_minus(s) -> tuple:
    """Append a 1."""
    return check_nat(s) + (1,)


def t_g(s) -> tuple:
    """Cyclic left shift, the string shadow of the Gauss step."""
    t = check_nat(s)
    return t[1:] + t[:1]


def t_z(s) -> tuple:
    """String shadow of the Zagier step on bead strings.

    Moves one unit from the first entry to the last when the first entry
    exceeds 1; a leading 1 instead gets carried behind a reversed pair
    (length 2) or sent to the back together with the second entry.
    """
    t = check_nat(s)
    l = len(t)
    if l == 1:
        return t
    if t[0] >= 2:
        return (t[0] - 1,) + t[1:-1] + (t[-1] + 1,)
    if l == 2:
        return (t[1], t[0])
    return t[2:] + (t[1], t[0])


def pinch_left(s) -> tuple:
    """Left pinch: q1 >= 2 splits off a 1, a leading 1 melts into q2.

    Fixes (1) and the empty string.
    """
    t = check_nat(s, min_len=0)
    if len(t) <= 1 and (not t or t[0] == 1):
        return t
    if t[0] >= 2:
        return (1, t[0] - 1) + t[1:]
    return (t[1] + 1,) + t[2:]


def pinch_right(s) -> tuple:
    """Mirror image of pinch_left."""
    return pinch_left(check_nat(s, min_len=0)[::-1])[::-1]


def pinch_both(s) -> tuple:
    return pinch_right(pinch_left(s))


def knead(s) -> tuple:
    """Remove the leftmost entry, pinch both ends of the rest, append it.

    A single entry survives unchanged: the remainder is empty and pinching
    fixes the empty string.
    """
    t = check_nat(s, min_len=1)
    return pinch_both(t[1:]) + (t[0],)


def rotate_bin(b: str) -> str:
    """Necklace rotation matching the Zagier step through sigma.

    A leading 0 moves to the back; with a single 1 in front of zeros that
    1 moves to the back; otherwise the block through the second 1 wraps.
    """
    b = check_bin(b, min_weight=1)
    if b[0] == "0":
        return b[1:] + "0"
    if b.count("1") == 1:
        return b[1:] + "1"
    j = b.index("1", 1)
    return b[j + 1:] + b[: j + 1]


def primitive_root(s):
    """Shortest block whose repetition is s, a str or a tuple.

    On a str the block is s up to the least shift that maps s onto
    itself, which is the first match of s inside s + s past index 0;
    that shift always divides len(s).
    """
    n = len(s)
    if n == 0:
        raise ValueError("primitivity needs a nonempty string")
    if isinstance(s, str):
        return s[:(s + s).find(s, 1)]
    for d in range(1, n // 2 + 1):
        if n % d == 0 and s == s[:d] * (n // d):
            return s[:d]
    return s


def is_primitive(s) -> bool:
    """True when the string is not a repetition of a shorter block."""
    return len(primitive_root(s)) == len(s)


def least_rotation(s):
    """Lexicographically smallest rotation, by Booth's algorithm."""
    n = len(s)
    if n == 0:
        raise ValueError("need a nonempty string")
    ss = s + s
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = ss[j]
        i = f[j - k - 1]
        while i != -1 and sj != ss[k + i + 1]:
            if sj < ss[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != ss[k + i + 1]:
            if sj < ss[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return ss[k:k + n]


class Necklace(NamedTuple):
    """A cyclic word, stored as its least rotation."""

    canonical: str


class AlternatingNecklace(NamedTuple):
    """A cyclic word with ones 2-colored alternately around the cycle.

    phase is the least index of a distinguished-color 1 in the canonical
    rotation, over all rotations realizing it.
    """

    canonical: str
    phase: int


class ColoredBin(NamedTuple):
    """A binary string with one 1 marked as the distinguished color."""

    bits: str
    green: int


def necklace(b: str) -> Necklace:
    return Necklace(least_rotation(check_bin(b, min_weight=1)))


def _greens(bits: str, green: int) -> list:
    bits, green = check_bin(bits, min_weight=1), as_int(green)
    if not (0 <= green < len(bits)) or bits[green] != "1":
        raise ValueError(f"marked position {green} of {bits!r} must hold a 1")
    ones = [i for i, ch in enumerate(bits) if ch == "1"]
    k = ones.index(green)
    # walk the ones cyclically from the mark; every second one shares its color
    return [ones[(k + j) % len(ones)] for j in range(0, len(ones), 2)]


def alternating_necklace(x: ColoredBin) -> AlternatingNecklace:
    """The alternating necklace of x, a ColoredBin or a (bits, green) pair.

    Like as_form with a triple, a str is rejected rather than read one
    character at a time, so "10" is not taken for ColoredBin("1", "0");
    so is anything else that is not a pair, with ValueError.
    """
    try:
        bits, green = () if isinstance(x, (str, bytes)) else x
    except (TypeError, ValueError):  # a str, not iterable, or not a pair
        raise ValueError(f"expected a (bits, green) pair, got {x!r}") from None
    greens = _greens(bits, green)
    canon = least_rotation(bits)
    n = len(bits)
    # the rotations fixing bits are the multiples of its primitive period
    r0, step = (bits + bits).find(canon), len(primitive_root(bits))
    phases = ((g - r) % n for r in range(r0, n, step) for g in greens)
    return AlternatingNecklace(canon, min(phases))
