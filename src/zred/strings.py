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


def check_bin(b: str) -> str:
    """b itself, if it is a str over 0/1 with at least one 1; else
    ValueError.  b.strip("01") is empty exactly when only 0s and 1s occur."""
    if not isinstance(b, str) or b.strip("01") or "1" not in b:
        raise ValueError(f"need a string over 0/1 with at least one 1, got {b!r}")
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
    check_bin(b)
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
    exceeds 1; a leading 1 instead goes to the back, behind the second
    entry, so (1, q2, q3, ..., ql) becomes (q3, ..., ql, q2, 1).
    """
    t = check_nat(s)
    if len(t) == 1:
        return t
    if t[0] >= 2:
        return (t[0] - 1,) + t[1:-1] + (t[-1] + 1,)
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
    b = check_bin(b)
    if b[0] == "0":
        return b[1:] + "0"
    if b.count("1") == 1:
        return b[1:] + "1"
    j = b.index("1", 1)
    return b[j + 1:] + b[: j + 1]


def _word(s):
    """s as a nonempty str, or else as a tuple through as_ints."""
    s = s if isinstance(s, str) else as_ints(s)
    if not s:
        raise ValueError("need a nonempty string")
    return s


def primitive_root(s):
    """Shortest block whose repetition is s, a str or a sequence of ints.

    On a str the block is s up to the least shift that maps s onto
    itself, which is the first match of s inside s + s past index 0;
    that shift always divides len(s).
    """
    s = _word(s)
    if isinstance(s, str):
        return s[:(s + s).find(s, 1)]
    return s[:_least_start(s)[1]]


def is_primitive(s) -> bool:
    """True when the string is not a repetition of a shorter block."""
    return len(primitive_root(s)) == len(s)


def _least_start(s) -> tuple:
    """(r, p): the least start r of the least rotation of s and its
    primitive period p.  Every start below j but i has lost; if i and j
    agree on k entries and then i is larger, each of i, ..., i + k loses
    to the start as far past j.  Agreeing on n entries, r = i and p = j - i."""
    n, ss = len(s), s + s
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = ss[i + k], ss[j + k]
        if a == b:
            k += 1
            continue
        if a < b:
            j, k = j + k + 1, 0
        else:
            i, j, k = j, max(j, i + k) + 1, 0
    return i, (j - i if k == n else n)


def least_rotation(s):
    """Lexicographically smallest rotation of s, a str or a sequence of ints."""
    s = _word(s)
    r = _least_start(s)[0]
    return s[r:] + s[:r]


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
    return Necklace(least_rotation(check_bin(b)))


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
    bits, green = check_bin(bits), as_int(green)
    if not (0 <= green < len(bits)) or bits[green] != "1":
        raise ValueError(f"marked position {green} of {bits!r} must hold a 1")
    return _alternating_necklace(bits, green)


def _alternating_necklace(bits: str, green: int) -> AlternatingNecklace:
    ones = [i for i, ch in enumerate(bits) if ch == "1"]
    k = ones.index(green)
    # walk the ones cyclically from the mark; every second one shares its color
    greens = [ones[(k + j) % len(ones)] for j in range(0, len(ones), 2)]
    # every least rotation starts at r0 + m*p, the nearest (g - r0) % p before g
    r0, p = _least_start(bits)
    return AlternatingNecklace(bits[r0:] + bits[:r0], min((g - r0) % p for g in greens))
