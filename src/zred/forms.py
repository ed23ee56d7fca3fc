"""Integer binary quadratic forms and the unimodular substitution action.

A form (a, b, c) stands for a*x^2 + b*x*y + c*y^2.  Everything here is exact
integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, Set as AbstractSet
from typing import NamedTuple


class Form(NamedTuple):
    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        """gcd of the coefficients; errors on the zero form."""
        g = math.gcd(self.a, self.b, self.c)
        if g == 0:
            raise ValueError("zero form has no content")
        return g

    def is_primitive(self) -> bool:
        return self.content() == 1

    def is_indefinite(self) -> bool:
        """True when the discriminant is positive and not a perfect square."""
        d = self.discriminant()
        return d > 0 and math.isqrt(d) ** 2 != d

    def is_g_reduced(self) -> bool:
        """Gauss-reduced: a*c < 0 and b > |a + c|."""
        return self.a * self.c < 0 and self.b > abs(self.a + self.c)

    def is_z_reduced(self) -> bool:
        """Zagier-reduced: a, b, c all positive and b > a + c."""
        return self.a > 0 and self.c > 0 and self.b > self.a + self.c

    def reverse(self) -> "Form":
        """Swap the outer coefficients: (a, b, c) -> (c, b, a)."""
        return Form(self.c, self.b, self.a)

    def rho(self) -> "Form":
        """Flip the signs of the outer coefficients: (a, b, c) -> (-a, b, -c)."""
        return Form(-self.a, self.b, -self.c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


class UnimodularMatrix(NamedTuple):
    alpha: int
    beta: int
    gamma: int
    delta: int

    def det(self) -> int:
        return self.alpha * self.delta - self.beta * self.gamma

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.alpha * other.alpha + self.beta * other.gamma,
            self.alpha * other.beta + self.beta * other.delta,
            self.gamma * other.alpha + self.delta * other.gamma,
            self.gamma * other.beta + self.delta * other.delta,
        )


def as_int(x) -> int:
    """x as an int: the one coercion rule at the public boundary.

    Integers (anything operator.index accepts) and decimal strings pass;
    anything else, floats included, raises ValueError rather than being
    truncated.
    """
    if type(x) is int:
        return x
    if isinstance(x, str):
        return int(x)
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"expected an integer, got {x!r}") from None


def as_ints(s, n: int | None = None) -> tuple:
    """s as a tuple of ints, each coerced by as_int; of length n if given.

    A str or bytes is rejected rather than read one character at a time,
    so "31" is not taken for (3, 1); so are a set, a frozenset and a
    mapping, whose iteration order is not an order of entries, anything
    not iterable, and a sequence of the wrong length, all with ValueError.
    """
    if not isinstance(s, (tuple, list)) \
            and isinstance(s, (str, bytes, AbstractSet, Mapping)):
        raise ValueError(f"expected a sequence of integers, got {s!r}")
    try:
        t = tuple(map(as_int, s))
    except TypeError:  # s is not iterable
        raise ValueError(f"expected a sequence of integers, got {s!r}") from None
    if n is not None and len(t) != n:
        raise ValueError(f"expected {n} integers, got {s!r}")
    return t


def nonsquare_isqrt(delta: int) -> int:
    """isqrt(delta), after checking that delta is a positive nonsquare."""
    if delta > 0:
        s = math.isqrt(delta)
        if s * s != delta:
            return s
    raise ValueError(f"discriminant must be a positive nonsquare, got {delta}")


def check_delta(delta) -> int:
    """delta coerced by as_int, after checking it is a positive nonsquare."""
    delta = as_int(delta)
    nonsquare_isqrt(delta)
    return delta


def form(a: int, b: int, c: int) -> Form:
    """Form from coefficients coerced by as_int."""
    return Form(as_int(a), as_int(b), as_int(c))


def as_form(f) -> Form:
    """f, a sequence of three integers, as a Form; ValueError otherwise.

    A Form of three ints is returned as it is, not rebuilt, so a value
    passed from one public call to the next is checked in constant time;
    anything else, Form subclasses included, goes through as_ints.
    """
    if type(f) is Form and type(f[0]) is int and type(f[1]) is int \
            and type(f[2]) is int:
        return f
    return Form._make(as_ints(f, 3))


def act(f: Form, m: UnimodularMatrix) -> Form:
    """Right action by substitution: f(alpha*x + beta*y, gamma*x + delta*y).

    Requires det(m) == 1, so the action composes: act(act(f, M), N) equals
    act(f, M @ N).
    """
    a, b, c = as_form(f)
    if not (type(m) is UnimodularMatrix and type(m[0]) is int
            and type(m[1]) is int and type(m[2]) is int and type(m[3]) is int):
        m = UnimodularMatrix._make(as_ints(m, 4))
    if m.det() != 1:
        raise ValueError(f"matrix {m} is not unimodular (det {m.det()})")
    al, be, ga, de = m
    return Form(
        a * al * al + b * al * ga + c * ga * ga,
        2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de,
        a * be * be + b * be * de + c * de * de,
    )


def check_indefinite(f: Form) -> int:
    """Return the discriminant after checking it is positive and nonsquare."""
    d = as_form(f).discriminant()
    nonsquare_isqrt(d)
    return d


def form_to_json(f: Form) -> list:
    """Coefficients as decimal strings, the wire format for forms.

    f is read like as_form reads it, but a Form passes on its type alone:
    the command line writes one line per form of a long cycle.
    """
    if type(f) is not Form:
        f = as_form(f)
    return [str(f.a), str(f.b), str(f.c)]
