"""Form arithmetic and the substitution action."""

from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

import zred
from zred import contfrac, oracle, strings
from zred import forms as forms_module
from zred.forms import (
    Form,
    UnimodularMatrix,
    act,
    as_form,
    as_int,
    as_ints,
    check_delta,
    check_indefinite,
    form,
    form_to_json,
    nonsquare_isqrt,
)
from zred.strings import check_nat

T = UnimodularMatrix(1, 1, 0, 1)
L = UnimodularMatrix(1, 0, 1, 1)
IDENT = UnimodularMatrix(1, 0, 0, 1)

coeff = st.integers(min_value=-50, max_value=50)
forms = st.builds(Form, coeff, coeff, coeff)


@st.composite
def unimodular(draw):
    """Random word in the two triangular generators."""
    m = IDENT
    for g, k in draw(st.lists(st.tuples(st.sampled_from((T, L)),
                                        st.integers(0, 4)), max_size=6)):
        for _ in range(k):
            m = m @ g
    return m


def test_det_and_product():
    assert T.det() == L.det() == IDENT.det() == 1
    assert (T @ L).det() == 1
    assert T @ IDENT == IDENT @ T == T
    assert UnimodularMatrix(0, -1, 1, 0).det() == 1
    assert UnimodularMatrix(1, 0, 0, -1).det() == -1


@given(unimodular(), unimodular(), unimodular())
def test_matmul_associative(m, n, k):
    assert (m @ n) @ k == m @ (n @ k)


@given(forms, unimodular(), unimodular())
def test_action_composes(f, m, n):
    assert act(act(f, m), n) == act(f, m @ n)


@given(forms, unimodular())
def test_action_preserves_discriminant_and_content(f, m):
    g = act(f, m)
    assert g.discriminant() == f.discriminant()
    if f != Form(0, 0, 0):
        assert g.content() == f.content()


def test_action_requires_det_one():
    with pytest.raises(ValueError):
        act(Form(1, 5, 2), UnimodularMatrix(1, 0, 0, -1))
    with pytest.raises(ValueError):
        act(Form(1, 5, 2), UnimodularMatrix(2, 0, 0, 2))


def test_worked_action():
    # x -> x + y sends (1, 3, -2) to (1, 5, 2)
    assert act(Form(1, 3, -2), T) == Form(1, 5, 2)


def test_reduced_predicates():
    assert Form(1, 5, 2).is_z_reduced()
    assert not Form(1, 5, 2).is_g_reduced()
    assert Form(1, 3, -2).is_g_reduced()
    assert Form(-2, 3, 1).is_g_reduced()
    assert not Form(1, 3, -2).is_z_reduced()
    assert not Form(1, 3, 2).is_z_reduced()  # b = a + c is excluded
    assert not Form(1, 2, -3).is_g_reduced()  # b = |a + c| is excluded


def test_indefinite_check():
    assert Form(1, 5, 2).is_indefinite()
    assert check_indefinite(Form(1, 5, 2)) == 17
    for f in (Form(1, 3, 2), Form(1, 0, 1), Form(1, 0, -1), Form(2, 4, 2)):
        assert not f.is_indefinite()
        with pytest.raises(ValueError):
            check_indefinite(f)
    with pytest.raises(ValueError):
        check_indefinite((1.5, 5, 2))


def test_action_checks_its_input():
    # plain tuples and decimal strings are integers; floats are rejected
    assert act(Form(1, 5, 2), (1, 1, 0, 1)) == act(Form(1, 5, 2), T) == Form(1, 7, 8)
    assert act(("1", "3", "-2"), T) == Form(1, 5, 2)
    for f, m in ((Form(1.5, 2, 1), IDENT), (Form(1, 5, 2), (1.0, 1, 0, 1)),
                 (Form(1, 5, 2), UnimodularMatrix(1, 0.5, 0, 1))):
        with pytest.raises(ValueError):
            act(f, m)


def test_content_scaling():
    f = Form(2, 10, 4)
    assert f.content() == 2
    assert not f.is_primitive()
    assert Form(1, 5, 2).is_primitive()
    with pytest.raises(ValueError):
        Form(0, 0, 0).content()


def test_reverse_and_rho_are_involutions():
    f = Form(1, 3, -2)
    assert f.reverse() == Form(-2, 3, 1)
    assert f.rho() == Form(-1, 3, 2)
    assert f.reverse().reverse() == f
    assert f.rho().rho() == f
    assert f.reverse().discriminant() == f.discriminant()
    assert f.rho().discriminant() == f.discriminant()


def test_str_and_json():
    f = Form(1, 5, 2)
    assert str(f) == "(1, 5, 2)"
    assert form_to_json(f) == ["1", "5", "2"]
    # as_form reads the wire format back
    assert as_form(["1", "5", "2"]) == f
    big = Form(10**40, -(10**41), 3)
    assert as_form(form_to_json(big)) == big
    with pytest.raises(ValueError):
        as_form(["1", "2"])
    with pytest.raises(ValueError):
        as_form("nope")
    # form_to_json reads a plain triple like as_form, and nothing else
    assert form_to_json((1, 2, 3)) == ["1", "2", "3"]
    assert form_to_json(["-7", 0, 2]) == ["-7", "0", "2"]
    for bad in (5, None, (1, 2), "123", {1, 2, 3}, (1.5, 2, 3)):
        with pytest.raises(ValueError):
            form_to_json(bad)


def test_form_coerces_to_int():
    assert form(1, 5, 2) == Form(1, 5, 2)
    assert form("1", "5", "2") == Form(1, 5, 2)


def test_non_integral_coefficients_are_rejected():
    for bad in ((1.9, 5, 1), (1, 5.0, 1), (1, 5, "2.5"), (1, None, 2)):
        with pytest.raises(ValueError):
            form(*bad)
    with pytest.raises(ValueError):
        as_form(["1", "5.5", "2"])
    assert as_int(" 7 ") == 7 and as_int(-(10**40)) == -(10**40)


# a value of the wrong shape, not iterable or of the wrong length, where a
# form, a matrix, a surd triple or a string is expected
MALFORMED = [
    (zred.tau, (5,)), (zred.continuant, (5,)), (zred.sb, (None,)),
    (zred.t_z, (7,)), (zred.neg_to_reg_stream, (3, 3)),
    (zred.gamma, ((1, 3),)), (zred.beta, ((1, 5, 2, 0),)), (zred.mu, (7,)),
    (zred.orbit_to_cycle, ((1, 2),)), (zred.z_caliber, (None,)),
    (zred.act, ((1, 2, 3), 5)), (zred.denjoy_surd, ((1, 2), 3)),
    (zred.reg_cf_period, (5,)),
]


@pytest.mark.parametrize("fn, args", MALFORMED,
                         ids=[fn.__name__ for fn, _ in MALFORMED])
def test_malformed_shapes_raise_value_error(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


# collections whose iteration order is not an order of entries
UNORDERED = {
    "set": set, "frozenset": frozenset, "dict": dict.fromkeys,
    "mappingproxy": lambda t: MappingProxyType(dict.fromkeys(t)),
    "dict_keys": lambda t: dict.fromkeys(t).keys(),
}


@pytest.mark.parametrize("kind", UNORDERED)
def test_unordered_collections_raise_value_error(kind):
    # {5, 1, 2} iterates as 1, 2, 5 and would pass for the form (1, 2, 5)
    make = UNORDERED[kind]
    for fn, t in ((as_ints, (5, 1, 2)), (as_form, (5, 1, 2)),
                  (zred.tau, (3, 1, 2)), (check_nat, (3, 1, 2)),
                  (zred.continuant, (3, 1, 2)), (zred.reg_cf_period, (1, 2, 5)),
                  (lambda m: act((1, 5, 2), m), (1, 2, 0, 1))):
        with pytest.raises(ValueError, match="expected a sequence of integers"):
            fn(make(t))


def test_discriminant_checks():
    assert nonsquare_isqrt(17) == 4
    assert nonsquare_isqrt(10**40 + 1) == 10**20
    assert check_delta("17") == 17
    for bad in (-5, 0, 1, 9, 10**40):
        with pytest.raises(ValueError):
            nonsquare_isqrt(bad)
        with pytest.raises(ValueError):
            check_delta(bad)
    with pytest.raises(ValueError):
        check_delta(17.0)


# as_form and act return a Form or a matrix of exact ints as they are; the
# references below are their bodies before that fast path, which rebuilt
# every value through as_ints


def as_form_reference(f):
    return Form._make(as_ints(f, 3))


def act_reference(f, m):
    a, b, c = as_form_reference(f)
    m = UnimodularMatrix._make(as_ints(m, 4))
    if m.det() != 1:
        raise ValueError(f"matrix {m} is not unimodular (det {m.det()})")
    al, be, ga, de = m
    return Form(
        a * al * al + b * al * ga + c * ga * ga,
        2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de,
        a * be * be + b * be * de + c * de * de,
    )


class FormSub(Form):
    pass


class MatrixSub(UnimodularMatrix):
    pass


def outcome(fn, *args):
    """fn's result with its type, or its exception's type and message."""
    try:
        r = fn(*args)
    except Exception as e:
        return type(e), str(e)
    return type(r), r


odd = st.one_of(st.booleans(), st.floats(), st.fractions(max_denominator=3),
                st.sampled_from(["7", " -3 ", "2.5"]))


@st.composite
def entries(draw, n):
    """n small ints, some of them replaced by values that are not ints."""
    xs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1))):
        xs[i] = draw(odd)
    return xs


def shapes(cls, sub, n):
    """cls, a subclass, a tuple or a list of n entries, or a tuple of
    another length."""
    return st.one_of(
        entries(n).map(lambda xs: cls(*xs)),
        entries(n).map(lambda xs: sub(*xs)),
        entries(n).map(tuple),
        entries(n),
        st.lists(st.one_of(st.integers(-3, 3), odd), max_size=n + 1)
        .filter(lambda xs: len(xs) != n).map(tuple),
    )


@given(shapes(Form, FormSub, 3))
def test_as_form_matches_the_rebuilding_reference(f):
    assert outcome(as_form, f) == outcome(as_form_reference, f)


@given(st.one_of(forms, shapes(Form, FormSub, 3)),
       st.one_of(shapes(UnimodularMatrix, MatrixSub, 4), unimodular()))
def test_act_matches_the_rebuilding_reference(f, m):
    assert outcome(act, f, m) == outcome(act_reference, f, m)


ODD = (True, False, 1.0, 2.5, float("nan"), Fraction(3), Fraction(1, 2), "7", "2.5")


def test_each_spoiled_field_matches_the_rebuilding_reference():
    f, m = [1, 5, 2], [1, 1, 0, 1]
    for i, x in ((i, x) for i in range(4) for x in ODD):
        m2 = m[:i] + [x] + m[i + 1:]
        for mm in (UnimodularMatrix(*m2), MatrixSub(*m2), tuple(m2)):
            assert outcome(act, Form(*f), mm) == outcome(act_reference, Form(*f), mm)
        if i < 3:
            f2 = f[:i] + [x] + f[i + 1:]
            for ff in (Form(*f2), FormSub(*f2), tuple(f2), f2):
                assert outcome(as_form, ff) == outcome(as_form_reference, ff)
                assert outcome(act, ff, T) == outcome(act_reference, ff, T)


@given(forms)
def test_as_form_returns_a_form_of_ints_itself(f):
    assert as_form(f) is f
    assert type(as_form(FormSub(*f))) is Form
    assert as_form(Form(True, f.b, f.c)) == Form(1, f.b, f.c)


def test_typed_values_are_not_rebuilt(monkeypatch):
    f, g = Form(1, 5, 2), Form(1, 3, -2)
    calls = [(zred.beta, f), (zred.sigma, f), (zred.r_z, f), (zred.sigma_bar, f),
             (zred.z_caliber, f), (zred.orbit_to_cycle, f), (check_indefinite, f),
             (zred.mu, g), (zred.gamma, g), (zred.r_g, g), (form_to_json, f)]
    want = [fn(list(x)) for fn, x in calls] + [act(list(f), list(T))]
    # a cold Pell unit and one lgz unit, which walk periods below the boundary
    pell = zred.fundamental_solution
    want += [pell(61), oracle._work((oracle._lgz_forms, 21))]

    def no_coercion(*args):
        raise AssertionError("as_ints was called")

    # every module that binds as_ints
    for module in (forms_module, contfrac, strings):
        monkeypatch.setattr(module, "as_ints", no_coercion)
    got = [fn(x) for fn, x in calls] + [act(f, T)]
    pell.cache_clear()
    got += [pell(61), oracle._work((oracle._lgz_forms, 21))]
    assert got == want
    with pytest.raises(AssertionError):
        as_form([1, 5, 2])


# every public entry point that takes one form
FORM_ENTRIES = [
    zred.beta, zred.sigma, zred.gamma, zred.mu, zred.denjoy_period,
    zred.sigma_bar, zred.r_z, zred.r_g, zred.reducing_number,
    zred.orbit_to_cycle, zred.z_caliber, check_indefinite,
]


@pytest.mark.parametrize("fn", FORM_ENTRIES, ids=[fn.__name__ for fn in FORM_ENTRIES])
@given(f=forms)
def test_form_entries_agree_on_forms_and_lists(fn, f):
    # a list takes the rebuilding path, a Form of ints the fast path
    assert outcome(fn, f) == outcome(fn, list(f))
    with pytest.raises(ValueError, match="expected an integer, got 1.5"):
        as_form(Form(1.5, 2, 1))
