import pickle
import sys
from fractions import Fraction
from math import log10

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bialgebra_forge.errors import InputError
from bialgebra_forge.scalars import I, ONE, Scalar, ZERO, check_power, format_scalar
from bialgebra_forge.exprparse import parse_scalar_text


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)


def test_basic_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(3, 4))
    b = Scalar(2, -1)
    assert a + b == Scalar(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == Scalar(Fraction(7, 4), 1)
    assert -a == Scalar(Fraction(-1, 2), Fraction(-3, 4))
    assert I * I == Scalar(-1)


def test_division_and_inverse():
    a = Scalar(3, 4)
    assert a / a == ONE
    assert (ONE / I) == -I
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers():
    assert I ** 2 == Scalar(-1)
    assert I ** -1 == -I
    assert Scalar(2) ** 10 == Scalar(1024)


def test_powers_square_and_multiply(monkeypatch):
    """Scalar(3)**k makes k.bit_length() - 1 squarings and popcount(k) - 1
    further products, counted through Scalar.__mul__: none for k = 0 or 1."""
    products = 0
    product = Scalar.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return product(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    for k in range(40):
        products = 0
        assert Scalar(3) ** k == Scalar(3 ** k)
        assert products == (k.bit_length() + bin(k).count("1") - 2 if k else 0), k


def test_equality_is_canonical():
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2))
    assert hash(Scalar(Fraction(2, 4))) == hash(Scalar(Fraction(1, 2)))
    assert Scalar(3) == 3
    assert Scalar(0, 1) != 1
    # equal values hash equal, so sets and dict keys merge them
    assert hash(Scalar(1)) == hash(1)
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({Scalar(1), 1}) == 1
    assert len({Scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({Scalar(1), Scalar(1, 1), Scalar(0, 1)}) == 3


@pytest.mark.parametrize("text, expected", [
    ("1/2", Scalar(Fraction(1, 2))),
    ("i", I),
    ("-i", -I),
    ("-3*i/4", Scalar(0, Fraction(-3, 4))),
    ("-3i/4", Scalar(0, Fraction(-3, 4))),
    ("0", ZERO),
    ("7", Scalar(7)),
])
def test_scalar_literals(text, expected):
    assert parse_scalar_text(text) == expected


@given(scalars)
def test_format_round_trip(s):
    assert parse_scalar_text(format_scalar(s)) == s


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if b:
        assert (a / b) * b == a


# -- independent oracle: sympy's exact Gaussian rationals ----------------------

nonzero_scalars = scalars.filter(bool)


def to_sympy(s: Scalar):
    return sympy.Rational(s.re) + sympy.I * sympy.Rational(s.im)


def agrees(s: Scalar, expr) -> bool:
    """s equals the sympy number expr, read as re + im*i."""
    expr = sympy.expand_complex(expr)
    return to_sympy(s) == sympy.re(expr) + sympy.I * sympy.im(expr)


def assert_canonical(s: Scalar):
    """s is stored in lowest terms with a positive denominator: rebuilt
    from its reduced parts it is equal and hashes equal (equality is
    structural), and it pickles back to itself."""
    assert isinstance(s.re, Fraction) and isinstance(s.im, Fraction)
    rebuilt = Scalar(s.re, s.im)
    assert s == rebuilt and hash(s) == hash(rebuilt)
    back = pickle.loads(pickle.dumps(s))
    assert back == s and hash(back) == hash(s)
    if not s.im:
        assert s == s.re and hash(s) == hash(s.re)
        if s.re.denominator == 1:
            assert s == s.re.numerator and hash(s) == hash(s.re.numerator)
    else:
        assert s != s.re and s != s.re.numerator


@given(scalars, scalars)
@settings(max_examples=80, deadline=None)
def test_field_operations_match_sympy(a, b):
    x, y = to_sympy(a), to_sympy(b)
    for got, expected in ((a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x)):
        assert_canonical(got)
        assert agrees(got, expected)
    if b:
        assert_canonical(a / b)
        assert agrees(a / b, x / y)


@given(nonzero_scalars, st.integers(-4, 6))
@settings(max_examples=60, deadline=None)
def test_powers_match_sympy(a, n):
    got = a ** n
    assert_canonical(got)
    assert agrees(got, to_sympy(a) ** n)


@pytest.mark.parametrize("value", [0, 1, -7, Fraction(3, 4), Fraction(-5, 6)])
def test_real_values_compare_and_hash_like_their_numbers(value):
    s = Scalar(value)
    assert_canonical(s)
    assert s == value and hash(s) == hash(value)
    assert Scalar(value) + Scalar(0, 1) != value


def test_scalars_with_common_factors_reduce():
    # (2 + 2i)/4 and (1 + i)/2 are one element; so are 1/2 + 1/2 and 1
    half = Scalar(Fraction(1, 2))
    assert half + half == ONE and hash(half + half) == hash(1)
    assert Scalar(Fraction(1, 2), Fraction(1, 2)) * Scalar(2) == Scalar(1, 1)
    assert Scalar(1, 1) / Scalar(2, 2) == half
    for s in (half + half, Scalar(1, 1) / Scalar(2, 2), Scalar(0, 1) / Scalar(0, -3)):
        assert_canonical(s)


# the interpreter's smallest digit limit keeps the powers below small
LOW_LIMIT = 640


@given(scalars, st.integers(1, 4000))
@settings(max_examples=60, deadline=None)
def test_power_check_refuses_only_powers_that_cannot_be_printed(c, n):
    # a refused power prints a part past the digit limit; an admitted one
    # has height at most 2*limit + 1, and no part of a value has more
    # digits than twice its height
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LOW_LIMIT)
    try:
        try:
            check_power(c, n)
            refused = False
        except InputError:
            refused = True
        value = c ** n
        if refused:
            with pytest.raises(InputError, match="too many to print"):
                format_scalar(value)
        else:
            parts = (value.re.numerator, value.im.numerator,
                     value.re.denominator, value.im.denominator)
            assert max(log10(abs(p)) for p in parts if p) <= 2 * (2 * LOW_LIMIT + 1)
    finally:
        sys.set_int_max_str_digits(saved)


def test_powers_of_zero_and_roots_of_unity_are_never_refused():
    for c in (ZERO, ONE, -ONE, I, -I):
        check_power(c, 10 ** 4000)
    with pytest.raises(InputError, match="a power would give a coefficient"):
        check_power(Scalar(Fraction(3, 5), Fraction(4, 5)), 10 ** 6)
