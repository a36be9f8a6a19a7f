from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bialgebra_forge.scalars import I, ONE, Scalar, ZERO, format_scalar
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
