"""Exact Gaussian rational arithmetic.

Every coefficient in the engine is an element of Q(i): a complex number
a + b*i with arbitrary-precision rational real and imaginary parts.
Keeping the field exact is what makes "defect == 0" a decidable question;
no floating point is allowed anywhere downstream of this module.

A Scalar stores (a + b*i)/d as one integer triple with d > 0 and
gcd(a, b, d) = 1. That form is canonical, so equality is structural, and
each operation is integer arithmetic plus one gcd.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, log10
from operator import mul

from .errors import InputError


class Scalar:
    """A Gaussian rational (a + b*i)/d, reduced, with d > 0.

    Instances are immutable by convention and hashable; `re` and `im`
    read the parts as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            p, q = re.denominator, im.denominator
            # over the lcm of two reduced denominators the triple is reduced
            d = p // gcd(p, q) * q
            a, b = re.numerator * (d // p), im.numerator * (d // q)
        self._a, self._b, self._d = a, b, d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __reduce__(self):
        return (Scalar, (self.re, self.im))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        # (a+bi)/d / ((c+ei)/f) = (a+bi)(c-ei)*f / (d*(c^2+e^2))
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        # negation keeps the triple reduced
        s = _new(Scalar)
        s._a, s._b, s._d = -self._a, -self._b, self._d
        return s

    def __pow__(self, n: int):
        if n < 0:
            return ONE / (self ** (-n))
        return power(self, n, mul, ONE)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes like its re, as it compares equal to it
        if self._b:
            return hash((self.re, self.im))
        return hash(self._a) if self._d == 1 else hash(self.re)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_new = object.__new__


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d for d > 0, reduced by one gcd; bypasses
    the parsing in __init__."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    s = _new(Scalar)
    s._a, s._b, s._d = a, b, d
    return s


def power(base, n: int, times, one):
    """base**n for n >= 0 by square-and-multiply, where times(x, y) is
    the product x*y and one the unit: for n >= 1 it makes
    n.bit_length() - 1 squarings and popcount(n) - 1 further products,
    and for n = 0 or 1 none. The one power rule of Scalars, ParamPolys
    and packed coefficients."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else times(out, base)
        n >>= 1
        if not n:
            return one if out is None else out
        base = times(base, base)


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def _int_str(n: int) -> str:
    """Decimal digits of n; a number past the interpreter's conversion
    limit is an input error, as only a hostile document produces one."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(
            f"a coefficient has more than {limit} decimal digits, too many to print"
        ) from None


def check_power(base: Scalar, n: int) -> None:
    """Raise InputError, before base**n is computed, when some part of it
    would have more decimal digits than format_scalar can print.

    Write base = beta/delta in lowest terms over the Gaussian integers.
    Its height h = log10 max(|beta|, |delta|) obeys h(base**n) = n*h(base),
    and it is 0 exactly at 0, 1, -1, i and -i, whose powers never grow.
    The height of a sum is at most the sum of the heights plus log10(2),
    so a value of height h prints its real or its imaginary part with a
    numerator or denominator of at least 10**((h - log10(2))/2); with
    that, and one digit of margin, this rejects only powers that could
    not be printed. An interpreter with no digit limit rejects none.
    """
    limit = sys.get_int_max_str_digits()
    norm, d = base._a ** 2 + base._b ** 2, base._d
    # the common factor of a + b*i and d has norm gcd(norm, d)
    height = log10(max(norm, d * d) // gcd(norm, d)) / 2
    if limit and height and n > (2 * limit + 1) / height:
        raise InputError(
            f"a power would give a coefficient of more than {limit} decimal "
            "digits, too many to print"
        )


def _frac_str(q: Fraction) -> str:
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"


def _imag_str(q: Fraction) -> str:
    """q*i rendered without a bare leading 1, e.g. 'i', '-i', '3*i/4'."""
    num, den = q.numerator, q.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    head = "i" if num == 1 else f"{_int_str(num)}*i"
    return f"{sign}{head}" if den == 1 else f"{sign}{head}/{_int_str(den)}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form, accepted back by the expression grammar."""
    if not s._b:
        return _frac_str(s.re)
    if not s._a:
        return _imag_str(s.im)
    im = _imag_str(s.im)
    joiner = "" if im.startswith("-") else "+"
    return f"({_frac_str(s.re)}{joiner}{im})"
