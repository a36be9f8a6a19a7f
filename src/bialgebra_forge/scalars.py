"""Exact Gaussian rational arithmetic.

Every coefficient in the engine is an element of Q(i): a complex number
a + b*i with arbitrary-precision rational real and imaginary parts.
Keeping the field exact is what makes "defect == 0" a decidable question;
no floating point is allowed anywhere downstream of this module.
"""

from __future__ import annotations

from fractions import Fraction


class Scalar:
    """A Gaussian rational a + b*i with Fraction components.

    Instances are immutable by convention and hashable; Fraction keeps
    both parts reduced, so equality is canonical.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return (Scalar, (self.re, self.im))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            return ONE / (self ** (-n))
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # a real value hashes like its re, as it compares equal to it
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
MINUS_ONE = Scalar(-1)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _imag_str(q: Fraction) -> str:
    """q*i rendered without a bare leading 1, e.g. 'i', '-i', '3*i/4'."""
    num, den = q.numerator, q.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    head = "i" if num == 1 else f"{num}*i"
    return f"{sign}{head}" if den == 1 else f"{sign}{head}/{den}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form, accepted back by the expression grammar."""
    if s.im == 0:
        return _frac_str(s.re)
    if s.re == 0:
        return _imag_str(s.im)
    im = _imag_str(s.im)
    joiner = "" if im.startswith("-") else "+"
    return f"({_frac_str(s.re)}{joiner}{im})"
