"""Truncated multivariate polynomials in commuting deformation parameters.

A ParamPoly is a sparse map from exponent vectors to Scalar coefficients,
over a fixed ordered tuple of parameter names, with every stored term of
total degree <= order. Truncation at total degree N is a quotient of
the coefficient ring, so sums and products are exact through N.
Values are immutable, so a product by the unit may return the other
operand itself rather than a copy.

The only substitutions are exact ones: a parameter is renamed or set to
0, and nothing else (`substitution`). Any other image, a nonzero value
included, is an input error.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import InputError
from .scalars import ONE, Scalar, ZERO, format_scalar
from .sparse import accumulate


_degree = sum   # total degree of an exponent vector
_new = object.__new__


class ParamPoly:
    __slots__ = ("params", "order", "terms")

    def __init__(self, params, order, terms=None):
        self.params = tuple(params)
        self.order = order
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff and _degree(exps) <= order:
                    clean[exps] = coeff
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, params, order):
        return cls(params, order)

    @classmethod
    def const(cls, params, order, value) -> "ParamPoly":
        if isinstance(value, (int, Fraction)):
            value = Scalar(value)
        z = (0,) * len(params)
        return cls(params, order, {z: value})

    @classmethod
    def parameter(cls, params, order, name) -> "ParamPoly":
        params = tuple(params)
        if name not in params:
            raise InputError(f"unknown parameter {name!r}")
        exps = tuple(1 if p == name else 0 for p in params)
        return cls(params, order, {exps: ONE})

    def _like(self, terms):
        """A polynomial in this context holding terms as they are: every
        caller yields nonzero coefficients within the order, so only the
        public constructor filters."""
        out = _new(ParamPoly)
        out.params, out.order, out.terms = self.params, self.order, terms
        return out

    def _check(self, other):
        if self.params != other.params or self.order != other.order:
            raise InputError("ParamPoly context mismatch")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            accumulate(out, exps, coeff)
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        order = self.order
        if len(self.terms) == 1 == len(other.terms):
            # monomial x monomial: the degree decides before any arithmetic
            [(e1, c1)] = self.terms.items()
            [(e2, c2)] = other.terms.items()
            d1, d2 = _degree(e1), _degree(e2)
            if d1 + d2 > order:
                return self._like({})
            if not d1 and c1 == ONE:
                return other
            if not d2 and c2 == ONE:
                return self
            return self._like({tuple(map(add, e1, e2)): c1 * c2})
        right = [(e2, c2, _degree(e2)) for e2, c2 in other.terms.items()]
        out = {}
        for e1, c1 in self.terms.items():
            room = order - _degree(e1)
            for e2, c2, d2 in right:
                if d2 <= room:
                    accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
        return self._like(out)

    def scale(self, coeff: Scalar):
        if not coeff:
            return self._like({})
        return self._like({e: c * coeff for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise InputError(f"negative power {n} of a polynomial")
        out = ParamPoly.const(self.params, self.order, ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return (
            self.params == other.params
            and self.order == other.order
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.params, self.order, frozenset(self.terms.items())))

    def min_degree(self):
        """Smallest total degree among stored terms; None when zero."""
        if not self.terms:
            return None
        return min(_degree(e) for e in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * len(self.params), ZERO)

    def truncate(self, order: int) -> "ParamPoly":
        """Drop terms of total degree > order; keeps the stored bound."""
        return ParamPoly(
            self.params, self.order,
            {e: c for e, c in self.terms.items() if _degree(e) <= order},
        )

    def with_order(self, order: int) -> "ParamPoly":
        """The same terms carried at `order`; terms above it are dropped."""
        return ParamPoly(self.params, order, self.terms)

    def coefficient_of(self, index: int, power: int) -> "ParamPoly":
        """Coefficient of params[index]**power, as a poly with that
        exponent slot zeroed (the parameter stays in the context)."""
        out = {}
        for e, c in self.terms.items():
            if e[index] == power:
                out[e[:index] + (0,) + e[index + 1:]] = c
        return self._like(out)

    def substitute(self, images: dict, target=None) -> "ParamPoly":
        """This polynomial with parameters renamed or set to 0 (see
        `substitution`), over target = (params, order), by default this
        polynomial's own context."""
        if target is None:
            target = (self.params, self.order)
        return substitution(self.params, images, target)(self)

    # -- display -------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (_degree(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(self.params, exps)
                if p
            ]
            c = format_scalar(coeff)
            if factors:
                if c == "1":
                    c = ""
                elif c == "-1":
                    c = "-"
            body = "*".join(factors)
            if c and body:
                text = f"{c}*{body}" if not c.endswith("-") else f"{c}{body}"
            else:
                text = c + body if c else body
            parts.append(text or "1")
        joined = parts[0]
        for p in parts[1:]:
            joined += p if p.startswith("-") else "+" + p
        return joined

    def __repr__(self):
        return f"ParamPoly({self})"


def exact_image(name, image):
    """The substitution rule: `image` is a parameter name (a renaming) or
    zero (0 or Scalar(0)); returns the name, or None for zero. Nothing else
    is exact on a truncated series: a nonzero value or a polynomial lowers
    the degree of some term, so terms cut off above the order would come
    back below it."""
    if isinstance(image, str):
        return image
    if isinstance(image, (int, Scalar)) and not image:
        return None
    raise InputError(
        f"cannot specialize {name!r} to {image}: a truncated series is "
        "exact only at 0 or under a renaming"
    )


def substitution(params, images: dict, target):
    """The one exact substitution, as a map from polynomials over `params`
    to polynomials over target = (params, order).

    images maps a parameter to an `exact_image`; an unmapped parameter
    keeps its name. The exponent slots are remapped once per call: a term
    that uses a zeroed parameter drops, and renamed terms that meet are
    summed. A parameter that never occurs with a positive exponent need
    not exist in the target.
    """
    tparams, torder = tuple(target[0]), target[1]
    names = {name: exact_image(name, image) for name, image in images.items()}
    # a slot is the target index, None for zero, or the missing name
    slots = []
    for name in params:
        image = names.get(name, name)
        slots.append(tparams.index(image) if image in tparams else image)
    width = len(tparams)

    def apply(poly):
        out = {}
        for exps, coeff in poly.terms.items():
            new = [0] * width
            for slot, power in zip(slots, exps):
                if power:
                    if slot is None:
                        break
                    if type(slot) is str:
                        raise InputError(f"unknown parameter {slot!r}")
                    new[slot] += power
            else:
                accumulate(out, tuple(new), coeff)
        return ParamPoly(tparams, torder, out)

    return apply

