"""Truncated multivariate polynomials in commuting deformation parameters.

A ParamPoly is a sparse map from exponent vectors to Scalar coefficients,
over a fixed ordered tuple of parameter names, with every stored term of
total degree <= order. Truncation at total degree N is a quotient of
the coefficient ring, so sums and products are exact through N.
ParamPoly is the edge and reference form: the form in which a constant
tensor's entries and a word polynomial's coefficients are given and
stored at the edges, and the independent reference that the tests
compare against. Printing needs none: one text rule, coefficient_text
and its helpers, prints them, packed coefficients and parser messages. The checks multiply packed coefficients instead: lists
of (m, Scalar) pairs, each monomial m packed into one int (Monomials),
multiplied by the one rule coefficient_product. The word and tensor
polynomials store their terms that way, and the Lie-data pass packs the
constant tensors' entries once per call; only a family's pencils
(tensors.build_family) still form ParamPoly products at run time.

The only substitutions are exact ones: a parameter is renamed or set to
0, and nothing else (`exponent_map`, `substitution`). Any other image, a
nonzero value included, is an input error.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from .errors import InputError
from .scalars import ONE, Scalar, ZERO, format_scalar, power
from .sparse import accumulate, deduct


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
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            deduct(out, exps, coeff)
        return self._like(out)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        order = self.order
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
        return power(self, n, mul, ParamPoly.const(self.params, self.order, ONE))

    # -- structure -----------------------------------------------------------

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

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * len(self.params), ZERO)

    def truncate(self, order: int) -> "ParamPoly":
        """Drop terms of total degree > order; keeps the stored bound."""
        return ParamPoly(
            self.params, self.order,
            {e: c for e, c in self.terms.items() if _degree(e) <= order},
        )

    def substitute(self, images: dict, target=None) -> "ParamPoly":
        """This polynomial with parameters renamed or set to 0 (see
        `substitution`), over target = (params, order), by default this
        polynomial's own context."""
        if target is None:
            target = (self.params, self.order)
        return substitution(self.params, images, target)(self)

    # -- display -------------------------------------------------------------

    def __str__(self):
        return coefficient_text(self.params, self.terms.items())

    def __repr__(self):
        return f"ParamPoly({self})"


# -- the text rule ----------------------------------------------------------------


def monomial_text(powers) -> str:
    """The text of a monomial given as (name, power) pairs: each name of
    nonzero power, as name or name^power, joined by '*'."""
    return "*".join(name if p == 1 else f"{name}^{p}" for name, p in powers if p)


def product_text(coefficient: str, monomial: str) -> str:
    """The text of a coefficient times a monomial, from their texts: the
    coefficient alone when the monomial is empty; else a coefficient 1
    prints as nothing and -1 as '-'."""
    if not monomial:
        return coefficient
    if coefficient == "1":
        return monomial
    if coefficient == "-1":
        return "-" + monomial
    return f"{coefficient}*{monomial}"


def signed_sum(parts) -> str:
    """The sum of the term texts parts: a term joins with '+' unless its
    text starts with '-'; '0' for no terms."""
    text = ""
    for part in parts:
        text += "+" + part if text and not part.startswith("-") else part
    return text or "0"


def coefficient_text(params, terms) -> str:
    """The text of the coefficient over params with these (exponent
    vector, Scalar) terms, ordered by total degree, then by exponent
    vector."""
    return signed_sum(
        product_text(format_scalar(c), monomial_text(zip(params, e)))
        for e, c in sorted(terms, key=lambda term: (_degree(term[0]), term[0]))
    )


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


def exponent_map(params, images: dict, tparams):
    """The one exact substitution, as a map from an exponent vector over
    params to one over tparams, or to None for a term that drops.

    images maps a parameter to an `exact_image`; an unmapped parameter
    keeps its name. The exponent slots are remapped once per call: a term
    that uses a zeroed parameter drops, and the exponents of parameters
    renamed to one name add up. A parameter that never occurs with a
    positive exponent need not exist in the target.
    """
    tparams = tuple(tparams)
    names = {name: exact_image(name, image) for name, image in images.items()}
    # a slot is the target index, None for zero, or the missing name
    slots = []
    for name in params:
        image = names.get(name, name)
        slots.append(tparams.index(image) if image in tparams else image)
    width = len(tparams)

    def apply(exps):
        new = [0] * width
        for slot, power in zip(slots, exps):
            if power:
                if slot is None:
                    return None
                if type(slot) is str:
                    raise InputError(f"unknown parameter {slot!r}")
                new[slot] += power
        return tuple(new)

    return apply


def substitution(params, images: dict, target):
    """exponent_map as a map from polynomials over `params` to polynomials
    over target = (params, order); renamed terms that meet are summed."""
    tparams, torder = tuple(target[0]), target[1]
    remap = exponent_map(params, images, tparams)

    def apply(poly):
        out = {}
        for exps, coeff in poly.terms.items():
            new = remap(exps)
            if new is not None:
                accumulate(out, new, coeff)
        return ParamPoly(tparams, torder, out)

    return apply


class Monomials:
    """The packing of the exponent vectors over params of total degree at
    most order into ints, the monomial keys of the word and tensor
    polynomials (ncpoly) and of the Lie-data pass (tensors.lie_checks).

    With width = bits(order) + 1, bits j*width up hold the exponent of
    params[j], and the bits from shift = len(params)*width up hold the
    total degree; the constant monomial packs to 0. A stored exponent is
    at most the order, and two of them add up to at most 2*order <
    2**width, so the product of two monomials is the sum m1 + m2 of their
    ints, with no carry between fields, and its degree is the sum of
    theirs, in the top field. That field orders the ints by degree, so
    m < limit(budget) = (budget + 1) << shift holds exactly when the
    degree of m is at most budget: one int comparison is the degree test.
    """

    __slots__ = ("params", "order", "width", "shift", "_units")

    def __init__(self, params, order: int):
        self.params, self.order = tuple(params), order
        self.width = order.bit_length() + 1
        self.shift = len(self.params) * self.width
        # the packed monomial of each parameter
        self._units = tuple(
            (1 << self.shift) | (1 << j * self.width) for j in range(len(self.params))
        )

    def pack(self, exps) -> int:
        """The int of an exponent vector of degree at most the order."""
        return sum(map(mul, exps, self._units))

    def unpack(self, m: int) -> tuple:
        width = self.width
        mask = (1 << width) - 1
        return tuple((m >> j * width) & mask for j in range(len(self.params)))

    def limit(self, budget: int) -> int:
        """The least int of degree budget + 1: m < limit(budget) exactly
        when the degree of m is at most budget."""
        return (budget + 1) << self.shift

    def degree(self, m: int) -> int:
        return m >> self.shift

    def poly(self, pairs) -> ParamPoly:
        """The ParamPoly of (packed monomial, Scalar) pairs."""
        unpack = self.unpack
        return ParamPoly(self.params, self.order, {unpack(m): c for m, c in pairs})

    def pairs(self, coeff: ParamPoly) -> list:
        """The (packed monomial, Scalar) pairs of a ParamPoly over these
        params, without its terms above the order."""
        pack, order = self.pack, self.order
        return [(pack(e), c) for e, c in coeff.terms.items() if _degree(e) <= order]


# the packed coefficient 1: the constant monomial, packed to 0, with value 1
PACKED_ONE = ((0, ONE),)


def coefficient_product(left, right, limit: int):
    """The product of two packed coefficients, each a sequence of (m,
    Scalar) pairs, as a list of such pairs, without the terms whose
    monomial is at or past limit. The unit PACKED_ONE costs no Scalar
    product, nor does a value 1 in a monomial times a monomial. Two nonzero
    coefficients whose lowest degrees fit under limit have a nonzero
    product: Q(i)[params] is an integral domain, so the lowest part of a
    product is the product of the lowest parts."""
    if left is PACKED_ONE:
        return [pair for pair in right if pair[0] < limit]
    if len(left) == 1 == len(right):
        [(m1, c1)], [(m2, c2)] = left, right
        m = m1 + m2
        if m >= limit:
            return []
        return [(m, c2 if c1 == ONE else c1 if c2 == ONE else c1 * c2)]
    out = {}
    for m1, c1 in left:
        for m2, c2 in right:
            m = m1 + m2
            if m < limit:
                accumulate(out, m, c1 * c2)
    return list(out.items())
