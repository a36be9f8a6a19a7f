"""Truncated noncommutative polynomials over the generator alphabet.

Words are tuples of generator indices; the empty word is the unit.
Coefficients lie in Q(i)[params] truncated at the context's order, where
truncated arithmetic is exact. No operation here checks a word's
length or a value's size: the parser bounds each value it forms before
forming it (exprparse), and a built presentation proves one bound on
every word its checks form (exprparse.word_bound).

Word polynomials (NCPoly, keyed by words) and their tensor squares and
cubes (TensorNCPoly, keyed by tuples of words) share one implementation
of every operation; the two classes only say how a key splits into its
factor words. outer() is the one outer-product loop, used by tensor()
and by factorwise normalisation.

The terms are flat: one map (key, m) -> Scalar, where m is a parameter
monomial packed into one int by the context's params.Monomials, in
fields of width bits(order) + 1 with the total degree in the top field.
A stored exponent is at most the order, and a sum of two is at most
2*order < 2**(bits(order) + 1), so the product of two monomials is
m1 + m2, with no carry between fields, and the test m < limit(budget)
says whether its degree is within a budget. So a coefficient product,
params.coefficient_product (the one product rule, which the Lie-data
pass shares), is one int add, one comparison and one Scalar multiply
per pair. Work that depends only on a key (a word product, a normal
form) is done once per key: groups() gives each key's packed
coefficient, its (m, Scalar) pairs by ascending m, so the first pair
holds the lowest degree. A ParamPoly appears only at the edges: the
public constructors take {key: ParamPoly}, coefficients() and
coefficient() give them back, and printing groups each key's terms into
one, so every value prints as a ParamPoly-valued map would.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import add
from types import MappingProxyType

from .errors import InputError, NonTerminatingSeriesError
from .params import PACKED_ONE, Monomials, ParamPoly, coefficient_product, exponent_map
from .scalars import ONE, Scalar, power
from .sparse import accumulate, deduct
from .tensors import Basis

_new = object.__new__

# the truncation settings a document carries, in the order it lists them
SETTINGS = ("order", "cap", "slack")

@dataclass(frozen=True)
class Context:
    """Shared computation settings: basis, parameters, truncation. Every
    value lives at `order`; `slack` is only the parser's first-pass
    headroom (exprparse.parse_expr). `cap`, when given, is the ceiling on
    word length that the parser's words and a presentation's derived
    word bound must fit under (exprparse.word_limit); None, the default,
    leaves the fixed limit exprparse.MAX_WORD_LENGTH.
    `monomials` packs the parameter monomials through the order."""

    basis: Basis
    params: tuple
    order: int = 5
    cap: int | None = None
    slack: int = 2
    monomials: Monomials = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in self.settings().items():
            if type(value) is not int or value < 0:
                raise InputError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )
        object.__setattr__(self, "monomials", Monomials(self.params, self.order))

    def settings(self) -> dict:
        """The truncation settings, keyed as in a document's settings; no
        cap when none is given."""
        return {name: getattr(self, name) for name in SETTINGS
                if name != "cap" or self.cap is not None}

    def zero_poly(self) -> ParamPoly:
        return ParamPoly.zero(self.params, self.order)

    def const_poly(self, value) -> ParamPoly:
        return ParamPoly.const(self.params, self.order, value)

    def param_poly(self, name) -> ParamPoly:
        return ParamPoly.parameter(self.params, self.order, name)

    def with_params(self, params) -> "Context":
        return replace(self, params=tuple(params))


def term_product(left, right, limit: int):
    """The product of two word terms ((word, m), Scalar): None when the
    monomial is at or past limit, else the one term, whose word is the
    two words joined. NCPoly.times forms a product of two single-term
    values by it; the coefficient is that of coefficient_product's
    single-pair rule, which the word kernel keeps inline."""
    (w1, m1), c1 = left
    (w2, m2), c2 = right
    m = m1 + m2
    if m >= limit:
        return None
    return (w1 + w2, m), c2 if c1 == ONE else c1 if c2 == ONE else c1 * c2


def word_str(word, basis: Basis) -> str:
    if not word:
        return "1"
    parts = []
    run, count = word[0], 0
    for g in word:
        if g == run:
            count += 1
        else:
            parts.append((run, count))
            run, count = g, 1
    parts.append((run, count))
    return "*".join(
        basis.names[g] if c == 1 else f"{basis.names[g]}^{c}" for g, c in parts
    )


class _Terms:
    """The single implementation behind NCPoly and TensorNCPoly: a sparse
    map (key, packed monomial) -> nonzero Scalar. The two classes differ
    only in how a key splits into its tensor factor words (_factors) and
    how factor words join back into a key (_key); multiplication acts
    factorwise."""

    __slots__ = ("context", "terms", "_groups")

    def __init__(self, context: Context, coefficients=None):
        """The value over context with these coefficients, a map from
        keys to ParamPoly over context's params; terms above the order
        drop."""
        self.context = context
        self._groups = None
        pairs = context.monomials.pairs
        self.terms = {(key, m): c for key, coeff in (coefficients or {}).items()
                      for m, c in pairs(coeff)}

    def _like(self, terms, context=None):
        """A value of this kind over context (default: this one) holding
        terms as they are (_of)."""
        return self._of(self.context if context is None else context, terms, self.arity)

    def groups(self) -> dict:
        """The terms by key, {key: [(m, Scalar), ...]} with m ascending, so
        each key's lowest degree is that of its first pair; values are
        immutable, so the map is made once per value."""
        groups = self._groups
        if groups is None:
            groups = {}
            for (key, m), c in self.terms.items():
                got = groups.get(key)
                if got is None:
                    groups[key] = [(m, c)]
                else:
                    got.append((m, c))
            for pairs in groups.values():
                pairs.sort()  # by m: no two pairs of a key share one
            self._groups = groups
        return groups

    def coefficients(self) -> dict:
        """{key: ParamPoly}, the coefficient of every key."""
        poly = self.context.monomials.poly
        return {key: poly(pairs) for key, pairs in self.groups().items()}

    # -- linear structure ------------------------------------------------------

    def _same_arity(self, other):
        if self.arity != other.arity:
            raise InputError("tensor arity mismatch")

    def __add__(self, other):
        self._same_arity(other)
        out = dict(self.terms)
        for term, coeff in other.terms.items():
            accumulate(out, term, coeff)
        return self._like(out)

    def __sub__(self, other):
        self._same_arity(other)
        out = dict(self.terms)
        for term, coeff in other.terms.items():
            deduct(out, term, coeff)
        return self._like(out)

    def __neg__(self):
        return self._like({term: -c for term, c in self.terms.items()})

    def scale(self, factor):
        """Multiply by a commuting coefficient, a Scalar or a ParamPoly."""
        if isinstance(factor, Scalar):
            return self.scaled([(0, factor)] if factor else [])
        return self.scaled(self.context.monomials.pairs(factor))

    def scaled(self, pairs):
        """This value times the packed coefficient pairs, through the
        order; no word changes."""
        limit = self.context.monomials.limit(self.context.order)
        out = {}
        for (key, m2), c2 in self.terms.items():
            for m1, c1 in pairs:
                m = m1 + m2
                if m < limit:
                    accumulate(out, (key, m), c1 * c2)
        return self._like(out)

    def repack(self, context: Context, exponents=None):
        """This value over context, whose params or order may differ, with
        each monomial's exponent vector e sent to exponents(e) (default:
        e itself), a vector over context's params, or to None to drop the
        term; terms above context's order drop. The one change of
        context: each distinct monomial is unpacked and packed once, and
        not at all when the two contexts pack alike."""
        source, target = self.context.monomials, context.monomials
        if (exponents is None and source.params == target.params
                and source.width == target.width):
            limit = target.limit(target.order)
            kept = {term: c for term, c in self.terms.items() if term[1] < limit}
            return self._like(kept, context)
        unpack = source.unpack
        pack, order = target.pack, target.order
        seen = {}
        out = {}
        for (key, m), c in self.terms.items():
            new = seen.get(m, -1)
            if new == -1:
                e = unpack(m)
                if exponents is not None:
                    e = exponents(e)
                new = seen[m] = None if e is None or sum(e) > order else pack(e)
            if new is not None:
                accumulate(out, (key, new), c)
        return self._like(out, context)

    # -- free multiplication ----------------------------------------------------

    def times(self, other, budget=None):
        """The product self*other, exact through parameter degree `budget`
        (default: the order), with no term above it. A key pair's word is
        formed only when its coefficient product has a term through the
        budget: that is, when the lowest degrees of the two coefficients
        sum to at most the budget. Two single-term word polynomials make
        one term_product."""
        self._same_arity(other)
        context = self.context
        limit = context.monomials.limit(context.order if budget is None else budget)
        if self.arity == 1 and len(self.terms) == 1 == len(other.terms):
            [left], [right] = self.terms.items(), other.terms.items()
            term = term_product(left, right, limit)
            return self._like({} if term is None else {term[0]: term[1]})
        split, join = self._factors, self._key
        right = [(split(k2), pairs2) for k2, pairs2 in other.groups().items()]
        out = {}
        for k1, pairs1 in self.groups().items():
            f1 = split(k1)
            for f2, pairs2 in right:
                product = coefficient_product(pairs1, pairs2, limit)
                if not product:
                    continue
                key = join(tuple(map(add, f1, f2)))
                for m, c in product:
                    accumulate(out, (key, m), c)
        return self._like(out)

    __mul__ = times

    # -- structure ---------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.context == other.context
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def linear_part(self):
        """The terms whose factor words all have generator degree 1, as a
        value of this kind: the V part of a word polynomial, the V (x) V
        part of a tensor."""
        split = self._factors
        linear = {key for key in self.groups() if all(len(w) == 1 for w in split(key))}
        return self._like({term: c for term, c in self.terms.items() if term[0] in linear})

    def min_param_degree(self):
        if not self.terms:
            return None
        return self.context.monomials.degree(min(m for _, m in self.terms))

    def truncate(self, order: int):
        limit = self.context.monomials.limit(order)
        return self._like({term: c for term, c in self.terms.items() if term[1] < limit})

    def substitute(self, images, target: Context = None):
        """Every coefficient renamed or zeroed (params.exponent_map)."""
        ctx = self.context if target is None else target
        return self.repack(ctx, exponent_map(self.context.params, images, ctx.params))

    def sorted_terms(self):
        """(key, ParamPoly) by factor word lengths, then key."""
        split = self._factors
        return sorted(
            self.coefficients().items(),
            key=lambda kv: (tuple(len(w) for w in split(kv[0])), kv[0]),
        )

    def __str__(self):
        if not self.terms:
            return "0"
        basis = self.context.basis
        parts = []
        for key, coeff in self.sorted_terms():
            body = " (x) ".join(word_str(w, basis) for w in self._factors(key))
            parts.append(_joined(coeff, body, not key))
        joined = parts[0]
        for p in parts[1:]:
            joined += p if p.startswith("-") else "+" + p
        return joined

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def _joined(coeff: ParamPoly, body: str, body_is_unit: bool) -> str:
    c = str(coeff)
    if body_is_unit:
        return c
    if c == "1":
        return body
    if c == "-1":
        return "-" + body
    if "+" in c[1:] or "-" in c[1:]:
        c = f"({c})"
    return f"{c}*{body}"


class NCPoly(_Terms):
    """Word polynomial: keys are words."""

    __slots__ = ()
    arity = 1

    @staticmethod
    def _factors(word):
        return (word,)

    @staticmethod
    def _key(words):
        return words[0]

    @classmethod
    def _of(cls, context, terms, arity=1):
        """The value over context holding the flat terms as they are:
        sums, products and normal forms yield only nonzero coefficients
        within the order, so only the public constructors filter."""
        out = _new(cls)
        out.context, out.terms, out._groups = context, terms, None
        return out

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, context):
        return cls._of(context, {})

    @classmethod
    def unit(cls, context):
        return cls._of(context, {((), 0): ONE})

    @classmethod
    def generator(cls, context, index):
        if not 0 <= index < len(context.basis):
            raise InputError(f"generator index {index} out of range")
        return cls._of(context, {((index,), 0): ONE})

    @classmethod
    def from_scalar(cls, context, value):
        value = value if isinstance(value, Scalar) else Scalar(value)
        return cls._of(context, {((), 0): value} if value else {})

    @classmethod
    def from_coeff(cls, context, coeff: ParamPoly):
        return cls(context, {(): coeff})

    def raised(self, n: int):
        """(C + N)^n = sum_k binom(n, k) C^(n-k) N^k, for the empty-word
        coefficient C, which is central, and the word part N. N^k takes
        one factor at a time, and the sum stops once N^k is zero. With
        C = 0 only the k = n term is nonzero: the power is N^n."""
        if n < 0:
            raise InputError(f"negative power {n} of a polynomial")
        constant = self.groups().get(())
        words = self._like({term: c for term, c in self.terms.items() if term[0]})
        if not constant:
            power = NCPoly.unit(self.context)
            for _ in range(n):
                power = power.times(words)
                if not power:
                    break
            return power
        limit = self.context.monomials.limit(self.context.order)
        out = self._like({((), m): c for m, c in _coefficient_power(constant, n, limit)})
        if not words:
            return out
        power, binomial = NCPoly.unit(self.context), 1
        for k in range(1, n + 1):
            power = power.times(words)
            if not power:
                break
            binomial = binomial * (n + 1 - k) // k
            scale = Scalar(binomial)
            out = out + power.scaled([
                (m, c * scale) for m, c in _coefficient_power(constant, n - k, limit)
            ])
        return out

    __pow__ = raised

    def coefficient(self, word) -> ParamPoly:
        return self.context.monomials.poly(self.groups().get(tuple(word), ()))


def _coefficient_power(pairs, n: int, limit: int):
    """pairs**n for a packed coefficient whose terms lie under limit,
    without the terms at or past limit."""
    return power(pairs, n, lambda left, right: coefficient_product(left, right, limit),
                 PACKED_ONE)


class TensorNCPoly(_Terms):
    """Tensor square / cube of the word algebra: keys are tuples of words;
    coefficients are global ones."""

    __slots__ = ("arity",)

    def __init__(self, context: Context, arity: int, coefficients=None):
        self.arity = arity
        super().__init__(context, coefficients)

    @staticmethod
    def _factors(key):
        return key

    @staticmethod
    def _key(words):
        return words

    @classmethod
    def _of(cls, context, terms, arity):
        """The value of this arity over context holding the flat terms as
        they are (NCPoly._of)."""
        out = _new(cls)
        out.context, out.terms, out._groups, out.arity = context, terms, None, arity
        return out

    @classmethod
    def zero(cls, context, arity):
        return cls._of(context, {}, arity)

    @classmethod
    def unit(cls, context, arity):
        return cls._of(context, {(((),) * arity, 0): ONE}, arity)

    def flip(self) -> "TensorNCPoly":
        """Swap the two factors (arity 2 only)."""
        if self.arity != 2:
            raise InputError("flip needs arity 2")
        return self._like({((k[1], k[0]), m): c for (k, m), c in self.terms.items()})


def outer(factors, limit: int, coeff=PACKED_ONE) -> dict:
    """Terms of coeff * (f1 (x) f2 (x) ...) for NCPoly factors, as a flat
    map (tuple of words, m) -> Scalar, without the terms at or past the
    packed monomial limit; coeff is a packed coefficient (default 1) and
    a factor given as a bare word stands for that word with coefficient
    1. A partial product is formed once per tuple of words, and one whose
    coefficient has no term under limit is dropped before the next
    factor."""
    partial = [((), coeff)]
    for factor in factors:
        if type(factor) is tuple:
            partial = [(done + (factor,), c) for done, c in partial]
            continue
        grown = []
        groups = factor.groups().items()
        for done, c in partial:
            for w, pairs in groups:
                s = coefficient_product(c, pairs, limit)
                if s:
                    grown.append((done + (w,), s))
        partial = grown
    return {(words, m): c for words, pairs in partial for m, c in pairs}


def tensor(*factors: NCPoly) -> TensorNCPoly:
    """Outer tensor product of 2 or 3 NCPoly factors."""
    context = factors[0].context
    terms = outer(factors, context.monomials.limit(context.order))
    return TensorNCPoly._of(context, terms, len(factors))


# -- elementary series -------------------------------------------------------


# 1/k! at index k, exact; _series_coeffs replaces it by a longer tuple
# on demand, so a reader never sees it half extended
_INVERSE_FACTORIALS = (ONE,)
# the (first k, step) of the nonzero Taylor terms of each series at 0,
# keyed by the function's name: the one table of the series names
SERIES_TERMS = MappingProxyType({"exp": (0, 1), "sinh": (1, 2), "cosh": (0, 2)})


def _series_coeffs(fn: str, max_k: int) -> list:
    """The (k, 1/k!) pairs of fn's Taylor series at 0 through degree
    max_k: every k for exp, odd k for sinh, even k for cosh. Each 1/k!
    is read from one module table of Scalars, which grows through max_k
    the first time a larger max_k is asked for; no entry is rewritten."""
    global _INVERSE_FACTORIALS
    table = _INVERSE_FACTORIALS
    for k in range(len(table), max_k + 1):
        table += (table[-1] / k,)
    _INVERSE_FACTORIALS = table
    first, step = SERIES_TERMS[fn]
    return [(k, table[k]) for k in range(first, max_k + 1, step)]


def series_apply(fn: str, arg: NCPoly) -> NCPoly:
    """Taylor series of exp/sinh/cosh at a parameter-weighted argument.

    Every term of arg must carry parameter degree >= 1 so that the
    series terminates at the context's order.
    """
    if fn not in SERIES_TERMS:
        raise InputError(f"unknown series function {fn!r}")
    if arg.terms and arg.min_param_degree() == 0:
        raise NonTerminatingSeriesError(
            f"{fn} argument has a parameter-degree-0 term; series would not terminate"
        )
    max_k = arg.context.order
    out = {}
    power = NCPoly.unit(arg.context)
    next_k = 0
    for k, coeff in _series_coeffs(fn, max_k):
        while next_k < k and power:
            power = power.times(arg)
            next_k += 1
        for term, c in power.terms.items():
            accumulate(out, term, coeff * c)
    return NCPoly._of(arg.context, out)
