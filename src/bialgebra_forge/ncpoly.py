"""Truncated noncommutative polynomials over the generator alphabet.

Words are tuples of generator indices; the empty word is the unit.
Coefficients are ParamPoly values carried at the context's order, where
truncated arithmetic is exact. Generator degree is capped: a product whose
coefficient survives truncation but whose word exceeds the cap is a
hard error, so runaway rewriting cannot pass silently.

Word polynomials (NCPoly, keyed by words) and their tensor squares and
cubes (TensorNCPoly, keyed by tuples of words) share one implementation
of every operation; the two classes only say how a key splits into its
factor words. outer() is the one outer-product loop, used by tensor()
and by factorwise normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add

from .errors import CapExceededError, InputError, NonTerminatingSeriesError
from .params import ParamPoly, substitution
from .scalars import ONE, Scalar
from .sparse import accumulate, deduct
from .tensors import Basis

_new = object.__new__

# the truncation settings a document carries, in the order it lists them
SETTINGS = ("order", "cap", "slack")


@dataclass(frozen=True)
class Context:
    """Shared computation settings: basis, parameters, truncation. Every
    value lives at `order`; `slack` is only the parser's first-pass
    headroom (exprparse.parse_expr)."""

    basis: Basis
    params: tuple
    order: int = 5
    cap: int = 10
    slack: int = 2

    def __post_init__(self):
        for name in SETTINGS:
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise InputError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )

    def settings(self) -> dict:
        """The truncation settings, keyed as in a document's settings."""
        return {name: getattr(self, name) for name in SETTINGS}

    def zero_poly(self) -> ParamPoly:
        return ParamPoly.zero(self.params, self.order)

    def const_poly(self, value) -> ParamPoly:
        return ParamPoly.const(self.params, self.order, value)

    def param_poly(self, name) -> ParamPoly:
        return ParamPoly.parameter(self.params, self.order, name)

    def with_params(self, params) -> "Context":
        return replace(self, params=tuple(params))


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
    map from keys to nonzero ParamPoly coefficients. The two classes
    differ only in how a key splits into its tensor factor words
    (_factors) and how factor words join back into a key (_key);
    multiplication acts factorwise."""

    __slots__ = ("context", "terms")

    def __init__(self, context: Context, terms=None):
        self.context = context
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    def _like(self, terms, context=None):
        """A value of this kind over context (default: this one) holding
        terms as they are: sums, products and normal forms yield only
        nonzero coefficients, so only the public constructors and
        map_coeffs filter."""
        out = _new(type(self))
        out.context = self.context if context is None else context
        out.terms = terms
        return out

    # -- linear structure ------------------------------------------------------

    def _same_arity(self, other):
        if self.arity != other.arity:
            raise InputError("tensor arity mismatch")

    def __add__(self, other):
        self._same_arity(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            accumulate(out, key, coeff)
        return self._like(out)

    def __sub__(self, other):
        self._same_arity(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            deduct(out, key, coeff)
        return self._like(out)

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def scale(self, factor):
        """Multiply by a commuting coefficient (ParamPoly or Scalar)."""
        if isinstance(factor, Scalar):
            return self.map_coeffs(lambda c: c.scale(factor))
        return self.map_coeffs(lambda c: c * factor)

    def map_coeffs(self, fn, context: Context = None):
        """fn applied to every coefficient; the result lives over context
        (default: this one)."""
        return self._like(
            {k: v for k, c in self.terms.items() if (v := fn(c))}, context
        )

    # -- free multiplication ----------------------------------------------------

    def __mul__(self, other):
        self._same_arity(other)
        cap = self.context.cap
        split, join = self._factors, self._key
        out = {}
        for k1, c1 in self.terms.items():
            f1 = split(k1)
            for k2, c2 in other.terms.items():
                c = c1 * c2
                if not c:
                    continue
                words = tuple(map(add, f1, split(k2)))
                for w in words:
                    if len(w) > cap:
                        raise CapExceededError(
                            f"word {word_str(w, self.context.basis)} exceeds "
                            f"generator-degree cap {cap}"
                        )
                accumulate(out, join(words), c)
        return self._like(out)

    # -- structure ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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

    def min_param_degree(self):
        degrees = [c.min_degree() for c in self.terms.values()]
        degrees = [d for d in degrees if d is not None]
        return min(degrees) if degrees else None

    def truncate(self, order: int):
        return self.map_coeffs(lambda c: c.truncate(order))

    def substitute(self, images, target: Context = None):
        """Every coefficient renamed or zeroed (params.substitution)."""
        ctx = self.context if target is None else target
        return self.map_coeffs(
            substitution(self.context.params, images, (ctx.params, ctx.order)), ctx
        )

    def sorted_terms(self):
        split = self._factors
        return sorted(
            self.terms.items(),
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

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, context):
        return cls(context)

    @classmethod
    def unit(cls, context):
        return cls(context, {(): context.const_poly(ONE)})

    @classmethod
    def generator(cls, context, index):
        if not 0 <= index < len(context.basis):
            raise InputError(f"generator index {index} out of range")
        return cls(context, {(index,): context.const_poly(ONE)})

    @classmethod
    def from_scalar(cls, context, value):
        return cls(context, {(): context.const_poly(value)})

    @classmethod
    def from_coeff(cls, context, coeff: ParamPoly):
        return cls(context, {(): coeff})

    def __pow__(self, n: int):
        """(C + N)^n = sum_k binom(n, k) C^(n-k) N^k, for the empty-word
        coefficient C, which is central, and the word part N. N^k takes
        one factor at a time, so a word past the cap raises, and the sum
        stops once N^k is zero, by k = cap + 1 at the latest. With C = 0
        only the k = n term is nonzero: the power is N^n."""
        if n < 0:
            raise InputError(f"negative power {n} of a polynomial")
        constant = self.coefficient(())
        words = self._like({w: c for w, c in self.terms.items() if w})
        if not constant:
            power = NCPoly.unit(self.context)
            for _ in range(n):
                power = power * words
                if not power:
                    break
            return power
        out = NCPoly.from_coeff(self.context, constant ** n)
        if not words:
            return out
        power, binomial = NCPoly.unit(self.context), 1
        for k in range(1, n + 1):
            power = power * words
            if not power:
                break
            binomial = binomial * (n + 1 - k) // k
            out = out + power.scale((constant ** (n - k)).scale(Scalar(binomial)))
        return out

    def coefficient(self, word) -> ParamPoly:
        return self.terms.get(tuple(word), self.context.zero_poly())

    def v_part(self) -> dict:
        """Generator-degree-1 component, as {generator index: ParamPoly}."""
        return {w[0]: c for w, c in self.terms.items() if len(w) == 1}


class TensorNCPoly(_Terms):
    """Tensor square / cube of the word algebra: keys are tuples of words;
    coefficients are global ParamPoly values."""

    __slots__ = ("arity",)

    def __init__(self, context: Context, arity: int, terms=None):
        self.arity = arity
        super().__init__(context, terms)

    @staticmethod
    def _factors(key):
        return key

    @staticmethod
    def _key(words):
        return words

    def _like(self, terms, context=None):
        out = super()._like(terms, context)
        out.arity = self.arity
        return out

    @classmethod
    def zero(cls, context, arity):
        return cls(context, arity)

    @classmethod
    def unit(cls, context, arity):
        return cls(context, arity, {((),) * arity: context.const_poly(ONE)})

    def flip(self) -> "TensorNCPoly":
        """Swap the two factors (arity 2 only)."""
        if self.arity != 2:
            raise InputError("flip needs arity 2")
        return self._like({(k[1], k[0]): c for k, c in self.terms.items()})

    def vv_part(self) -> dict:
        """Component with every factor of generator degree 1, keyed by
        generator index tuples."""
        return {
            tuple(w[0] for w in key): c
            for key, c in self.terms.items()
            if all(len(w) == 1 for w in key)
        }


def outer(factors, coeff=None) -> dict:
    """Terms of coeff * (f1 (x) f2 (x) ...) for NCPoly factors, keyed by
    tuples of words; coeff None stands for 1, and a factor given as a
    bare word stands for that word with coefficient 1."""
    partial = {(): coeff}
    for factor in factors:
        if type(factor) is tuple:
            partial = {done + (factor,): c for done, c in partial.items()}
            continue
        grown = {}
        for done, c in partial.items():
            for w, cw in factor.terms.items():
                s = cw if c is None else c * cw
                if s:
                    grown[done + (w,)] = s
        partial = grown
    return partial


def tensor(*factors: NCPoly) -> TensorNCPoly:
    """Outer tensor product of 2 or 3 NCPoly factors."""
    return TensorNCPoly(factors[0].context, len(factors), outer(factors))


# -- elementary series -------------------------------------------------------


def _series_coeffs(fn: str, max_k: int):
    fact = Fraction(1)
    for k in range(max_k + 1):
        if k:
            fact *= k
        if fn == "exp":
            yield k, Scalar(Fraction(1) / fact)
        elif fn == "sinh" and k % 2 == 1:
            yield k, Scalar(Fraction(1) / fact)
        elif fn == "cosh" and k % 2 == 0:
            yield k, Scalar(Fraction(1) / fact)


def series_apply(fn: str, arg: NCPoly) -> NCPoly:
    """Taylor series of exp/sinh/cosh at a parameter-weighted argument.

    Every term of arg must carry parameter degree >= 1 so that the
    series terminates at the context's order.
    """
    if fn not in ("exp", "sinh", "cosh"):
        raise InputError(f"unknown series function {fn!r}")
    if arg.terms and arg.min_param_degree() == 0:
        raise NonTerminatingSeriesError(
            f"{fn} argument has a parameter-degree-0 term; series would not terminate"
        )
    max_k = arg.context.order
    out = NCPoly.zero(arg.context)
    power = NCPoly.unit(arg.context)
    next_k = 0
    for k, coeff in _series_coeffs(fn, max_k):
        while next_k < k:
            power = power * arg
            next_k += 1
        out = out + power.scale(coeff)
    return out
