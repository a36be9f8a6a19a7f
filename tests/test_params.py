import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge.errors import InexactDivisionError, InputError
from bialgebra_forge.exprparse import _divide, parse_coefficient
from bialgebra_forge.ncpoly import Context, NCPoly
from bialgebra_forge.params import ParamPoly
from bialgebra_forge.scalars import I, ONE, Scalar
from bialgebra_forge.tensors import Basis, BracketTensor, rescale_basis

from conftest import presentation5

PARAMS = ("t", "h", "z")
ORDER = 6


def poly(terms):
    return ParamPoly(PARAMS, ORDER, terms)


def mono(name):
    return ParamPoly.parameter(PARAMS, ORDER, name)


def const(v):
    return ParamPoly.const(PARAMS, ORDER, v)


coeffs = st.builds(
    Scalar,
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
)
exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
).filter(lambda e: sum(e) <= ORDER)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(poly)


def test_truncation_drops_high_degree():
    p = poly({(4, 3, 0): ONE, (1, 0, 0): ONE})
    assert (4, 3, 0) not in p.terms
    assert (1, 0, 0) in p.terms
    q = mono("t") * mono("t")
    for _ in range(10):
        q = q * mono("t")
    assert q.is_zero()


def test_zero_coefficients_not_stored():
    p = poly({(1, 0, 0): ONE}) - poly({(1, 0, 0): ONE})
    assert p.is_zero()
    assert p.terms == {}


def test_multiplication_example():
    p = (mono("t") + mono("h")) * (mono("t") - mono("h"))
    assert p == mono("t") * mono("t") - mono("h") * mono("h")


def test_coefficient_slices():
    p = mono("t") * mono("h").scale(I) + const(Scalar(2))
    sliced = p.coefficient_of(0, 1)
    assert sliced == mono("h").scale(I)
    assert p.coefficient_of(0, 0) == const(Scalar(2))


def test_monomial_division_exact():
    ctx = Context(Basis(()), PARAMS, ORDER, cap=0, slack=0)
    p = NCPoly.from_coeff(ctx, mono("t") * mono("h") + mono("t") * mono("t"))
    q = _divide(p, {"t": 1})
    assert q == NCPoly.from_coeff(ctx, mono("h") + mono("t"))
    with pytest.raises(InexactDivisionError):
        _divide(p, {"z": 1})


def test_identity_substitution():
    p = mono("t") * mono("z") + const(I)
    assert p.substitute({}) == p


def test_substitute_renames_and_zeroes():
    # z -> t merges t*z into t^2; h -> 0 drops every term using h
    p = mono("t") * mono("z") + mono("t") * mono("t") + mono("h") + const(I)
    target = (("t",), ORDER)
    out = p.substitute({"z": "t", "h": Scalar(0)}, target)
    t = ParamPoly.parameter(("t",), ORDER, "t")
    assert out == (t * t).scale(Scalar(2)) + ParamPoly.const(("t",), ORDER, I)
    # a parameter absent from the target is fine until a term uses it
    assert const(I).substitute({}, target) == ParamPoly.const(("t",), ORDER, I)
    with pytest.raises(InputError, match="unknown parameter 'z'"):
        mono("z").substitute({}, target)


def test_substitution_refuses_inexact_images():
    """A renaming or 0 is the only exact substitution on a truncated
    series; every substitute entry point refuses anything else."""
    H = presentation5()
    ctx = H.context
    t = ctx.param_poly("t")
    targets = [
        t,
        NCPoly.from_coeff(ctx, t),
        H.rel,
        BracketTensor(ctx.basis, ctx.params, ctx.order, {(0, 1, 2): t}),
    ]
    images = [Scalar(1), ctx.param_poly("h")]
    for target in targets:
        for image in images:
            with pytest.raises(InputError, match="exact only at 0 or under a renaming"):
                target.substitute({"t": image})


def test_only_the_parser_divides_by_a_parameter():
    """No Laurent factor is left in the library: a basis rescaling takes
    nonzero Q(i) scalars only, and a quotient by a parameter is read by the
    parser, which works far enough above the order to keep it exact."""
    assert not hasattr(bf, "ScaleMonomial") and not hasattr(bf, "divide_param")
    assert not hasattr(ParamPoly, "mul_monomial")
    assert not hasattr(ParamPoly, "divide_monomial")
    H = presentation5()
    ctx = H.context
    mu = BracketTensor(ctx.basis, ctx.params, ctx.order, {(0, 1, 2): ctx.param_poly("t")})
    scales = [Scalar(1)] * len(ctx.basis)
    for zero in (0, Scalar(0)):
        scales[2] = zero
        with pytest.raises(InputError, match="nonzero"):
            rescale_basis(mu, scales)
    scales[2] = ctx.param_poly("t")
    with pytest.raises(InputError, match="nonzero"):
        rescale_basis(mu, scales)
    ctx3 = Context(Basis(()), ("t",), order=3, cap=0, slack=0)
    value = parse_coefficient("(t*exp(t))/t", ctx3)
    assert str(value) == "1+t+1/2*t^2+1/6*t^3"


def test_string_form_is_canonical():
    p = mono("t").scale(-ONE) + mono("h") * mono("h").scale(I)
    assert str(p) == "-t+i*h^2"


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms_mod_truncation(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys)
@settings(max_examples=60)
def test_truncate_is_monotone(p):
    assert p.truncate(ORDER) == p
    lower = p.truncate(2)
    assert all(sum(e) <= 2 for e in lower.terms)


# -- independent oracle: sympy polynomials truncated at the order ----------------

SYMBOLS = sympy.symbols(PARAMS)


def terms_of(p: ParamPoly) -> dict:
    """{exponent vector: (re, im)} of p, as sympy rationals."""
    return {e: (sympy.Rational(c.re), sympy.Rational(c.im)) for e, c in p.terms.items()}


def to_sympy(p: ParamPoly):
    return sum(
        (re + sympy.I * im) * sympy.Mul(*(s ** k for s, k in zip(SYMBOLS, exps)))
        for exps, (re, im) in terms_of(p).items()
    )


def truncated_terms(expr) -> dict:
    """{exponent vector: (re, im)} of the expanded expr through ORDER."""
    if expr == 0:
        return {}
    out = {}
    for exps, c in sympy.Poly(sympy.expand(expr), *SYMBOLS).terms():
        if sum(exps) <= ORDER and c != 0:
            out[exps] = (sympy.re(c), sympy.im(c))
    return out


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_product_matches_sympy_truncated(a, b):
    assert terms_of(a * b) == truncated_terms(to_sympy(a) * to_sympy(b))


@pytest.mark.parametrize("a, b", [
    # the unit on either side: the product is the other operand
    (const(ONE), poly({(1, 2, 0): Scalar(Fraction(-3, 4), 2)})),
    (poly({(0, 0, 5): I}), const(ONE)),
    (const(ONE), const(ONE)),
    # a degree-0 constant that is not the unit
    (const(Scalar(2)), poly({(2, 0, 1): Scalar(0, Fraction(1, 3))})),
    (poly({(1, 1, 1): ONE}), const(-ONE)),
    (const(I), const(I)),
    # monomials landing exactly on the order, and one degree above it
    (poly({(3, 0, 0): Scalar(5)}), poly({(0, 2, 1): Scalar(1, 1)})),
    (poly({(0, 0, 6): ONE}), const(Scalar(Fraction(1, 7)))),
    (poly({(3, 1, 0): Scalar(5)}), poly({(0, 2, 1): Scalar(1, 1)})),
    (poly({(0, 0, 6): ONE}), mono("t")),
    # a monomial against a sum, and a zero operand
    (const(ONE), const(ONE) + mono("h")),
    (poly({}), const(ONE)),
])
def test_monomial_products_match_sympy_and_leave_operands_alone(a, b):
    before = (dict(a.terms), dict(b.terms))
    for x, y in ((a, b), (b, a)):
        product = x * y
        assert terms_of(product) == truncated_terms(to_sympy(x) * to_sympy(y))
        assert product.params == PARAMS and product.order == ORDER
    assert (a.terms, b.terms) == before


def test_product_oracle_on_seeded_dense_polynomials():
    rng = random.Random(7)

    def dense():
        terms = {}
        for _ in range(12):
            exps = tuple(rng.randint(0, 3) for _ in PARAMS)
            c = Scalar(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                       Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
            terms[exps] = c
        return poly(terms)

    for _ in range(10):
        a, b = dense(), dense()
        assert terms_of(a * b) == truncated_terms(to_sympy(a) * to_sympy(b))


# -- powers -------------------------------------------------------------------


def test_negative_power_is_an_input_error():
    t = ParamPoly.parameter(("t",), 5, "t")
    with pytest.raises(InputError, match="negative power"):
        t ** -1


def test_powers_by_squaring_match_repeated_products():
    p = const(Scalar(1, 1)) + mono("t").scale(Scalar(Fraction(1, 2))) + mono("h")
    expected = const(ONE)
    for n in range(9):
        assert p ** n == expected
        expected = expected * p
    assert mono("t") ** 100000000 == poly({})
    assert const(Scalar(2)) ** 40 == const(Scalar(2 ** 40))
