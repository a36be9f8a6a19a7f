import random
from fractions import Fraction

import pytest
import sympy

from bialgebra_forge.errors import (
    CapExceededError, InexactDivisionError, InputError, NonTerminatingSeriesError,
)
from bialgebra_forge.exprparse import _divide
from bialgebra_forge.ncpoly import (
    Context, NCPoly, TensorNCPoly, _series_coeffs, series_apply, tensor,
)
from bialgebra_forge.params import ParamPoly
from bialgebra_forge.scalars import I, ONE, Scalar
from bialgebra_forge.tensors import Basis

CTX = Context(Basis(("a", "b", "c")), ("u", "v"), order=5, cap=8, slack=2)
A, B, C = 0, 1, 2


def gen(i):
    return NCPoly.generator(CTX, i)


def param(name):
    return NCPoly.from_coeff(CTX, CTX.param_poly(name))


@pytest.mark.parametrize("setting, value", [
    ("order", -1), ("cap", -1), ("slack", -2),
    ("order", "5"), ("cap", True), ("slack", 1.0), ("order", None),
])
def test_context_rejects_bad_settings(setting, value):
    with pytest.raises(InputError, match=f"{setting} must be a non-negative integer"):
        Context(Basis(("a",)), ("u",), **{setting: value})


def test_multiply_concatenates_words():
    p = gen(A) * gen(B)
    assert list(p.terms) == [(A, B)]
    assert p.coefficient((A, B)) == CTX.const_poly(ONE)


def test_unit_is_neutral():
    one = NCPoly.unit(CTX)
    p = gen(A) * gen(C) + gen(B).scale(I)
    assert one * p == p
    assert p * one == p


def test_coefficients_multiply():
    p = (param("u") * gen(C)) * (param("v") * gen(C))
    uv = CTX.param_poly("u") * CTX.param_poly("v")
    assert p == NCPoly(CTX, {(C, C): uv})


def test_cap_exceeded_is_reported():
    word = gen(A)
    for _ in range(7):
        word = word * gen(A)
    with pytest.raises(CapExceededError):
        word * gen(A)


def test_cap_not_triggered_by_truncated_coefficients():
    # both factors carry parameter degree 4; the product's coefficient
    # truncates to zero before the word-length check fires
    p = NCPoly(CTX, {(A,) * 4: CTX.param_poly("u") ** 4})
    assert (p * p).is_zero()


# -- series ---------------------------------------------------------------------


def sinh_coeff(k):
    fact = 1
    for n in range(2, k + 1):
        fact *= n
    return Scalar(Fraction(1, fact))


def test_sinh_expansion_matches_taylor_oracle():
    arg = param("u") * gen(C)
    got = series_apply("sinh", arg)
    expected = {}
    for k in (1, 3, 5, 7):
        if k <= CTX.order:
            expected[(C,) * k] = (CTX.param_poly("u") ** k).scale(sinh_coeff(k))
    assert got == NCPoly(CTX, expected)


@pytest.mark.parametrize("fn", ["exp", "sinh", "cosh"])
def test_series_coefficients_match_sympy(fn):
    x = sympy.Symbol("x")
    taylor = sympy.series(getattr(sympy, fn)(x), x, 0, 13).removeO()
    expected = {}
    for k in range(13):
        c = taylor.coeff(x, k)
        if c:
            expected[k] = Scalar(Fraction(int(c.p), int(c.q)))
    assert dict(_series_coeffs(fn, 12)) == expected


def test_exp_of_zero_is_unit():
    assert series_apply("exp", NCPoly.zero(CTX)) == NCPoly.unit(CTX)


def test_series_requires_parameter_weight():
    with pytest.raises(NonTerminatingSeriesError):
        series_apply("exp", gen(A))


def test_cosh_minus_one_divisible_by_square():
    arg = param("u") * param("v") * gen(C)
    value = series_apply("cosh", arg) - NCPoly.unit(CTX)
    quotient = _divide(value, {"u": 2, "v": 2})
    u2v2 = (CTX.param_poly("u") * CTX.param_poly("v")) ** 2
    back = NCPoly(CTX, {w: coeff * u2v2 for w, coeff in quotient.terms.items()})
    assert back == value


def test_divide_param_sinh_example():
    arg = param("u") * gen(C)
    quotient = _divide(series_apply("sinh", arg), {"u": 1})
    expected = {}
    for k in (1, 3, 5, 7):
        if k <= CTX.order:
            expected[(C,) * k] = (CTX.param_poly("u") ** (k - 1)).scale(sinh_coeff(k))
    assert quotient == NCPoly(CTX, expected)


def test_divide_by_one_monomial_is_identity():
    p = param("u") * gen(A) + gen(B)
    assert _divide(p, {}) == p


def test_divide_param_inexact():
    p = param("u") * gen(A)
    with pytest.raises(InexactDivisionError):
        _divide(p, {"v": 1})


def test_series_identity_cosh_sq_minus_sinh_sq():
    arg = (param("u") + param("u") * param("v")) * gen(C)
    c = series_apply("cosh", arg)
    s = series_apply("sinh", arg)
    assert c * c - s * s == NCPoly.unit(CTX)


def test_series_identity_exp_inverse():
    arg = param("v") * gen(B)
    assert series_apply("exp", arg) * series_apply("exp", -arg) == NCPoly.unit(CTX)


# -- tensors ----------------------------------------------------------------------


def test_tensor_product_is_factorwise():
    t = tensor(gen(A) + NCPoly.unit(CTX), gen(B))
    assert t == TensorNCPoly(CTX, 2, {
        ((A,), (B,)): CTX.const_poly(ONE),
        ((), (B,)): CTX.const_poly(ONE),
    })
    square = t * t
    assert ((A, A), (B, B)) in square.terms


def test_tensor_flip():
    t = tensor(gen(A), gen(B)) - tensor(gen(B), gen(A))
    assert t.flip() == -t


def test_vv_part():
    t = tensor(gen(A) * gen(A) + gen(B), gen(C))
    assert t.vv_part() == {(B, C): CTX.const_poly(ONE)}


def test_truncate_acts_on_coefficients():
    p = NCPoly(CTX, {(A,): CTX.param_poly("u") ** 3 + CTX.param_poly("v")})
    cut = p.truncate(1)
    assert cut == NCPoly(CTX, {(A,): CTX.param_poly("v")})


# -- powers -------------------------------------------------------------------------


def test_negative_power_is_an_input_error():
    for p in (param("u"), gen(A)):
        with pytest.raises(InputError, match="negative power"):
            p ** -1


def test_powers_match_repeated_products():
    for p in (param("u") + NCPoly.from_scalar(CTX, I), gen(A) + param("v") * gen(B)):
        expected = NCPoly.unit(CTX)
        for n in range(5):
            assert p ** n == expected
            expected = expected * p
    assert NCPoly.zero(CTX) ** 0 == NCPoly.unit(CTX)
    assert NCPoly.zero(CTX) ** 3 == NCPoly.zero(CTX)


def test_power_without_constant_term_is_the_word_power():
    # with a zero empty-word coefficient only the last binomial term is
    # nonzero; a constant term brings the others back
    for words in (gen(A) + gen(B), param("u") * gen(A) + gen(B) * gen(C)):
        for p in (words, words + param("v")):
            for n in range(5):
                assert p ** n == _stepwise_power(p, n), (p, n)
    with pytest.raises(CapExceededError):
        (gen(A) + gen(B)) ** 9


def test_word_power_stops_once_zero():
    # u*a has parameter degree k in its k-th power: zero past the order,
    # before the word reaches the cap, however large the exponent
    assert (param("u") * gen(A)) ** 100000000 == NCPoly.zero(CTX)
    with pytest.raises(CapExceededError):
        gen(A) ** 9


def _stepwise_power(p, n):
    """p^n as n products, stopping once the product is zero."""
    out = NCPoly.unit(p.context)
    for _ in range(n):
        out = out * p
        if not out:
            break
    return out


def _outcome(power):
    try:
        return "value", power()
    except CapExceededError as error:
        return "cap", str(error)


def test_powers_match_stepwise_products_on_random_polynomials():
    """Same value, or the same CapExceededError, as the step-by-step
    product, for word polynomials with and without an empty-word term."""
    rng = random.Random(7)
    for _ in range(3000):
        ctx = Context(Basis(("a", "b")), ("u", "v"), order=rng.randint(2, 5),
                      cap=rng.randint(2, 6), slack=0)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.randrange(2) for _ in range(rng.choice((0, 0, 1, 1, 2, 3))))
            exps = (rng.randint(0, 2), rng.randint(0, 1))
            coeff = Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
            terms[word] = terms.get(word, ctx.zero_poly()) + ParamPoly(
                ctx.params, ctx.order, {exps: coeff}
            )
        p = NCPoly(ctx, terms)
        n = rng.randint(0, 2 * ctx.cap + 2)
        assert _outcome(lambda: p ** n) == _outcome(lambda: _stepwise_power(p, n)), (p, n)
