import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from bialgebra_forge import ncpoly
from bialgebra_forge.errors import (
    CapExceededError, InexactDivisionError, InputError, NonTerminatingSeriesError,
)
from bialgebra_forge.exprparse import MAX_TERMS, _divide, parse_expr
from bialgebra_forge.ncpoly import (
    Context, NCPoly, TensorNCPoly, _series_coeffs, outer, series_apply, tensor,
)
from bialgebra_forge.params import ParamPoly
from bialgebra_forge.scalars import I, ONE, Scalar, format_scalar
from bialgebra_forge.tensors import Basis

from conftest import terms_through

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
    assert list(p.coefficients()) == [(A, B)]
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
    # the parser holds every product word it keeps to the word-length
    # limit, here the cap, whether its operands are single terms or not;
    # a product in the kernel forms any word
    assert list(parse_expr("a^8", CTX).coefficients()) == [(A,) * 8]
    with pytest.raises(CapExceededError, match=r"^word a\^9 exceeds word-length limit 8$"):
        parse_expr("a^8*a", CTX)
    with pytest.raises(CapExceededError, match="exceeds word-length limit 8$"):
        parse_expr("(a+b)^4*(a+u*b)^5", CTX)
    word = gen(A)
    for _ in range(8):
        word = word * gen(A)
    assert list(word.coefficients()) == [(A,) * 9]


def test_cap_not_triggered_by_truncated_coefficients():
    # both factors carry parameter degree 4; the product's coefficient
    # truncates to zero before the word-length check fires
    assert not parse_expr("(u^4*a^4)*(u^4*a^4)", CTX)
    assert not parse_expr("(u^4*a^4 + u^4*b^4)*(u^4*a^4 + v^4*b^4)", CTX)
    p = NCPoly(CTX, {(A,) * 4: CTX.param_poly("u") ** 4})
    assert not p * p


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


def _inverse_factorial(k):
    return Scalar(Fraction(1, math.factorial(k)))


def test_the_series_table_holds_inverse_factorials():
    _series_coeffs("exp", 40)
    assert ncpoly._INVERSE_FACTORIALS[:41] == tuple(map(_inverse_factorial, range(41)))


def test_the_series_table_grows_on_demand(monkeypatch):
    monkeypatch.setattr(ncpoly, "_INVERSE_FACTORIALS", (ONE,))
    assert _series_coeffs("cosh", 3) == [(0, ONE), (2, _inverse_factorial(2))]
    small = ncpoly._INVERSE_FACTORIALS
    assert small == tuple(map(_inverse_factorial, range(4)))
    assert _series_coeffs("sinh", 9) == [(k, _inverse_factorial(k)) for k in (1, 3, 5, 7, 9)]
    grown = ncpoly._INVERSE_FACTORIALS
    assert grown == tuple(map(_inverse_factorial, range(10)))
    # a smaller request reads the table and leaves it as it is
    assert _series_coeffs("exp", 2) == [(k, _inverse_factorial(k)) for k in range(3)]
    assert ncpoly._INVERSE_FACTORIALS is grown


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
    back = NCPoly(CTX, {w: coeff * u2v2 for w, coeff in quotient.coefficients().items()})
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
    assert ((A, A), (B, B)) in square.coefficients()


def test_tensor_flip():
    t = tensor(gen(A), gen(B)) - tensor(gen(B), gen(A))
    assert t.flip() == -t


def test_linear_part():
    t = tensor(gen(A) * gen(A) + gen(B), gen(C))
    assert t.linear_part().coefficients() == {((B,), (C,)): CTX.const_poly(ONE)}


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
    # the parser refuses a power whose words could pass the cap
    with pytest.raises(CapExceededError, match="words of 9 letters, past the word-length"):
        parse_expr("(a+b)^9", CTX)


def test_word_power_stops_once_zero():
    # u*a has parameter degree k in its k-th power: zero past the order,
    # however large the exponent, and the parser counts no factor past it
    assert (param("u") * gen(A)).raised(100000000) == NCPoly.zero(CTX)
    assert parse_expr("(u*a)^100000000", CTX) == NCPoly.zero(CTX)
    with pytest.raises(CapExceededError, match="words of 9 letters"):
        parse_expr("a^9", CTX)


def _stepwise_power(p, n):
    """p^n as n products, stopping once the product is zero."""
    out = NCPoly.unit(p.context)
    for _ in range(n):
        out = out * p
        if not out:
            break
    return out


def _text(terms, basis):
    """Parser text of the sum of coefficient*u^i*v^j*word over terms, a
    list of (word, (i, j), Scalar)."""
    parts = []
    for word, exps, coeff in terms:
        factors = [f"({format_scalar(coeff)})"]
        factors += [f"{name}^{e}" for name, e in zip("uv", exps) if e]
        if word:
            factors.append(ncpoly.word_str(word, basis))
        parts.append("*".join(factors))
    return " + ".join(parts)


def test_powers_match_stepwise_products_on_random_polynomials():
    """The parser's power is the step-by-step product, for word
    polynomials with and without an empty-word term, and the kernel's
    power is the same; the parser refuses the power, before forming it,
    exactly when its k factors of the word part (n, or fewer when every
    word term carries a parameter degree) could pass the cap by k times
    the longest word or MAX_TERMS by T^k terms, and no word of a power it
    forms passes the cap."""
    rng = random.Random(7)
    refused = 0
    for _ in range(3000):
        ctx = Context(Basis(("a", "b")), ("u", "v"), order=rng.randint(2, 5),
                      cap=rng.randint(2, 6), slack=0)
        terms = []
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.randrange(2) for _ in range(rng.choice((0, 0, 1, 1, 2, 3))))
            # a base word past the cap is refused as the base is read
            word = word[:ctx.cap]
            exps = (rng.randint(0, 2), rng.randint(0, 1))
            terms.append((word, exps, Scalar(rng.randint(-2, 2), rng.randint(-1, 1))))
        p = NCPoly(ctx, {})
        for word, exps, coeff in terms:
            p = p + NCPoly(ctx, {word: ParamPoly(ctx.params, ctx.order, {exps: coeff})})
        n = rng.randint(0, 2 * ctx.cap + 2)
        degrees = [ctx.monomials.degree(m) for w, m in p.terms if w]
        k = min(n, ctx.order // min(degrees)) if degrees and min(degrees) else n
        longest = max((len(w) for w, _ in p.terms), default=0)
        text = f"({_text(terms, ctx.basis)})^{n}"
        if degrees and (k * longest > ctx.cap or len(p.terms) ** k > MAX_TERMS):
            refused += 1
            with pytest.raises(CapExceededError, match="can form"):
                parse_expr(text, ctx)
            continue
        got = parse_expr(text, ctx)
        assert got == _stepwise_power(p, n) == p ** n, (p, n)
        assert all(len(w) <= ctx.cap for w in got.groups()), (p, n)
    assert 0 < refused < 3000


# -- degree budgets ------------------------------------------------------------------

WIDE = Context(Basis(("a", "b", "c")), ("u", "v", "w"), order=6, cap=24, slack=0)


@st.composite
def _wide_coefficients(draw):
    """A ParamPoly of one to four Gaussian terms of mixed degree, like the
    coefficients of a rescaled tensor-product document."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.integers(-3, 3), st.integers(-2, 2)).filter(any),
        min_size=1, max_size=4,
    ))
    return ParamPoly(WIDE.params, WIDE.order, {e: Scalar(*c) for e, c in terms.items()})


def _wide_polys(arity):
    word = st.lists(st.integers(0, 2), max_size=3).map(tuple)
    key = word if arity == 1 else st.tuples(*[word] * arity)
    terms = st.dictionaries(key, _wide_coefficients(), max_size=4)
    if arity == 1:
        return terms.map(lambda t: NCPoly(WIDE, t))
    return terms.map(lambda t: TensorNCPoly(WIDE, arity, t))


def _every_pair(a, b):
    """a*b as the sum of the products of every term pair, none skipped."""
    def value(coefficients):
        if a.arity == 1:
            return NCPoly(a.context, coefficients)
        return TensorNCPoly(a.context, a.arity, coefficients)

    out = value({})
    for k1, c1 in a.coefficients().items():
        for k2, c2 in b.coefficients().items():
            key = a._key(tuple(u + v for u, v in zip(a._factors(k1), b._factors(k2))))
            out = out + value({key: c1 * c2})
    return out


@given(st.sampled_from((1, 2)).flatmap(lambda n: st.tuples(_wide_polys(n), _wide_polys(n))),
       st.integers(0, WIDE.order))
@settings(max_examples=100, deadline=None)
def test_a_budgeted_product_is_the_product_through_the_budget(pair, budget):
    a, b = pair
    full = _every_pair(a, b)
    assert a * b == a.times(b, WIDE.order) == full
    assert terms_through(a.times(b, budget), budget) == terms_through(full, budget)


def test_a_product_of_single_terms_is_one_term_product():
    """times forms the product of two single-term word polynomials as one
    term_product: the term pair's product through the budget. The
    parser forms it by the same rule, and raises CapExceededError
    exactly when an operand's word or a kept product's word is past the
    cap."""
    rng = random.Random(11)
    for _ in range(2000):
        ctx = Context(Basis(("a", "b")), ("u", "v"), order=rng.randint(0, 5),
                      cap=rng.randint(0, 4), slack=0)
        single, texts = [], []
        for _ in range(2):
            word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
            u = rng.randint(0, ctx.order)
            exps = (u, rng.randint(0, ctx.order - u))
            coeff = Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) or ONE
            single.append(NCPoly(ctx, {word: ParamPoly(ctx.params, ctx.order, {exps: coeff})}))
            texts.append(f"({_text([(word, exps, coeff)], ctx.basis)})")
        a, b = single
        budget = rng.randint(0, ctx.order)
        want = terms_through(_every_pair(a, b), budget)
        assert terms_through(a.times(b, budget), budget) == want, (a, b, budget)
        [wa], [wb] = a.groups(), b.groups()
        text = "*".join(texts)
        if max(len(wa), len(wb)) > ctx.cap or (a * b and len(wa + wb) > ctx.cap):
            with pytest.raises(CapExceededError, match="limit"):
                parse_expr(text, ctx)
        else:
            assert parse_expr(text, ctx) == a * b, text


@given(_wide_polys(1), _wide_polys(1), _wide_coefficients(), st.integers(0, WIDE.order))
@example(  # a coefficient truncated away entirely: no terms, not a crash
    NCPoly.generator(WIDE, 0), NCPoly.generator(WIDE, 1),
    ParamPoly(WIDE.params, WIDE.order, {(3, 2, 2): ONE}), 0,
)
@settings(max_examples=50, deadline=None)
def test_a_budgeted_outer_product_is_the_tensor_product_through_the_budget(
        a, b, coeff, budget):
    monomials = WIDE.monomials
    got = TensorNCPoly._of(WIDE, outer([a, b], monomials.limit(budget),
                                       monomials.pairs(coeff)), 2)
    assert terms_through(got, budget) == terms_through(tensor(a, b).scale(coeff), budget)
