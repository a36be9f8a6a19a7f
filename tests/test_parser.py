import collections
import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge import document, exprparse, ncpoly, presentation_diff
from bialgebra_forge.document import SCHEMA
from bialgebra_forge.errors import (
    CapExceededError, ExprSyntaxError, InexactDivisionError, UnknownIdentifierError,
)
from bialgebra_forge.exprparse import parse_coefficient, parse_expr
from bialgebra_forge.ncpoly import Context, NCPoly, TensorNCPoly, series_apply, word_str
from bialgebra_forge.params import ParamPoly
from bialgebra_forge.scalars import I, ONE, Scalar, format_scalar
from bialgebra_forge.tensors import Basis

from conftest import build_work, context5, corrected_document, diagonal5, widegen

CTX = context5()
IDX = CTX.basis.index


def coeff(text):
    return parse_coefficient(text, CTX)


def test_simple_bracket_rhs():
    p = parse_expr("i*z1*p_y", CTX)
    assert isinstance(p, NCPoly)
    assert list(p.coefficients()) == [(IDX["p_y"],)]
    assert p.coefficient((IDX["p_y"],)) == CTX.param_poly("z1").scale(I)


def test_prefactor_division_expands_before_dividing():
    p = parse_expr("(t/(z2*h))*sinh(z2*h*l_z)", CTX)
    lz = IDX["l_z"]
    t = CTX.param_poly("t")
    z2h = CTX.param_poly("z2") * CTX.param_poly("h")
    sixth = Scalar(Fraction(1, 6))
    expected = NCPoly(CTX, {
        (lz,): t,
        (lz,) * 3: (t * z2h * z2h).scale(sixth),
        (lz,) * 5: (t * z2h ** 4).scale(Scalar(Fraction(1, 120))),
    })
    # the quotient is cut at the order: t*(z2*h)^2/6 on l_z^3 has degree
    # 5 and stays, t*(z2*h)^4/120 on l_z^5 has degree 9 and goes
    assert p == NCPoly(CTX, {
        w: c for w, c in expected.coefficients().items() if len(w) <= 5
    })


def test_division_beyond_slack_stays_exact_through_order():
    # dividing by z2*h costs two degrees; at slack 0 the expression is
    # parsed again at order + 2 and cut back to the order
    text = "(t/(z2*h))*sinh(z2*h*l_z)"
    narrow = replace(CTX, slack=0)
    p = parse_expr(text, narrow)
    assert p.context == narrow
    assert all(c.order == narrow.order for c in p.coefficients().values())
    want = parse_expr(text, CTX).truncate(CTX.order)
    assert {w: c.terms for w, c in p.truncate(CTX.order).coefficients().items()} == {
        w: c.terms for w, c in want.coefficients().items()
    }
    assert (IDX["l_z"],) * 3 in p.coefficients()


def test_tensor_expression_for_coproduct():
    p = parse_expr("exp(-(z2/2)*p_x) (x) p_y + p_y (x) exp((z2/2)*p_x)", CTX)
    assert isinstance(p, TensorNCPoly)
    px, py = IDX["p_x"], IDX["p_y"]
    half = Scalar(Fraction(1, 2))
    for k in range(CTX.order + 1):
        left = p.coefficients().get(((px,) * k, (py,)))
        want = (CTX.param_poly("z2").scale(-half) ** k).scale(
            Scalar(Fraction(1, _fact(k)))
        )
        assert left == (want if want else None)


def _fact(k):
    out = 1
    for n in range(2, k + 1):
        out *= n
    return out


def test_power_and_unary_minus():
    p = parse_expr("-h^2*t^2*p_x^2", CTX)
    px = IDX["p_x"]
    want = -(CTX.param_poly("h") ** 2 * CTX.param_poly("t") ** 2)
    assert p == NCPoly(CTX, {(px, px): want})


def test_power_of_an_exact_quotient_divides_before_raising():
    # (t+2*t^2)/t divides exactly, so the power raises 1+2*t and the
    # division costs one degree, not one per factor of the power
    for n in (3, 2000):
        assert parse_expr(f"((t+2*t^2)/t)^{n}*t*p_y", CTX) == parse_expr(
            f"(1+2*t)^{n}*t*p_y", CTX
        )
    # an inexact quotient stays pending until the term is expanded
    assert parse_expr("(t/(z2*h))^2*z2^2*h^2*p_y", CTX) == parse_expr("t^2*p_y", CTX)


def test_whitespace_insensitive():
    a = parse_expr("i * z1 * p_y", CTX)
    b = parse_expr("i*z1*p_y", CTX)
    assert a == b


def test_scalar_division_binds_to_coefficient():
    assert coeff("t/2") == CTX.param_poly("t").scale(Scalar(Fraction(1, 2)))
    assert coeff("3*i/4") == CTX.const_poly(Scalar(0, Fraction(3, 4)))


@pytest.mark.parametrize("text, same", [
    ("t/2^3", "1/8*t"),
    ("t*l_x/2^2", "1/4*t*l_x"),
    ("t/2^3*p_x", "1/8*t*p_x"),
    ("t/2^0", "t"),
    ("t/2^1", "1/2*t"),
    ("3*i/4^2*t", "3*i/16*t"),
    # the power binds to the number, as to a parameter divisor
    ("t*z2^2/z2^2*p_y", "t*p_y"),
    ("(t/2)^3", "1/8*t^3"),
    ("t/2^2^2", "1/16*t^2"),
    # a name divided on both sides of one product adds its two powers
    ("t^2*z2^2/z2/z2*p_y", "t^2*p_y"),
    ("z2^2*(t/z2)*(h/z2)*p_y", "t*h*p_y"),
])
def test_a_numeric_divisor_takes_its_power(text, same):
    assert parse_expr(text, CTX) == parse_expr(same, CTX)


@pytest.mark.parametrize("text", [
    "i*z1*",          # dangling operator
    "(t",             # unbalanced paren
    "sinh t",         # function without parens
    "p_x p_y",        # juxtaposition is not multiplication
    "t ^ x",          # non-natural exponent
    "t/2^x",          # non-natural exponent of a numeric divisor
    "t/0^2",          # division by zero
    # nesting far beyond the parser's limit
    pytest.param("(" * 3000 + "t" + ")" * 3000, id="3000-parentheses"),
    pytest.param("-" * 3000 + "t", id="3000-unary-minuses"),
    pytest.param("exp(" * 3000 + "t" + ")" * 3000, id="3000-function-calls"),
])
def test_syntax_errors(text):
    with pytest.raises(ExprSyntaxError):
        parse_expr(text, CTX)


def test_nesting_up_to_the_limit_parses():
    from bialgebra_forge.exprparse import MAX_NESTING
    deep = "(" * (MAX_NESTING - 1) + "t" + ")" * (MAX_NESTING - 1)
    assert coeff(deep) == CTX.param_poly("t")
    assert coeff("-" * (MAX_NESTING - 1) + "t") == -CTX.param_poly("t")


@pytest.mark.parametrize("order, slack, cap, limit", [
    (5, 2, None, 64), (5, 0, None, 64), (2, 2, None, 64), (12, 2, None, 64),
    (16, 2, None, 64), (5, 2, 7, 7), (12, 2, 24, 24),
])
def test_the_parser_holds_each_word_to_the_word_limit(order, slack, cap, limit):
    """The word-length limit is the cap when one is given, else 64, at
    every order and slack. A word one letter past it is refused, whether
    a power, a series times a power or a product forms it, and a divisor
    that makes the text parse again at a higher order does not widen
    it."""
    ctx = replace(context5(), order=order, slack=slack, cap=cap)
    assert exprparse.word_limit(ctx) == limit
    assert parse_expr(f"t*p_x^{limit}", ctx).terms
    for text in (f"t*p_x^{limit + 1}", "t*p_x^200", f"t*p_x^{limit}*p_y",
                 f"t*exp(t*p_x)*p_x^{limit}", f"t*(t*p_x)^{limit + 1}/t^{limit + 1}"):
        with pytest.raises(CapExceededError, match=f"word-length limit {limit}$"):
            parse_expr(text, ctx)


@pytest.mark.parametrize("settings_, text, read_first", [
    # the first three took 18-33 s each and ended in MemoryError under a
    # 1.5 GB address-space limit when no term limit held them
    ({"slack": 40}, "t*(p_x+p_y)^40", None),
    ({}, "t*(p_x+p_y+p_z+l_x+l_y+l_z)^9", None),
    ({"order": 12}, "t*exp(t*(p_x+p_y+p_z+l_x+l_y+l_z))", None),
    ({}, "t*(p_x+p_y)^10 (x) (p_x+p_y)^10", "(p_x+p_y)^10"),
    ({}, "t*(t*p_x+t*p_y)^30/t^30", "(t*p_x+t*p_y)^30"),
    # a series sums its powers: 4^9 terms pass the limit, 4^0+...+4^9 do not
    ({"order": 9, "slack": 0}, "exp(t*(p_x+p_y+p_z+l_x))", None),
])
def test_a_value_past_the_term_limit_is_refused_before_it_is_formed(
        settings_, text, read_first, monkeypatch):
    """A power, series or tensor join that can form more than MAX_TERMS
    terms is refused before the kernel forms it. A legitimate part of the
    text (the join's two powers, or the divided power at the first parse
    order) is read into the memo first, so that no kernel product,
    power, series or tensor runs at all after."""
    ctx = replace(context5(), **settings_)
    memo = {}
    if read_first:
        parse_expr(read_first, ctx, _memo=memo)

    def unformed(*args, **kwargs):
        raise AssertionError("the kernel formed a value the parser should refuse")

    for owner, name in ((NCPoly, "raised"), (exprparse, "series_apply"),
                        (ncpoly._Terms, "times"), (exprparse, "tensor")):
        monkeypatch.setattr(owner, name, unformed)
    with pytest.raises(CapExceededError, match=f"term limit {exprparse.MAX_TERMS}$"):
        parse_expr(text, ctx, _memo=memo)


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("i*z1*)p_y", CTX)
    assert "position" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("", "unexpected end of expression"),
    ("   ", "unexpected end of expression"),
    ("p_x +", "unexpected end of expression"),
    ("2^", "expected NUMBER, found end of expression"),
    ("p_x (x)", "unexpected end of expression"),
])
def test_an_error_at_the_end_of_the_text_names_the_end(text, message):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, CTX)
    assert err.value.position == len(text)
    assert str(err.value) == f"{message} (at position {len(text)})"


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("i*zz*p_y", CTX)


def test_inexact_division_reported():
    with pytest.raises(InexactDivisionError):
        parse_expr("(z1*p_y)/z2", CTX)


def test_nested_tensor_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("(p_x (x) p_y) (x) p_z", CTX)


def test_a_second_tensor_join_is_rejected_at_the_join():
    # coproducts and tangent delta values are squares; no input reads a cube
    text = "p_x (x) 1 (x) 1"
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, CTX)
    assert err.value.position == text.rindex("(x)")
    assert "beyond a square" in str(err.value)


def test_mixed_arity_sum_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("p_x (x) p_y + p_z", CTX)


def test_round_trip_on_dataset_expressions():
    doc = corrected_document()
    texts = [item["rhs"] for item in doc.presentation["brackets"]]
    texts += list(doc.presentation["coproducts"].values())
    for text in texts:
        value = parse_expr(text, CTX)
        again = parse_expr(str(value), CTX)
        assert again == value, text


def test_printer_produces_grammar_conformant_scalars():
    p = parse_expr("(1/2 + 3*i/4)*p_x + (-1/2)*p_y - i*p_z", CTX)
    assert parse_expr(str(p), CTX) == p


# a nonzero Gaussian rational: often 1, -1, i or -i, else any small one
_GAUSSIAN = st.one_of(
    st.sampled_from((Scalar(1), Scalar(-1), I, -I)),
    st.builds(Scalar, st.fractions(-3, 3, max_denominator=4),
              st.fractions(-3, 3, max_denominator=4)).filter(bool),
)


@st.composite
def _printable_values(draw):
    """A nonzero word or tensor-square polynomial over 2-3 generators and
    2-3 parameters at order 0-4: up to four keys (words of up to four
    letters over so few generators repeat letters, and the empty word is
    the unit), each with one to three Gaussian-rational terms."""
    generators = ("a", "b", "c")[:draw(st.integers(2, 3))]
    params = ("u", "v", "w")[:draw(st.integers(2, 3))]
    order = draw(st.integers(0, 4))
    ctx = Context(Basis(generators), params, order=order, slack=0)
    exps = st.tuples(*[st.integers(0, order)] * len(params)).filter(lambda e: sum(e) <= order)
    coefficient = st.dictionaries(exps, _GAUSSIAN, min_size=1, max_size=3).map(
        lambda terms: ParamPoly(params, order, terms))
    word = st.lists(st.integers(0, len(generators) - 1), max_size=4).map(tuple)
    if draw(st.booleans()):
        return NCPoly(ctx, draw(st.dictionaries(word, coefficient, min_size=1, max_size=4)))
    keys = st.tuples(word, word)
    return TensorNCPoly(ctx, 2, draw(st.dictionaries(keys, coefficient, min_size=1, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(_printable_values())
def test_every_printed_value_parses_back_to_itself(value):
    assert parse_expr(str(value), value.context) == value


@settings(max_examples=30, deadline=None)
@given(_printable_values())
def test_printing_reads_the_packed_terms_and_forms_no_param_poly(value):
    def formed(*args, **kwargs):
        raise AssertionError("printing formed a ParamPoly")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ParamPoly, "__init__", formed)
        patch.setattr(ParamPoly, "_like", formed)
        text = str(value)
    assert parse_expr(text, value.context) == value


# -- independent oracle: sympy expansions truncated at the order -----------------

ORACLE_PARAMS = ("t", "h", "z")
ORACLE_SYMBOLS = sympy.symbols(ORACLE_PARAMS)
ORACLE_ORDER = 4
ORACLE_CTX = Context(Basis(("g",)), ORACLE_PARAMS, order=ORACLE_ORDER, cap=4, slack=2)
_PARAM_PAIRS = list(zip(ORACLE_PARAMS, ORACLE_SYMBOLS))

# (text, sympy expression) pairs of word-free expressions; every operand
# is parenthesised, so the text needs no precedence
_leaves = st.one_of(
    st.integers(0, 5).map(lambda n: (str(n), sympy.Integer(n))),
    st.just(("i", sympy.I)),
    st.sampled_from(_PARAM_PAIRS),
)


def _compound(inner):
    two = st.tuples(inner, inner)
    return st.one_of(
        two.map(lambda ab: (f"({ab[0][0]})+({ab[1][0]})", ab[0][1] + ab[1][1])),
        two.map(lambda ab: (f"({ab[0][0]})-({ab[1][0]})", ab[0][1] - ab[1][1])),
        two.map(lambda ab: (f"({ab[0][0]})*({ab[1][0]})", ab[0][1] * ab[1][1])),
        inner.map(lambda a: (f"-({a[0]})", -a[1])),
        st.tuples(inner, st.integers(1, 4)).map(
            lambda an: (f"({an[0][0]})/{an[1]}", an[0][1] / an[1])),
        st.tuples(inner, st.integers(1, 4), st.integers(0, 3)).map(
            lambda ank: (f"({ank[0][0]})/{ank[1]}^{ank[2]}",
                         ank[0][1] / sympy.Integer(ank[1]) ** ank[2])),
        st.tuples(inner, st.integers(0, 3)).map(
            lambda an: (f"({an[0][0]})^{an[1]}", an[0][1] ** an[1])),
        # a series of a parameter-weighted argument
        st.tuples(st.sampled_from(("exp", "sinh", "cosh")),
                  st.sampled_from(_PARAM_PAIRS), inner).map(
            lambda f: (f"{f[0]}({f[1][0]}*({f[2][0]}))",
                       getattr(sympy, f[0])(f[1][1] * f[2][1]))),
    )


def _truncated(expr):
    """expr expanded through total degree ORACLE_ORDER: every parameter
    is weighted by eps and the series in eps is cut above that order."""
    eps = sympy.Symbol("eps")
    weighted = expr.subs({s: eps * s for s in ORACLE_SYMBOLS}, simultaneous=True)
    return sympy.series(weighted, eps, 0, ORACLE_ORDER + 1).removeO().subs(eps, 1)


def _as_sympy(p):
    return sum(
        ((c.re + sympy.I * c.im) * sympy.Mul(*(s ** k for s, k in zip(ORACLE_SYMBOLS, e)))
         for e, c in p.terms.items()),
        sympy.Integer(0),
    )


@given(st.recursive(_leaves, _compound, max_leaves=8))
@settings(max_examples=100, deadline=None)
def test_coefficients_match_sympy_truncated(pair):
    text, expr = pair
    got = _as_sympy(parse_coefficient(text, ORACLE_CTX))
    assert sympy.expand(got - _truncated(expr)) == 0, text


@given(*[st.recursive(_leaves, _compound, max_leaves=3)] * 2, _leaves,
       st.recursive(_leaves, _compound, max_leaves=3),
       st.sampled_from(_PARAM_PAIRS), st.sampled_from(_PARAM_PAIRS),
       st.sampled_from(("exp", "sinh", "cosh")), st.integers(0, 3))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_repeated_groups_match_sympy_truncated(a, b, c, d, p, q, fn, n):
    # one group holding a pending parameter division, a power and a
    # series, read three times: at top level, under a power (which
    # resolves its division) and under one more parenthesis
    group = f"(({p[0]}*({a[0]}))/{p[0]}*({b[0]})^{n}*{fn}({q[0]}*({c[0]})))"
    value = (p[1] * a[1]) / p[1] * b[1] ** n * getattr(sympy, fn)(q[1] * c[1])
    text = f"{group}*({d[0]}) + {group}^2 - ({group})"
    got = _as_sympy(parse_coefficient(text, ORACLE_CTX))
    # cutting at the order commutes with sums and products, so each
    # operand is cut first and the sum of products is a polynomial
    v, w = _truncated(value), _truncated(d[1])
    whole = sympy.Poly(v * w + v ** 2 - v, *ORACLE_SYMBOLS)
    want = sum((k * sympy.Mul(*(s ** e for s, e in zip(ORACLE_SYMBOLS, m)))
                for m, k in whole.terms() if sum(m) <= ORACLE_ORDER), sympy.Integer(0))
    assert sympy.expand(got - want) == 0, text


# -- single-term products: emitted-document-shaped sums -------------------------------

# words of up to 3 letters over a, b against a cap of 2; the first parse
# works at SINGLE_ORDER, above the cut at ORACLE_ORDER (no divisor here)
SINGLE_CTX = Context(Basis(("a", "b")), ORACLE_PARAMS, order=ORACLE_ORDER, cap=2, slack=2)
SINGLE_ORDER = ORACLE_ORDER + SINGLE_CTX.slack

_gaussian = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 4)).filter(
    lambda abd: abd[0] or abd[1]).map(
    lambda abd: Scalar(Fraction(abd[0], abd[2]), Fraction(abd[1], abd[2])))
# exponents of t, h, z: total degrees 0-9, so some pass SINGLE_ORDER
_exponents = st.tuples(*[st.integers(0, 3)] * len(ORACLE_PARAMS))
_word = st.lists(st.integers(0, 1), max_size=3).map(tuple)


def _side_text(coeff, exps, word):
    """A product as an emitted document prints it: coefficient,
    parameter powers, then the word with its runs as powers."""
    parts = [] if coeff == ONE else [format_scalar(coeff)]
    parts += [name if p == 1 else f"{name}^{p}"
              for name, p in zip(ORACLE_PARAMS, exps) if p]
    if word:
        parts.append(word_str(word, SINGLE_CTX.basis))
    return "*".join(parts) or "1"


def _side_raises(exps, word):
    """Whether reading this side passes the cap: a run power longer than
    the cap always does; otherwise the word's factors, read after the
    parameters, pass it when the word is longer and the coefficient has
    a term within the parse order. A word-free side never does."""
    runs = (len(list(run)) for _, run in itertools.groupby(word))
    return max(runs, default=0) > SINGLE_CTX.cap or (
        len(word) > SINGLE_CTX.cap and sum(exps) <= SINGLE_ORDER)


def _monomial(exps):
    return sympy.Mul(*(s ** k for s, k in zip(ORACLE_SYMBOLS, exps)))


@given(st.lists(st.tuples(_gaussian, _exponents, _word, _exponents, _word),
                min_size=1, max_size=5), st.booleans())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_single_term_sums_match_sympy_truncated(terms, joined):
    texts, want, raises = [], collections.defaultdict(lambda: sympy.Integer(0)), False
    for coeff, exps, word, right_exps, right_word in terms:
        text = _side_text(coeff, exps, word)
        value = (coeff.re + sympy.I * coeff.im) * _monomial(exps)
        key = word
        raises |= _side_raises(exps, word)
        if joined:
            text += " (x) " + _side_text(ONE, right_exps, right_word)
            value *= _monomial(right_exps)
            key = (word, right_word)
            raises |= _side_raises(right_exps, right_word)
        texts.append(text)
        want[key] += value
    text = "".join(t if i == 0 or t.startswith("-") else "+" + t for i, t in enumerate(texts))
    if raises:
        with pytest.raises(CapExceededError):
            parse_expr(text, SINGLE_CTX)
        return
    got = parse_expr(text, SINGLE_CTX)
    assert isinstance(got, TensorNCPoly) == joined, text
    coefficients = got.coefficients()
    for key in set(want) | set(coefficients):
        whole = sympy.Poly(want.get(key, sympy.Integer(0)), *ORACLE_SYMBOLS)
        cut = sum((k * _monomial(m) for m, k in whole.terms() if sum(m) <= ORACLE_ORDER),
                  sympy.Integer(0))
        have = coefficients.get(key, ParamPoly.zero(ORACLE_PARAMS, ORACLE_ORDER))
        assert sympy.expand(_as_sympy(have) - cut) == 0, (text, key)


def test_a_build_does_no_per_factor_polynomial_work():
    # (NCPoly.times, _Terms.scaled, ncpoly.outer, Context) calls of one
    # build. A factor that became a polynomial, a sum that copied its
    # total or a Context made per expression showed here as
    # (50, 86, 18, 27) on @corrected and (25, 153, 37, 23) on the
    # emitted diagonal, whose expressions are sums of single terms. The
    # times calls left are mostly the factors of powers and series of a
    # single term (one term_product each): 36 of 45 and all 19
    corrected = corrected_document()
    assert build_work(corrected, corrected.make_context()) == (45, 10, 12, 1)
    diagonal = bf.presentation_document(diagonal5())
    assert build_work(diagonal, diagonal.make_context()) == (19, 0, 0, 1)


# -- one build, one parse memo -------------------------------------------------------


def test_a_build_expands_each_distinct_series_once(monkeypatch):
    calls = []

    def counted(fn, arg):
        calls.append(fn)
        return series_apply(fn, arg)

    monkeypatch.setattr(exprparse, "series_apply", counted)
    doc = corrected_document()
    ctx = doc.make_context()
    first = doc.build_presentation(ctx)
    # 28 series in the text, 6 distinct: sinh(z2*p_x), sinh(z2*h*l_z),
    # cosh(z2*h*l_z), exp(±(z2/2)*p_x) and sinh((z2/2)*p_x)
    assert len(calls) == 6
    # a second build expands them again: no memo outlives a build
    second = doc.build_presentation(ctx)
    assert len(calls) == 12
    assert presentation_diff(first, second) == []


def test_exprparse_keeps_no_module_level_mutable_state():
    mutable = [
        name for name, value in vars(exprparse).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set, bytearray))
    ]
    assert mutable == []


def test_a_repeated_group_expands_its_series_once_per_build(monkeypatch):
    calls = []

    def counted(fn, arg):
        calls.append(fn)
        return series_apply(fn, arg)

    monkeypatch.setattr(exprparse, "series_apply", counted)
    group = "(t*sinh(z*c))"
    doc = bf.Document.from_dict({
        "schema": SCHEMA, "parameters": ["t", "z"], "generators": ["a", "b", "c"],
        "presentation": {
            "brackets": [
                {"left": "a", "right": "b", "rhs": f"{group}*a"},
                {"left": "a", "right": "c", "rhs": f"{group}*b - t*{group}"},
                {"left": "b", "right": "c", "rhs": f"t*{group}^2"},
            ],
            "coproducts": {g: f"{g} (x) 1 + 1 (x) {g} + {group} (x) {g}" for g in "abc"},
            "counit": {g: "0" for g in "abc"},
        },
    })
    ctx = doc.make_context()
    first = doc.build_presentation(ctx)
    assert calls == ["sinh"]
    second = doc.build_presentation(ctx)
    assert calls == ["sinh", "sinh"]
    assert presentation_diff(first, second) == []


class _Unkept(dict):
    """A parse memo that keeps nothing, so every read parses afresh."""

    def __setitem__(self, key, value):
        pass


def _memo_cases():
    corrected = corrected_document()
    for order in (5, 8, 12):
        yield pytest.param(corrected, dict(order=order, cap=2 * order), id=f"corrected-o{order}")
    for seed in (1, 2):
        data = widegen().wide_document(corrected.to_dict(), 2, seed)
        yield pytest.param(bf.Document.from_dict(data), {}, id=f"wide-seed{seed}")
    # multi-term unit series raised to powers, at an order above the
    # one they were written through
    data = widegen().wide_document(corrected.to_dict(), 2, 3)
    yield pytest.param(bf.Document.from_dict(data), dict(order=7, cap=14), id="wide-seed3-o7")
    # emitted text: expanded polynomials full of parameter and generator
    # powers
    diagonal = bf.presentation_document(diagonal5())
    for order in (5, 8):
        yield pytest.param(diagonal, dict(order=order, cap=2 * order), id=f"diagonal-o{order}")


@pytest.mark.parametrize("doc, settings_", list(_memo_cases()))
def test_a_shared_memo_builds_what_fresh_parses_build(doc, settings_, monkeypatch):
    ctx = doc.make_context(**settings_)
    shared = doc.build_presentation(ctx)
    with monkeypatch.context() as patch:
        patch.setattr(document, "parse_expr",
                      lambda text, context, _memo: parse_expr(text, context, _memo=_Unkept()))
        patch.setattr(document, "parse_coefficient", lambda text, context, _memo:
                      parse_coefficient(text, context, _memo=_Unkept()))
        fresh = doc.build_presentation(ctx)
    assert presentation_diff(shared, fresh) == []


def _parsed(text, context, memo):
    """The value and the loss of one Parser pass over text at context's
    order, reading and filling memo."""
    parser = exprparse.Parser(context, (text, *exprparse._lex(text)), memo)
    return parser.parse(), parser.loss


POWER_TEXTS = [
    # identifiers, a blank inside one repeat
    "t^2*p_x + t^2*p_y - p_x^3 + h*p_x^3 + t ^ 2*l_x",
    # a group whose pending division stays inexact through the power ...
    "(t/z2)^2*z2^2*p_x + (t/z2)^2*z2^3*p_y",
    # ... and one that divides exactly before it, a degree lost per read
    "(t*z2/z2)^3*p_x + h*(t*z2/z2)^3 - (t*z2/z2)^3*l_y",
    # groups without divisions
    "(t+h*p_x)^2*p_y + p_y*(t+h*p_x)^2 - (2*t-i*l_z)^3",
    # series calls
    "exp(h*p_x)^2 - t*exp(h*p_x)^2 + sinh(z1*p_y)^3*cosh(z1*p_y)^2",
    # chains, unary minus and a power after a divisor
    "t^2^2*p_x + (t^2)^2*p_y - (-t)^2*l_x - -t^2*l_y + (h*p_x)/2^3^2",
]


def test_a_shared_memo_raises_what_an_unkept_memo_raises():
    shared = {}
    for ctx in (CTX, replace(CTX, order=CTX.order + CTX.slack)):
        for text in POWER_TEXTS * 2:  # the second round reads every power from the memo
            assert _parsed(text, ctx, shared) == _parsed(text, ctx, _Unkept()), text
    for text in ("t^2", "(t/z2)^2", "(t*z2/z2)^3", "(t+h*p_x)^2", "exp(h*p_x)^2",
                 "t^2^2", "(h*p_x)/2^3^2"):
        assert (CTX.order, text) in shared, text
    assert (CTX.order, "t ^ 2") in shared
    # the exact division is a lost degree on every read, memo or not
    _, loss = _parsed("(t*z2/z2)^3*p_x + (t*z2/z2)^3*p_y", CTX, shared)
    assert loss == 2


def test_a_build_raises_each_distinct_power_once(monkeypatch):
    """One build of the emitted z1=z2=z diagonal document raises each
    distinct (order, power text) once, however often it is read."""
    doc = bf.presentation_document(diagonal5())
    reads, raised = collections.Counter(), collections.Counter()
    memoised, raise_ = exprparse.Parser._memoised, NCPoly.raised
    calls = 0

    def counted_raise(poly, n):
        nonlocal calls
        calls += 1
        return raise_(poly, n)

    def counted_power(parser, start, end, parse, *args):
        if parse != parser._power:
            return memoised(parser, start, end, parse, *args)
        key = parser._text_key(start, end)
        reads[key] += 1
        before = calls
        value = memoised(parser, start, end, parse, *args)
        raised[key] += calls - before
        return value

    monkeypatch.setattr(NCPoly, "raised", counted_raise)
    monkeypatch.setattr(exprparse.Parser, "_memoised", counted_power)
    doc.build_presentation(doc.make_context())
    assert dict(raised) == dict.fromkeys(reads, 1)
    assert calls == len(reads)
    assert sum(reads.values()) > 2 * len(reads)


def test_a_build_parses_each_distinct_group_once(monkeypatch):
    """One build of a two-copy wide document misses the parse memo once
    per distinct (order, group, call or power text), counits included:
    each counit is its generator's unit-inverse group times a constant,
    and that group was parsed for the coproduct already."""
    doc = bf.Document.from_dict(
        widegen().wide_document(corrected_document().to_dict(), 2, 1))
    misses = collections.Counter()
    memoised = exprparse.Parser._memoised

    def counted(parser, start, end, parse, *args):
        if end is not None:
            key = parser._text_key(start, end)
            if key not in parser.memo:
                misses[key] += 1
        return memoised(parser, start, end, parse, *args)

    monkeypatch.setattr(exprparse.Parser, "_memoised", counted)
    doc.build_presentation(doc.make_context())
    assert set(misses.values()) == {1}
    groups = {text for _, text in misses}
    counits = doc.presentation["counit"].values()
    assert all(text.rsplit("*", 1)[0] in groups for text in counits)


@pytest.mark.parametrize("before, group, levels, offset", [
    # (t) opened at level MAX_NESTING puts its t one level past the limit
    ("", "(t)", exprparse.MAX_NESTING - 1, 1),
    # the t of (t+h) is the first factor of this group two levels down
    ("", "(z1*(t+h))", exprparse.MAX_NESTING - 2, 5),
    # the group's first read takes its inner (t) from the memo too
    ("(t)*", "(h*(t))", exprparse.MAX_NESTING - 2, 4),
])
def test_a_repeat_nested_past_the_limit_raises_where_the_text_says(
        before, group, levels, offset):
    nested = "(" * levels + group + ")" * levels
    for first in (f"{before}{group}*", "t*"):  # the group read before, or not
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(first + nested, CTX)
        assert err.value.position == len(first) + levels + offset
    # one level less parses, memo hit and all
    shallower = "(" * (levels - 1) + group + ")" * (levels - 1)
    assert parse_expr(f"{group}*{shallower}", CTX) == parse_expr(f"{group}^2", CTX)


def test_a_repeated_group_adds_its_divisions_to_the_loss(monkeypatch):
    # each (z2*t/z2 + h) resolves one division, so three of them cost three
    # degrees, past the slack of 2: parsed again at order + 3, as if no
    # repeat were read from the memo
    orders = []

    class Spy(exprparse.Parser):
        def __init__(self, context, *rest):
            orders.append(context.order)
            super().__init__(context, *rest)

    monkeypatch.setattr(exprparse, "Parser", Spy)
    terms = [f"(z2*t/z2 + h)*{g}" for g in ("p_x", "p_y", "p_z")]
    whole = parse_expr(" + ".join(terms), CTX)
    assert orders == [CTX.order + CTX.slack, CTX.order + 3]
    alone = [parse_expr(term, CTX) for term in terms]
    assert orders[2:] == [CTX.order + CTX.slack] * 3
    assert whole == alone[0] + alone[1] + alone[2]
