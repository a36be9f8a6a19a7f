import contextlib
import functools
import io
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge import rewrite
from bialgebra_forge.cli import main
from bialgebra_forge.errors import CapExceededError
from bialgebra_forge.ncpoly import NCPoly, TensorNCPoly, tensor
from bialgebra_forge.rewrite import (
    commutator, normal_form_word, normalize, presentation_jacobi_defect,
)
from bialgebra_forge.scalars import Scalar

import hopfref
import twist
from conftest import (
    call_counts, context3, corrected_document, kernel_counts, presentation3,
    presentation5, rewrite_steps, terms_through, widegen,
)
from test_flat_terms import ref_normalize
from test_twist import R3, _jacobi as perturb_jacobi

WIDE = Path(__file__).resolve().parent / "data" / "wide.json"

P_X, P_Y, P_Z, L_X, L_Y, L_Z = range(6)

REL5 = presentation5().rel
REL3 = presentation3().rel
CTX5 = REL5.context
CTX3 = REL3.context


def word_poly(ctx, *letters):
    return NCPoly(ctx, {tuple(letters): ctx.const_poly(1)})


def test_normalize_one_rewrite_step():
    # l_z l_x -> l_x l_z + [l_z, l_x], the rhs being the expanded
    # sinh-prefactor relation
    got = normalize(word_poly(CTX5, L_Z, L_X), REL5)
    t = CTX5.param_poly("t")
    z2h = CTX5.param_poly("z2") * CTX5.param_poly("h")
    expected = NCPoly(CTX5, {
        (L_X, L_Z): CTX5.const_poly(1),
        (L_Z,): t,
        (L_Z,) * 3: (t * z2h * z2h).scale(Scalar(Fraction(1, 6))),
        (L_Z,) * 5: (t * z2h ** 4).scale(Scalar(Fraction(1, 120))),
    })
    assert got == expected


def test_normalize_sorted_word_unchanged():
    p = word_poly(CTX5, P_X, L_X, L_Z)
    assert normalize(p, REL5) == p


def test_normalize_commuting_pair():
    assert normalize(word_poly(CTX5, P_Y, P_X), REL5) == word_poly(CTX5, P_X, P_Y)


def test_commutator_pz_lz():
    got = commutator(
        NCPoly.generator(CTX5, P_Z), NCPoly.generator(CTX5, L_Z), REL5
    )
    # 2ht sinh((z2/2) p_x) expanded
    ht = CTX5.param_poly("h") * CTX5.param_poly("t")
    z2 = CTX5.param_poly("z2")
    expected = NCPoly(CTX5, {
        (P_X,): (ht * z2),
        (P_X,) * 3: (ht * z2 ** 3).scale(Scalar(Fraction(1, 24))),
        (P_X,) * 5: (ht * z2 ** 5).scale(Scalar(Fraction(1, 1920))),
    })
    assert got == expected


def test_commutator_with_self_vanishes():
    a = NCPoly.generator(CTX5, P_Y) * NCPoly.generator(CTX5, L_X)
    assert not commutator(a, a, REL5)


def test_commuting_generators():
    got = commutator(
        NCPoly.generator(CTX5, P_Y), NCPoly.generator(CTX5, L_Z), REL5
    )
    assert not got


def test_presentation_jacobi_zero():
    defects = presentation_jacobi_defect(REL3)
    trimmed = {
        key: value
        for key, value in ((k, v.truncate(CTX3.order)) for k, v in defects.items())
        if value
    }
    assert trimmed == {}


def test_presentation_jacobi_is_exact_through_the_order():
    # the cyclic sums of @corrected start at degree 6, above order 5,
    # where the table carries nothing
    assert presentation_jacobi_defect(REL5) == {}


def _twisted(n, r, perturb=None):
    """A twisted U(gl_n) document (tests/twist.py), perturbed in place by
    perturb when given."""
    data = twist.twisted_gln(n, r)
    if perturb is not None:
        perturb(data)
    return bf.Document.from_dict(data)


@pytest.mark.parametrize("document, order, cap, triples", [
    # @corrected's cyclic sums start at degree 6, where rewriting stops
    # being confluent: past it the defects are the leftmost forms
    (corrected_document, 5, 10, 0),
    (corrected_document, 6, 12, 3),
    (corrected_document, 8, 16, 4),
    (lambda: _twisted(2, {(0, 1): Scalar(1, -3)}), 5, 12, 0),
    (lambda: _twisted(3, R3), 5, 12, 0),
    (lambda: _twisted(3, R3, perturb_jacobi), 5, 12, 4),
], ids=["corrected-o5", "corrected-o6", "corrected-o8", "twisted-gl2", "twisted-gl3",
        "perturbed-gl3"])
def test_presentation_jacobi_defect_is_the_reference_cyclic_sum(document, order, cap,
                                                                triples):
    """Each defect value equals the reference's: the cyclic sum of
    commutators formed in full from the stored brackets, cut at the order
    and normalised leftmost (hopfref.jacobi_defect)."""
    doc = document()
    table = doc.build_presentation(doc.make_context(order=order, cap=cap)).rel
    got = {key: value.coefficients()
           for key, value in presentation_jacobi_defect(table).items()}
    assert got == hopfref.jacobi_defect(table)
    assert len(got) == triples


def test_sign_flip_of_the_z1_relation_is_a_reparameterization():
    # z1 appears in [p_z,p_x] only, so flipping that sign is the change
    # of parameters z1 -> -z1: the table stays consistent at any order
    doc = bf.load_bundled("corrected").to_dict()
    for item in doc["presentation"]["brackets"]:
        if item["left"] == "p_z" and item["right"] == "p_x":
            item["rhs"] = "-i*z1*p_y"
    flipped = bf.Document.from_dict(doc)
    H = flipped.build_presentation(flipped.make_context(order=3))
    defects = presentation_jacobi_defect(H.rel)
    trimmed = {k: v for k, v in ((k, v.truncate(3)) for k, v in defects.items()) if v}
    assert trimmed == {}


def test_presentation_jacobi_detects_coefficient_corruption():
    doc = bf.load_bundled("corrected").to_dict()
    for item in doc["presentation"]["brackets"]:
        if item["left"] == "l_y" and item["right"] == "l_x":
            item["rhs"] = "2*t*l_y"
    corrupted = bf.Document.from_dict(doc)
    H = corrupted.build_presentation(corrupted.make_context(order=4))
    defects = presentation_jacobi_defect(H.rel)
    trimmed = {k: v for k, v in ((k, v.truncate(4)) for k, v in defects.items()) if v}
    assert trimmed
    assert all(any(g >= L_X for g in key) for key in trimmed)


# -- properties --------------------------------------------------------------------

words = st.lists(st.integers(0, 5), min_size=0, max_size=4).map(tuple)
coeffs = st.sampled_from([
    Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(Fraction(1, 2)), Scalar(2),
])


@st.composite
def random_polys(draw):
    ctx = context3()
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = draw(words)
        coeff = draw(coeffs)
        pdeg = draw(st.integers(0, 2))
        poly = ctx.const_poly(coeff)
        if pdeg:
            poly = poly * ctx.param_poly("t") ** pdeg
        terms[word] = terms.get(word, ctx.zero_poly()) + poly
    return NCPoly(ctx, terms)


@given(random_polys())
@settings(max_examples=50, deadline=None)
def test_normalize_idempotent(p):
    once = normalize(p, REL3)
    assert normalize(once, REL3) == once


@given(random_polys(), random_polys())
@settings(max_examples=40, deadline=None)
def test_normalize_multiplicative(a, b):
    lhs = normalize(a * b, REL3)
    rhs = normalize(normalize(a, REL3) * normalize(b, REL3), REL3)
    assert lhs == rhs


@given(st.lists(st.integers(0, 5), min_size=2, max_size=5).map(tuple),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_rewriting_strategy_confluence(word, seed):
    # the kernel's leftmost form is the one the reference reaches by
    # rewriting a randomly drawn out-of-order pair at each step
    randomized = hopfref.normal_form(
        hopfref.rules(REL3), {word: CTX3.const_poly(1)}, random.Random(seed))
    assert normal_form_word(REL3, word).coefficients() == randomized


# -- sorted words pass through the normaliser ---------------------------------------

sorted_words = words.map(lambda w: tuple(sorted(w)))


@st.composite
def tensor_polys(draw):
    """A word polynomial (arity 1) or a tensor square or cube over context3
    whose factor words mix sorted and unsorted ones."""
    ctx = context3()
    arity = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = tuple(draw(st.one_of(sorted_words, words)) for _ in range(arity))
        coeff = ctx.const_poly(draw(coeffs)) * ctx.param_poly("t") ** draw(st.integers(0, 2))
        terms[key[0] if arity == 1 else key] = coeff
    return NCPoly(ctx, terms) if arity == 1 else TensorNCPoly(ctx, arity, terms)


@given(tensor_polys(), st.one_of(st.none(), st.integers(0, 2 ** 31 - 1)))
@settings(max_examples=60, deadline=None)
def test_normalize_matches_normal_forms_of_every_factor(p, seed):
    """normalize, which passes sorted factors through, equals the
    reference normal form of every factor word, rewriting leftmost (no
    seed) or a drawn out-of-order pair at each step."""
    rng = None if seed is None else random.Random(seed)
    assert normalize(p, REL3) == ref_normalize(p, hopfref.rules(REL3), CTX3.order, rng)


def test_normal_input_makes_no_normal_form_calls(monkeypatch):
    calls = []

    def counted(table, word, *, budget=None):
        calls.append(word)
        return normal_form_word(table, word, budget=budget)

    monkeypatch.setattr(rewrite, "normal_form_word", counted)
    g = [NCPoly.generator(CTX5, i) for i in range(6)]
    normal = (tensor(g[P_X] * g[L_X], g[P_Y], g[P_X] * g[P_X] * g[L_Z])
              + tensor(g[L_Y], NCPoly.unit(CTX5), g[P_Z]).scale(CTX5.param_poly("t")))
    assert normalize(normal, REL5) == normal
    assert normalize(tensor(g[P_Y], g[P_X]), REL5) == tensor(g[P_Y], g[P_X])
    assert calls == []
    # an unsorted factor is rewritten; the sorted one beside it is not
    expected = tensor(normalize(g[L_Z] * g[L_X], REL5), g[P_X] * g[L_Z])
    calls.clear()
    assert normalize(tensor(g[L_Z] * g[L_X], g[P_X] * g[L_Z]), REL5) == expected
    assert calls == [(L_Z, L_X)]


# -- the one-pass commutator ---------------------------------------------------------

ORACLE_BASIS = bf.Basis(("a", "b", "c", "d"))
short_words = st.lists(st.integers(0, 3), max_size=3).map(tuple)


def oracle_coeff(draw, ctx, low):
    """A coefficient of lowest degree at least low: a scalar times a
    monomial in t and h, plus at times a second such term."""
    out = ctx.zero_poly()
    for _ in range(draw(st.integers(1, 2))):
        t, h = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        if t + h < low:
            t = low
        mono = ctx.param_poly("t") ** t * ctx.param_poly("h") ** h
        out = out + mono.scale(draw(coeffs))
    return out


@st.composite
def oracle_tables(draw):
    """A relation table on four generators, each bracket empty or a short
    contracting rhs. Rhs words have at most two letters, so rewriting
    never lengthens a word, and only a product word can pass the cap."""
    ctx = bf.Context(ORACLE_BASIS, ("t", "h"), order=3, cap=5)
    entries = []
    for j in range(4):
        for i in range(j):
            if draw(st.booleans()):
                continue
            terms = {
                draw(short_words.map(lambda w: w[:2])): oracle_coeff(draw, ctx, 1)
                for _ in range(draw(st.integers(1, 2)))
            }
            entries.append((j, i, NCPoly(ctx, terms)))
    return rewrite.RelationTable(ctx, entries)


def oracle_values(draw, ctx, arity):
    """A word polynomial (arity 1) or tensor over ctx whose factor words
    mix sorted and unsorted ones of up to three letters."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = tuple(
            draw(st.one_of(short_words.map(lambda w: tuple(sorted(w))), short_words))
            for _ in range(arity)
        )
        terms[key[0] if arity == 1 else key] = oracle_coeff(draw, ctx, 0)
    return NCPoly(ctx, terms) if arity == 1 else TensorNCPoly(ctx, arity, terms)


@st.composite
def oracle_cases(draw):
    """A table and two values of one arity to take the commutator of."""
    table = draw(oracle_tables())
    arity = draw(st.integers(1, 3))
    return (table, oracle_values(draw, table.context, arity),
            oracle_values(draw, table.context, arity))


def unsorted_case():
    """b commutes with c and with a, but not with the d of [c,a] = t*d, so
    c*a*b and b*c*a have different normal forms: letters that commute one
    by one make a pair cancel only when its words are sorted."""
    ctx = bf.Context(ORACLE_BASIS, ("t", "h"), order=3, cap=5)
    t, one = ctx.param_poly("t"), ctx.const_poly(1)
    table = rewrite.RelationTable(ctx, [
        (2, 0, NCPoly(ctx, {(3,): t})), (3, 1, NCPoly(ctx, {(0,): t})),
    ])
    return table, NCPoly(ctx, {(2, 0): one}), NCPoly(ctx, {(1,): one})


def tensor_case(first, second):
    """unsorted_case's table with two tensor squares of one term each:
    first and second are their (factor word, factor word) keys."""
    table, _, _ = unsorted_case()
    ctx = table.context
    t = ctx.param_poly("t")
    return (table, TensorNCPoly(ctx, 2, {first: ctx.const_poly(1)}),
            TensorNCPoly(ctx, 2, {second: t}))


def outcome(fn):
    """fn's value, or the type and message of the cap error it raises."""
    try:
        return fn()
    except CapExceededError as exc:
        return type(exc), str(exc)


@given(oracle_cases())
@example(unsorted_case())
# b and c commute, c and a do not: the first factor pure-swaps and the
# second does not, then the reverse
@example(tensor_case(((1,), (2,)), ((2,), (0,))))
@example(tensor_case(((2,), (1,)), ((0,), (2,))))
# an unsorted factor beside a bracket: its bracket with the empty word is
# zero, yet it stands as its normal form c*a = a*c + t*d, not as a*c
@example(tensor_case(((), (2,)), ((2, 0), (0,))))
# unsorted_case in the first factor of a square: no skip may fire
@example(tensor_case(((2, 0), ()), ((1,), ())))
# c and d commute: whole operands that pure-swap, within the cap and past it
@example(tensor_case(((2,), (3,)), ((3,), (2, 2))))
@example(tensor_case(((2, 2, 2), ()), ((3, 3, 3), ())))
@settings(max_examples=120, deadline=None)
def test_commutator_matches_the_two_product_formula(case):
    table, a, b = case
    assert outcome(lambda: commutator(a, b, table)) == outcome(
        lambda: normalize(a * b - b * a, table))


def test_a_skipped_pair_past_the_cap_raises_as_the_product_does():
    # c^3 and d^3 commute letter by letter, and their product has six letters
    ctx = bf.Context(ORACLE_BASIS, ("t",), order=3, cap=5)
    table = rewrite.RelationTable(ctx, [(1, 0, NCPoly(ctx, {(2,): ctx.param_poly("t")}))])
    one, t2 = ctx.const_poly(1), ctx.param_poly("t") ** 2
    c3, d3 = (2, 2, 2), (3, 3, 3)
    for make in (lambda w, c: NCPoly(ctx, {w: c}),
                 lambda w, c: TensorNCPoly(ctx, 2, {(w, ()): c})):
        # t^2 * t^2 is cut off at order 3: no product survives, so no error
        assert not commutator(make(c3, t2), make(d3, t2), table)
        left, right = make(c3, one), make(d3, t2)
        with pytest.raises(CapExceededError) as direct:
            left * right
        with pytest.raises(CapExceededError) as routed:
            commutator(left, right, table)
        assert str(routed.value) == str(direct.value) == (
            "word c^3*d^3 exceeds generator-degree cap 5")


def test_whole_operands_that_pure_swap_keep_the_cap_of_the_product(monkeypatch):
    # c and d commute, so operands built from c's and from d's pure-swap as
    # a whole; whether any pair raises depends on its words and coefficients
    ctx = bf.Context(ORACLE_BASIS, ("t",), order=3, cap=5)
    table = rewrite.RelationTable(ctx, [(1, 0, NCPoly(ctx, {(2,): ctx.param_poly("t")}))])
    one, t2 = ctx.const_poly(1), ctx.param_poly("t") ** 2
    for make in (lambda terms: NCPoly(ctx, terms),
                 lambda terms: TensorNCPoly(ctx, 2, {(w, ()): c for w, c in terms.items()})):
        left, right = make({(2,): one, (2, 2, 2): one}), make({(3,): one, (3, 3, 3): t2})
        with pytest.raises(CapExceededError) as direct:
            left * right
        with pytest.raises(CapExceededError) as routed:
            commutator(left, right, table)
        assert str(routed.value) == str(direct.value) == (
            "word c^3*d^3 exceeds generator-degree cap 5")
        # the longest words pass the cap together, but their coefficients
        # leave no room, so no pair raises, as in the product
        quiet = make({(2,): one, (2, 2, 2): t2})
        assert (quiet * right).terms
        assert not commutator(quiet, right, table)
        # words that fit the cap together: zero, with no product formed
        fits = make({(2,): one, (2, 2): t2}), make({(3,): t2, (3, 3, 3): one})
        calls = []
        with monkeypatch.context() as patch:
            for owner, name in ((rewrite, "normal_form_word"), (Scalar, "__mul__")):
                fn = getattr(owner, name)
                patch.setattr(owner, name,
                              lambda *args, fn=fn: calls.append(args) or fn(*args))
            assert not commutator(*fits, table)
        assert calls == []


def test_the_presentation_jacobi_sum_does_no_work_across_copies(monkeypatch):
    # the wide document's two copies of @corrected commute: a commutator of
    # a bracket with a generator of the other copy, or of a zero bracket,
    # is zero and neither rewrites nor multiplies a coefficient
    data = widegen().wide_document(corrected_document().to_dict(), 2, 1)
    doc = bf.Document.from_dict(data)
    table = doc.build_presentation(doc.make_context()).rel
    copy = [name[-1] for name in table.context.basis.names]
    calls, work, active = {"across": 0, "within": 0}, {"across": 0, "within": 0}, []

    def copies(poly):
        return {copy[g] for key in poly.groups() for g in key}

    def counted(a, b, table):
        side = "within" if copies(a) == copies(b) else "across"
        calls[side] += 1
        active.append(side)
        try:
            return commutator(a, b, table)
        finally:
            active.pop()

    def counting(fn):
        def counted(*args, **kwargs):
            if active:
                work[active[-1]] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(rewrite, "commutator", counted)
    monkeypatch.setattr(rewrite, "normal_form_word", counting(normal_form_word))
    monkeypatch.setattr(Scalar, "__mul__", counting(Scalar.__mul__))
    assert presentation_jacobi_defect(table) == {}
    # of 220 triples, 2 * 20 lie within one copy
    assert calls["across"] > 0 and calls["within"] <= 3 * 40
    assert work["across"] == 0 and work["within"] > 0


def test_a_commutator_of_commuting_words_does_no_work(monkeypatch):
    # the coproducts of two generators from different copies of the wide
    # document: every letter of one commutes with every letter of the other
    data = widegen().wide_document(corrected_document().to_dict(), 2, 1)
    doc = bf.Document.from_dict(data)
    H = doc.build_presentation(doc.make_context())
    names = H.names()
    di = H.coproduct_word((names.index("l_x1"),))
    dj = H.coproduct_word((names.index("l_x2"),))
    calls = {"normal_form_word": 0, "Scalar.__mul__": 0}

    def counting(fn, name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(rewrite, "normal_form_word",
                        counting(normal_form_word, "normal_form_word"))
    monkeypatch.setattr(Scalar, "__mul__", counting(Scalar.__mul__, "Scalar.__mul__"))
    assert not commutator(dj, di, H.rel)
    assert not commutator(H.rel.bracket_poly(names.index("l_x1"), names.index("l_y1")),
                          NCPoly.generator(H.context, names.index("l_z2")), H.rel)
    assert calls == {"normal_form_word": 0, "Scalar.__mul__": 0}
    assert len(di.groups()) > 1 and len(dj.groups()) > 1


# -- degree budgets -----------------------------------------------------------------


@functools.cache
def corrected_tables(order):
    """Two tables of @corrected at order: one to request budgets of, and
    one that only ever computes full normal forms."""
    doc = corrected_document()
    ctx = doc.make_context(order=order, cap=4 * order)
    return doc.build_presentation(ctx).rel, doc.build_presentation(ctx).rel


def check_budgets(table, full, requests):
    """Normal forms requested of table at (word, budget) in the given order
    agree with full's through each budget, carry above it only terms of
    the full form, and leave a later default call the full form."""
    order = table.context.order
    for word, budget in requests:
        got = normal_form_word(table, word, budget=budget)
        want = normal_form_word(full, word)
        assert terms_through(got, budget) == terms_through(want, budget)
        # an entry cached for a larger budget carries exact terms above this one
        assert terms_through(got, order).items() <= terms_through(want, order).items()
    for word, _ in requests:
        assert normal_form_word(table, word) == normal_form_word(full, word)


@given(st.sampled_from((5, 6, 8)), st.data())
@settings(max_examples=40, deadline=None)
def test_budgeted_normal_forms_are_full_ones_through_the_budget(order, data):
    table, full = corrected_tables(order)
    table._nf_cache.clear()
    check_budgets(table, full, data.draw(st.lists(
        st.tuples(st.lists(st.integers(0, 5), min_size=2, max_size=5).map(tuple),
                  st.integers(0, order)),
        min_size=1, max_size=8,
    )))


def test_a_budgeted_normal_form_is_cut_at_its_budget():
    # one parameter and two-term coefficients: the branches of c*a*b kept
    # at budget 1 reach (t+3*t^2)*a, while the full form's t^2
    # coefficient on a is 5, so the t^2 term must be cut off
    ctx = bf.Context(bf.Basis(("a", "b", "c")), ("t",), order=4, cap=12)
    t = ctx.param_poly("t")
    one, two, three = (ctx.const_poly(n) for n in (1, 2, 3))
    entries = [
        (1, 0, NCPoly(ctx, {(0,): t, (2,): t * (one + t)})),
        (2, 0, NCPoly(ctx, {(0, 2): t * (two + three * t)})),
        (2, 1, NCPoly(ctx, {(): t * (one + three * t)})),
    ]
    table, full = rewrite.RelationTable(ctx, entries), rewrite.RelationTable(ctx, entries)
    assert normal_form_word(table, (2, 0, 1), budget=1) == NCPoly(
        ctx, {(0,): t, (0, 1, 2): one + two * t})
    table._nf_cache.clear()
    check_budgets(table, full, [
        ((2, 0, 1), 1), ((2, 2, 0, 1), 2), ((2, 0, 1), 3), ((1, 2, 0, 1), 0),
        ((2, 0, 1), 2), ((2, 1, 1, 0), 1),
    ])


@given(st.sampled_from((5, 6, 7, 8)), st.data())
@settings(max_examples=40, deadline=None)
def test_budgeted_word_brackets_are_full_ones_through_the_budget(order, data):
    # the word-bracket cache serves budgets as the normal-form cache does
    table, full = corrected_tables(order)
    table._nf_cache.clear()
    table._bracket_cache.clear()
    letters = st.lists(st.integers(0, 5), max_size=3).map(tuple)
    requests = data.draw(st.lists(
        st.tuples(letters, letters, st.integers(0, order)), min_size=1, max_size=8))

    def bracket(u, v):
        return normal_form_word(full, u + v) - normal_form_word(full, v + u)

    for u, v, budget in requests:
        got, low = rewrite.word_bracket(table, u, v, budget)
        assert terms_through(got, budget) == terms_through(bracket(u, v), budget)
        assert low == got.min_param_degree()
    for u, v, _ in requests:
        assert rewrite.word_bracket(table, u, v)[0] == bracket(u, v)


def test_budgets_pin_the_rewrite_steps_of_hopf_all_at_order_8():
    # rewriting every word through the order takes 1,842 steps here. The
    # antipode solved by passes, each rebuilding every image, took 635;
    # solved once, each degree of an image is normalised once
    argv = ["hopf", "all", "@corrected", "--order", "8", "--cap", "16"]
    assert rewrite_steps(argv) == (1, 551)


def test_budgets_pin_the_coefficient_multiplies_of_hopf_all_at_order_8():
    # the build's Scalar products and the checks' Scalar products, pinned
    # apart so that a parser change cannot move the checks' pin. While
    # coefficients were ParamPoly values, the run took 184 and 1,584
    # Scalar products in 288 and 3,318 ParamPoly multiplies; the build
    # took 304 multiplies before it raised each repeated power once. With
    # no degree budgets (every product, word-map image and antipode pass
    # through the order) the run took 7,499 multiplies in all, and with
    # budgets but commutators that normalise both products 4,601. The
    # build took 173 Scalar products while the parser multiplied a value
    # 1 through like any other coefficient. The checks took 1,462 while
    # the antipode was solved by passes, each rebuilding every image, and
    # 1,282 while the antipode report contracted m(S (x) id) Delta g again
    # and class-F extended S to words in a second reversed map and an
    # in-order one
    argv = ["hopf", "all", "@corrected", "--order", "8", "--cap", "16"]
    assert kernel_counts(argv) == (1, 551, 138, 1213)


def test_the_wide_document_normalises_each_word_once_per_key():
    # every coefficient of the wide document (tests/data/wide.json) is a
    # multi-term Gaussian rational; a word's normal form and a word
    # bracket depend only on the words, so their calls do not grow with
    # the terms of the coefficients around them. The antipode solved by
    # passes made 440 normal-form calls, each pass normalising its images
    # anew, and 400 while class-F extended the antipode to words in maps
    # of its own
    argv = ["hopf", "all", str(WIDE)]
    assert call_counts(argv, rewrite, "normal_form_word", "word_bracket") == (0, 374, 554)


def test_the_wide_document_scans_each_commutator_operand_once():
    # the commutator's whole-operand test reads each operand's reach, which
    # depends only on its keys and is cached on the table by them; the 732
    # commutators of hopf all on the wide document take 39 operands, whose
    # 120 keys are each scanned once. Rescanning every operand on every
    # call scanned 1,534 keys
    reach, shape = rewrite._reach, rewrite._shape
    operands, scanned = [], []

    def counted_reach(table, a):
        operands.append((table, tuple(a.groups())))
        return reach(table, a)

    def counted_shape(table, key, words):
        if sys._getframe(1).f_code is reach.__code__:
            scanned.append((table, key))
        return shape(table, key, words)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "_reach", counted_reach)
        patch.setattr(rewrite, "_shape", counted_shape)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["hopf", "all", str(WIDE)]) == 0
    distinct = {(id(table), keys): keys for table, keys in operands}
    assert (len(operands), len(distinct), len(scanned)) == (732, 39, 120)
    assert Counter((id(table), key) for table, key in scanned) == Counter(
        (table, key) for table, keys in distinct for key in keys)


@pytest.mark.parametrize("order, cap", [(5, 7), (6, 8), (8, 10), (10, 12), (12, 14)])
def test_hopf_all_needs_its_cap_exactly(order, cap):
    # the smallest cap that lets `hopf all @corrected` finish at order:
    # one less, and a word passes it (the parser's p_x^(order+2), read at
    # order + slack)
    argv = ["hopf", "all", "@corrected", "--order", str(order)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--cap", str(cap - 1)]) == 2
    assert f"exceeds generator-degree cap {cap - 1}" in err.getvalue()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--cap", str(cap)]) != 2


def test_reported_values_do_not_depend_on_slack():
    # slack only sets how many inexact degrees are carried; everything at
    # or below the reporting order must agree across slack settings
    doc = bf.load_bundled("corrected")
    wide = doc.build_presentation(doc.make_context(order=4, slack=4, cap=12))
    for slack in (0, 1, 2):
        narrow = doc.build_presentation(doc.make_context(order=4, slack=slack, cap=12))
        for i, j in wide.rel.pairs():
            a = wide.rel.bracket_poly(j, i).truncate(4)
            b = narrow.rel.bracket_poly(j, i).truncate(4)
            assert {w: c.terms for w, c in a.coefficients().items()} == {
                w: c.terms for w, c in b.coefficients().items()
            }, (slack, i, j)
        for g in range(6):
            a = wide.coproduct_word((g,)).truncate(4)
            b = narrow.coproduct_word((g,)).truncate(4)
            assert {k: c.terms for k, c in a.coefficients().items()} == {
                k: c.terms for k, c in b.coefficients().items()
            }, (slack, g)


def test_substitution_commutes_with_normalize():
    target = CTX5.with_params(("t", "h", "z"))
    images = {"z1": "z", "z2": "z"}
    sub_rel = REL5.substitute(images, target)
    for word in [(L_Z, L_X), (P_Z, P_X, L_X), (L_Y, L_X, L_Z), (P_Z, L_Y)]:
        direct = normalize(word_poly(target, *word), sub_rel)
        routed = normalize(word_poly(CTX5, *word), REL5).substitute(images, target)
        assert direct == routed
