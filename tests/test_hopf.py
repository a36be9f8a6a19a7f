import contextlib
import functools
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge import exprparse
from bialgebra_forge.cli import main
from bialgebra_forge.errors import (
    AntipodeError, CapExceededError, InputError, NonContractingError,
)
from bialgebra_forge.hopf import _WordMap
from bialgebra_forge.ncpoly import Context, NCPoly, TensorNCPoly, _Terms
from bialgebra_forge.params import ParamPoly
from bialgebra_forge.rewrite import RelationTable, normalize, presentation_jacobi_defect
from bialgebra_forge.scalars import I, ONE, Scalar
from bialgebra_forge.sparse import accumulate
from bialgebra_forge.tensors import Basis

import hopfref
import twist
from conftest import (
    corrected_document, presentation3, presentation5, terms_through, widegen,
)
from test_rewrite import oracle_tables, primitive_presentation
from test_twist import R3, _coproduct_term

P_X, P_Y, P_Z, L_X, L_Y, L_Z = range(6)


def test_hom_defect_zero_on_all_pairs():
    report = bf.coproduct_hom_defect(presentation3())
    assert report.ok
    assert len(report.checked) == 15


def test_coassociativity_zero_on_all_generators():
    report = bf.coassociativity_defect(presentation3())
    assert report.ok
    assert len(report.checked) == 6


def test_counit_zero_both_sides():
    report = bf.counit_defect(presentation3())
    assert report.ok
    assert len(report.checked) == 12


def test_coproduct_extends_as_algebra_morphism():
    H = presentation3()
    ctx = H.context
    one = TensorNCPoly.unit(ctx, 2)
    assert H.coproduct_word(()) == one
    # primitive square: Delta(p_x^2) = (Delta p_x)^2
    dpx = H.coproduct_word((P_X,))
    assert H.coproduct_word((P_X, P_X)) == dpx * dpx
    # two commuting primitives: four factorwise terms
    got = H.apply_coproduct(
        NCPoly.generator(ctx, L_Z) * NCPoly.generator(ctx, P_X)
    )
    unit = ctx.const_poly(ONE)
    expected = TensorNCPoly(ctx, 2, {
        ((P_X, L_Z), ()): unit,
        ((L_Z,), (P_X,)): unit,
        ((P_X,), (L_Z,)): unit,
        ((), (P_X, L_Z)): unit,
    })
    assert got == expected


def test_hom_defect_localizes_coefficient_corruption():
    doc = bf.load_bundled("corrected").to_dict()
    for item in doc["presentation"]["brackets"]:
        if item["left"] == "p_z" and item["right"] == "l_z":
            item["rhs"] = "3*h*t*sinh((z2/2)*p_x)"
    corrupted = bf.Document.from_dict(doc)
    H = corrupted.build_presentation(corrupted.make_context(order=5))
    report = bf.coproduct_hom_defect(H)
    assert not report.ok
    assert [item.subject for item in report.items] == ["(l_x,p_z)"]
    assert all(item.location for item in report.items)


def test_passing_checks_render_no_polynomial(monkeypatch):
    """A defect location is rendered only for a failing subject: hopf all
    on @corrected at order 5 passes every check, so no polynomial is
    turned into text inside a check function."""
    checks = {fn.__code__ for fn in (
        presentation_jacobi_defect, bf.coproduct_hom_defect, bf.coassociativity_defect,
        bf.counit_defect, bf.solve_antipode, bf.class_f_check,
    )}
    rendered = []
    to_text = _Terms.__str__

    def counted(value):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in checks:
                rendered.append(frame.f_code.co_name)
                break
            frame = frame.f_back
        return to_text(value)

    monkeypatch.setattr(_Terms, "__str__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["hopf", "all", "@corrected", "--order", "5"]) == 0
    assert rendered == []


def test_defects_vanishing_at_high_order_vanish_truncated():
    # monotonicity of truncation: an order-5 pass implies an order-3 pass
    high = bf.coproduct_hom_defect(presentation5())
    low = bf.coproduct_hom_defect(presentation3())
    assert high.ok and low.ok


# -- antipode -----------------------------------------------------------------------


def test_antipode_on_primitives_is_minus_id():
    H = presentation5()
    antipode, report = bf.solve_antipode(H)
    assert report.ok
    ctx = H.context
    table = antipode.table
    assert table[P_X] == -NCPoly.generator(ctx, P_X)
    assert table[L_Z] == -NCPoly.generator(ctx, L_Z)


def test_antipode_solved_values_match_hand_oracle():
    """S(p_y) = -p_y because p_x and p_y commute; conjugating p_z by
    exp((z2/2) p_x) adds (i/2) z1 z2 p_y."""
    H = presentation5()
    ctx = H.context
    antipode, report = bf.solve_antipode(H)
    assert report.ok
    table = antipode.table
    assert table[P_Y] == -NCPoly.generator(ctx, P_Y)
    correction = ctx.param_poly("z1") * ctx.param_poly("z2")
    expected_pz = NCPoly(ctx, {
        (P_Z,): ctx.const_poly(-1),
        (P_Y,): correction.scale(Scalar(0, Fraction(1, 2))),
    })
    assert table[P_Z] == expected_pz


def test_antipode_on_abelian_cocommutative_specialization():
    H = presentation5()
    zero = Scalar(0)
    flat = bf.specialize(
        H, {"t": zero, "h": zero, "z1": zero, "z2": zero}
    )
    antipode, report = bf.solve_antipode(flat)
    assert report.ok
    for g in range(6):
        assert antipode.table[g] == -NCPoly.generator(flat.context, g)


# -- degree budgets ------------------------------------------------------------------


@functools.cache
def corrected_word_maps(order):
    """The makings of @corrected's coproduct and antipode word maps at
    order, as (relation table, generator table, unit, reverse) by kind,
    and one map of each kind that only ever computes full images, on a
    presentation of its own."""
    doc = corrected_document()
    ctx = doc.make_context(order=order, cap=4 * order)
    H, full = doc.build_presentation(ctx), doc.build_presentation(ctx)
    antipode = bf.solve_antipode(H)[0].table
    unit = NCPoly.unit(ctx)
    makings = {
        "coproduct": (H.rel, H.coproduct, TensorNCPoly.unit(ctx, 2), False),
        "antipode": (H.rel, antipode, unit, True),
    }
    return makings, {
        "coproduct": full._delta,
        "antipode": _WordMap(full.rel, antipode, unit, reverse=True),
    }


@given(st.sampled_from((6, 7, 8)), st.sampled_from(("coproduct", "antipode")), st.data())
@settings(max_examples=40, deadline=None)
def test_budgeted_word_map_images_are_full_ones_through_the_budget(order, kind, data):
    makings, full = corrected_word_maps(order)
    rel = makings[kind][0]
    rel._nf_cache.clear()
    image = _WordMap(*makings[kind])
    requests = data.draw(st.lists(
        st.tuples(st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple),
                  st.integers(0, order)),
        min_size=1, max_size=6,
    ))
    for word, budget in requests:
        got, want = image(word, budget), full[kind](word)
        assert terms_through(got, budget) == terms_through(want, budget), (word, budget)
    for word, _ in requests:
        assert image(word) == full[kind](word), word


def _unbudgeted_antipode(H):
    """The antipode table by the fixed-point loop with every pass, product
    and word image at the full order and no table cut."""
    ctx, rel = H.context, H.rel
    one = ctx.const_poly(ONE)
    gens = [NCPoly.generator(ctx, g) for g in range(len(H.names()))]
    corrections = [
        H.coproduct_word((g,)) - TensorNCPoly(ctx, 2, {((g,), ()): one, ((), (g,)): one})
        for g in range(len(gens))
    ]
    table = [-x for x in gens]
    for _ in range(ctx.order):
        images = {(): NCPoly.unit(ctx)}

        def image(w):
            if w not in images:
                rest = image(w[1:]) if len(w) > 1 else NCPoly.unit(ctx)
                images[w] = normalize(rest * table[w[0]], rel)
            return images[w]

        table = [
            -gens[g] - normalize(sum(
                (image(left) * NCPoly(ctx, {right: c})
                 for (left, right), c in corrections[g].coefficients().items()),
                NCPoly.zero(ctx),
            ), rel)
            for g in range(len(gens))
        ]
    return dict(enumerate(table))


def _source_presentation(source, order):
    """A presentation by name at order: @corrected, its z1=z2=z diagonal,
    one `wide` document, twisted gl_2 and gl_3 (tests/twist.py, s = h*t^2)
    or gl_3 with a coproduct term that breaks its antipode."""
    doc = corrected_document()
    if source == "wide":
        doc = bf.Document.from_dict(widegen().wide_document(doc.to_dict(), 2, 1))
    elif source == "twisted-gl2":
        doc = bf.Document.from_dict(twist.twisted_gln(2, {(0, 1): Scalar(1, -3)}))
    elif source in ("twisted-gl3", "perturbed-gl3"):
        data = twist.twisted_gln(3, R3)
        if source == "perturbed-gl3":
            _coproduct_term(data)
        doc = bf.Document.from_dict(data)
    H = doc.build_presentation(doc.make_context(order=order, cap=2 * order + 2))
    return bf.specialize(H, {"z1": "z", "z2": "z"}) if source == "diagonal" else H


@pytest.mark.parametrize("source, order", [
    ("corrected", 5), ("corrected", 8), ("corrected", 12), ("wide", 5), ("diagonal", 8),
    ("twisted-gl3", 6), ("perturbed-gl3", 5),
])
def test_incremental_antipode_solves_the_unbudgeted_loop(source, order):
    table = bf.solve_antipode(_source_presentation(source, order))[0].table
    assert table == _unbudgeted_antipode(_source_presentation(source, order))


REFERENCE_SOURCES = pytest.mark.parametrize("source, order", [
    ("corrected", 5), ("corrected", 6), ("corrected", 7), ("twisted-gl2", 5),
    ("twisted-gl3", 5), ("perturbed-gl3", 5),
])


@functools.cache
def _reference_solve(source, order):
    """The presentation by name at order, its solved antipode map and
    report, and the reference recursion's table (hopfref.antipode)."""
    H = _source_presentation(source, order)
    antipode, report = bf.solve_antipode(H)
    return H, antipode, report, hopfref.antipode(H.rel, H.coproduct)


@REFERENCE_SOURCES
def test_antipode_is_the_reference_recursion(source, order):
    """The whole table equals the plain order-by-order recursion's
    (hopfref.antipode), past the degree where @corrected's rewriting stops
    being confluent too, and where the antipode check fails."""
    _, antipode, _, reference = _reference_solve(source, order)
    got = {g: image.coefficients() for g, image in antipode.table.items()}
    assert got == reference


def _assert_left_residual_is_the_contraction(H, antipode, report):
    """The S(x)id residual that the solve reads off its own table,
    -eps(g) 1, is the contraction m(S (x) id) Delta g through the solved
    map, less eps(g) 1."""
    values = {item.subject: item.value for item in report.items}
    for g, name in enumerate(H.names()):
        contracted = antipode.contract(H.coproduct_word((g,)), 0)
        want = contracted - NCPoly.from_scalar(H.context, H.counit[g])
        assert values.get(f"S(x)id on {name}", NCPoly.zero(H.context)) == want, name


@REFERENCE_SOURCES
def test_the_left_antipode_residual_is_the_contraction(source, order):
    H, antipode, report, _ = _reference_solve(source, order)
    _assert_left_residual_is_the_contraction(H, antipode, report)


def _assert_class_f_is_the_reference(H, antipode, reference):
    """class_f_check's defect values, by generator and slot, are the
    definitional ones (hopfref.class_f) over the reference table."""
    names = H.names()
    labels = ("S(x)id", "id(x)S")
    got = {item.subject: item.value.coefficients()
           for item in bf.class_f_check(H, antipode).items}
    want = {f"{labels[slot]} on {names[g]}": value
            for (g, slot), value in hopfref.class_f(H.rel, H.coproduct, reference).items()}
    assert got == want


@REFERENCE_SOURCES
def test_class_f_is_the_reference_check(source, order):
    H, antipode, _, reference = _reference_solve(source, order)
    _assert_class_f_is_the_reference(H, antipode, reference)


_WORDS = st.lists(st.integers(0, 2), max_size=2).map(tuple)
# a coefficient of parameter degree 1 or 2: a nonzero Gaussian rational
# times c, d, c^2, c*d or d^2
_COEFFS = st.tuples(
    st.sampled_from(((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))),
    st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1)).filter(bool),
)


@st.composite
def _drawn_presentations(draw):
    """A PBW-type presentation on a < b < g over c, d: each bracket and
    each coproduct correction a few terms whose coefficients carry a
    parameter, so the antipode solve can start; the brackets need not be
    consistent."""
    order = draw(st.integers(3, 4))
    ctx = Context(Basis(("a", "b", "g")), ("c", "d"), order=order, cap=4 * order, slack=0)

    def coefficient(exponents, value):
        return ParamPoly(ctx.params, order, {exponents: value})

    entries = []
    for j, i in ((1, 0), (2, 0), (2, 1)):
        terms = draw(st.dictionaries(_WORDS, _COEFFS, max_size=2))
        entries.append((j, i, NCPoly(ctx, {w: coefficient(*c) for w, c in terms.items()})))
    one = ctx.const_poly(ONE)
    coproduct = {}
    for g in range(3):
        terms = draw(st.dictionaries(st.tuples(_WORDS, _WORDS).filter(any), _COEFFS,
                                     max_size=3))
        corr = {key: coefficient(*c) for key, c in terms.items()}
        for key in (((g,), ()), ((), (g,))):
            corr[key] = corr.get(key, ctx.zero_poly()) + one
        coproduct[g] = TensorNCPoly(ctx, 2, corr)
    return bf.HopfPresentation(ctx, RelationTable(ctx, entries), coproduct,
                               {g: Scalar(0) for g in range(3)})


@given(_drawn_presentations())
@settings(max_examples=60, deadline=None)
def test_antipode_is_the_reference_recursion_on_drawn_presentations(H):
    """Drawn coproducts put corrected letters past the first of a word,
    so each image's change reaches the longer words that end in it."""
    table = bf.solve_antipode(H)[0].table
    got = {g: image.coefficients() for g, image in table.items()}
    assert got == hopfref.antipode(H.rel, H.coproduct)


@given(_drawn_presentations())
@settings(max_examples=60, deadline=None)
def test_the_left_antipode_residual_is_the_contraction_on_drawn_presentations(H):
    """Only drawn inputs change the cached image of a word the solve
    reads, so only here does a map whose images miss their changes
    contract to other than the solved residual."""
    _assert_left_residual_is_the_contraction(H, *bf.solve_antipode(H))


@given(_drawn_presentations())
@settings(max_examples=60, deadline=None)
def test_class_f_is_the_reference_check_on_drawn_presentations(H):
    """Drawn inputs need not be consistent, so their class-F defects
    need not vanish."""
    antipode, _ = bf.solve_antipode(H)
    _assert_class_f_is_the_reference(H, antipode, hopfref.antipode(H.rel, H.coproduct))


@pytest.mark.parametrize("order", [5, 12])
def test_the_antipode_solve_makes_one_word_map(monkeypatch, order):
    """One reversed word map serves every degree of the solve and its
    report; a solve by passes made a map per pass and one for the report."""
    H = _source_presentation("corrected", order)
    made = []
    init = _WordMap.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_WordMap, "__init__", counted)
    bf.solve_antipode(H)
    assert len(made) == 1


def test_hopf_all_builds_three_word_maps(monkeypatch):
    """hopf all builds the coproduct, counit and antipode maps, and the
    class-F check reads the in-order extension off the antipode map, on
    reversed words. It built five: class-F made an in-order map and a
    second reversed one over the solved table."""
    made = []
    init = _WordMap.__init__
    check = bf.class_f_check.__code__

    def counted(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not check:
            frame = frame.f_back
        made.append(frame is not None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_WordMap, "__init__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["hopf", "all", "@corrected"]) == 0
    assert made == [False] * 3


GUARD = ("coproduct of p_x deviates from primitive at parameter degree 0; "
         "order-by-order solve cannot start")


@pytest.mark.parametrize("checks", [["antipode"], ["class-f"], ["all"]])
def test_a_group_like_coproduct_stops_the_antipode_solve(tmp_path, capsys, checks):
    """Delta p_x = p_x (x) 1 + 1 (x) p_x + p_y (x) 1 is not primitive at
    degree 0, so the solve cannot start: every request that solves the
    antipode exits 2 with the guard's message and prints no report. (A
    group-like p_x (x) p_x is refused before, by the build's word bound.)"""
    data = corrected_document().to_dict()
    data["presentation"]["coproducts"]["p_x"] = "p_x (x) 1 + 1 (x) p_x + p_y (x) 1"
    path = tmp_path / "group_like.json"
    path.write_text(json.dumps(data))
    assert main(["hopf", *checks, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {GUARD}\n")
    doc = bf.Document.from_dict(data)
    with pytest.raises(AntipodeError, match=f"^{GUARD}$"):
        bf.solve_antipode(doc.build_presentation(doc.make_context()))


@pytest.mark.parametrize("checks", [["hom"], ["coassoc"], ["all"]])
def test_a_group_like_coproduct_has_no_word_bound(tmp_path, capsys, checks):
    """Delta p_x = p_x (x) p_x has two letters at degree 0: each coproduct
    of a word would double its letters at no cost in degree, so no bound
    on word length holds and every check exits 2 at the build."""
    data = corrected_document().to_dict()
    data["presentation"]["coproducts"]["p_x"] = "p_x (x) p_x"
    path = tmp_path / "group_like.json"
    path.write_text(json.dumps(data))
    assert main(["hopf", *checks, str(path)]) == 2
    assert capsys.readouterr() == ("", "error: coproduct term p_x (x) p_x has parameter "
                                   "degree 0 and more than one letter: no bound on word "
                                   "length\n")


def _product_loop_contract(word_map, t2, slot, budget):
    """m((F (x) id) t2) or m((id (x) F) t2) by a product per term: each
    image times the kept word as a one-term polynomial, then the normal
    form, all through the budget."""
    context = t2.context
    out = {}
    for key, coeff in t2.coefficients().items():
        room = budget - min(map(sum, coeff.terms))
        if room < 0:
            continue
        image = word_map(key[slot], room)
        kept = NCPoly(context, {key[1 - slot]: coeff})
        piece = image.times(kept, budget) if slot == 0 else kept.times(image, budget)
        for w, c in piece.coefficients().items():
            accumulate(out, w, c)
    return normalize(NCPoly(context, out), word_map.rel, budget=budget)


@functools.cache
def corrected_contraction_maps(order):
    """@corrected at order, with its counit map and its solved antipode
    map, as hopf builds them."""
    doc = corrected_document()
    ctx = doc.make_context(order=order, cap=4 * order)
    H = doc.build_presentation(ctx)
    antipode = bf.solve_antipode(H)[0].table
    unit = NCPoly.unit(ctx)
    counit = {g: NCPoly.from_scalar(ctx, e) for g, e in H.counit.items()}
    return H, {
        "counit": _WordMap(H.rel, counit, unit),
        "antipode": _WordMap(H.rel, antipode, unit, reverse=True),
    }


@given(st.sampled_from((6, 7, 8)), st.sampled_from(("counit", "antipode")),
       st.lists(st.integers(0, 5), min_size=1, max_size=2).map(tuple),
       st.integers(0, 1), st.data())
@settings(max_examples=40, deadline=None)
def test_contract_is_the_product_loop_through_the_budget(order, kind, word, slot, data):
    H, maps = corrected_contraction_maps(order)
    budget = data.draw(st.integers(0, order))
    t2 = H.coproduct_word(word)
    got = maps[kind].contract(t2, slot, budget)
    want = _product_loop_contract(maps[kind], t2, slot, budget)
    assert terms_through(got, budget) == terms_through(want, budget), (word, budget)


def _long_coproduct(cap, order=2):
    """a < b over c at order, with no relation and Delta a = a (x) 1 +
    1 (x) a + c * a (x) b^2: three letters at degree 1, rate 2, so the
    word bound is 3 + 2*order, 7 at order 2."""
    ctx = Context(Basis(("a", "b")), ("c",), order=order, cap=cap, slack=0)
    one = ctx.const_poly(ONE)
    coproduct = {g: TensorNCPoly(ctx, 2, {((g,), ()): one, ((), (g,)): one}) for g in (0, 1)}
    coproduct[0] += TensorNCPoly(ctx, 2, {((0,), (1, 1)): ctx.param_poly("c")})
    return bf.HopfPresentation(ctx, RelationTable(ctx, []), coproduct, {})


def test_a_presentation_whose_word_bound_passes_the_cap_is_refused():
    """The build holds the word bound to the cap once, naming the bound,
    the order and the cap; a cap the bound fits under, or none, builds,
    and the checks then hold no word to a length: the contraction joins
    a*b (x) b^2, the antipode's image of a (x) b^2, into a*b^3 as the
    product loop does."""
    for cap in (3, 6):
        with pytest.raises(CapExceededError,
                           match=f"^word-length bound 7 at order 2 exceeds cap {cap}$"):
            _long_coproduct(cap)
    # with no cap the bound is held to the fixed limit
    assert exprparse.MAX_WORD_LENGTH == 64
    assert _long_coproduct(None, order=30).context.order == 30
    with pytest.raises(CapExceededError,
                       match="^word-length bound 65 at order 31 exceeds the limit 64$"):
        _long_coproduct(None, order=31)
    for cap in (7, None):
        H = _long_coproduct(cap)
        ctx, one = H.context, H.context.const_poly(ONE)
        assert _bound_of(H) == 7
        word_map = _WordMap(H.rel, {0: NCPoly(ctx, {(0, 1): one}), 1: NCPoly.generator(ctx, 1)},
                            NCPoly.unit(ctx))
        t2 = TensorNCPoly(ctx, 2, {((0,), (1, 1)): one})
        want = NCPoly(ctx, {(0, 1, 1, 1): one})
        assert word_map.contract(t2, 0, 2) == _product_loop_contract(word_map, t2, 0, 2) == want


def _bound_of(H):
    """The word bound of H's tables (exprparse.word_bound)."""
    return exprparse.word_bound(H.context, H.rel.rhs.values(), H.coproduct.values())


def test_the_word_bound_is_three_more_than_the_rate_times_the_order():
    """@corrected gains one letter per degree, so its bound is order + 3,
    under the explicit caps the goldens and the benchmark pass (12 at
    order 6, 16 at 8, 24 at 12, 32 at 16); twisted gl_3 gains one letter
    per two degrees, from exp(h*t*X) (x) ..., so its bound is 3 +
    floor(order / 2)."""
    def bound(doc, order):
        H = doc.build_presentation(doc.make_context(order=order))
        assert H.context.cap is None
        return _bound_of(H)

    doc = corrected_document()
    assert {order: bound(doc, order) for order in (5, 6, 8, 10, 12, 16)} == {
        5: 8, 6: 9, 8: 11, 10: 13, 12: 15, 16: 19}
    gl3 = bf.Document.from_dict(twist.twisted_gln(3, R3))
    assert {order: bound(gl3, order) for order in (4, 5, 6)} == {4: 5, 5: 5, 6: 6}


def _longest_word_formed(H):
    """The most letters, summed over tensor factors, of any key of any
    value that hopf all's checks make on H, as every value made passes
    through NCPoly._of or TensorNCPoly._of."""
    longest = 0

    def watched(kind):
        make = kind._of.__func__

        def _of(cls, context, terms, *arity):
            nonlocal longest
            for key, _ in terms:
                longest = max(longest, sum(map(len, cls._factors(key))))
            return make(cls, context, terms, *arity)
        return classmethod(_of)

    with pytest.MonkeyPatch.context() as patch:
        for kind in (NCPoly, TensorNCPoly):
            patch.setattr(kind, "_of", watched(kind))
        presentation_jacobi_defect(H.rel)
        bf.coproduct_hom_defect(H)
        bf.coassociativity_defect(H)
        bf.counit_defect(H)
        bf.class_f_check(H, bf.solve_antipode(H)[0])
    return longest


@given(_drawn_presentations())
@settings(max_examples=40, deadline=None)
def test_no_check_forms_a_word_past_the_bound_on_drawn_presentations(H):
    """Drawn coproduct terms of up to four letters at degree 1 make the
    rate 3: the words of products of coproducts grow with it."""
    assert _longest_word_formed(H) <= _bound_of(H)


@given(oracle_tables().map(primitive_presentation))
@settings(max_examples=40, deadline=None)
def test_no_check_forms_a_word_past_the_bound_on_drawn_tables(H):
    """Rhs words of at most two letters make the rate 0 and the bound 3:
    presentation-Jacobi forms a generator times a two-letter rhs word."""
    assert _longest_word_formed(H) <= _bound_of(H)


def test_class_f_passes_on_reference_presentation():
    doc = corrected_document()
    H = doc.build_presentation(doc.make_context(order=4))
    antipode, _ = bf.solve_antipode(H)
    report = bf.class_f_check(H, antipode)
    assert report.ok


def _toy_presentation(delta_g_extra):
    """Three generators a < b < g with [b, a] = c*1 and a coproduct on g
    carrying the given extra term."""
    ctx = Context(Basis(("a", "b", "g")), ("c",), order=4, slack=2)
    one = ctx.const_poly(ONE)
    c = ctx.param_poly("c")
    rel = RelationTable(ctx, [
        (1, 0, NCPoly(ctx, {(): c})),
    ])
    def primitive(g):
        return TensorNCPoly(ctx, 2, {((g,), ()): one, ((), (g,)): one})
    coproduct = {0: primitive(0), 1: primitive(1),
                 2: primitive(2) + delta_g_extra(ctx)}
    counit = {0: Scalar(0), 1: Scalar(0), 2: Scalar(0)}
    return bf.HopfPresentation(ctx, rel, coproduct, counit)


def test_class_f_violation_on_noncommuting_word():
    # Delta g = g(x)1 + 1(x)g + c*(ab)(x)g: the in-order and reversed
    # extensions of S differ by the commutator [b, a] = c
    H = _toy_presentation(
        lambda ctx: TensorNCPoly(ctx, 2, {((0, 1), (2,)): ctx.param_poly("c")})
    )
    antipode, _ = bf.solve_antipode(H)
    report = bf.class_f_check(H, antipode)
    assert not report.ok


def test_class_f_holds_for_single_generator_words():
    # a g(x)g term does not separate the two extensions: both act on
    # powers of one generator identically
    H = _toy_presentation(
        lambda ctx: TensorNCPoly(ctx, 2, {((2,), (2,)): ctx.param_poly("c")})
    )
    antipode, _ = bf.solve_antipode(H)
    report = bf.class_f_check(H, antipode)
    assert report.ok


@pytest.mark.parametrize("extra", [((0, 1), (2,)), ((2,), (2,))])
def test_class_f_is_the_reference_check_on_toy_presentations(extra):
    H = _toy_presentation(lambda ctx: TensorNCPoly(ctx, 2, {extra: ctx.param_poly("c")}))
    antipode, _ = bf.solve_antipode(H)
    _assert_class_f_is_the_reference(H, antipode, hopfref.antipode(H.rel, H.coproduct))


def test_four_parameter_table_is_diagonal_exact_beyond_order_5():
    """Past the shipped verification order the bundled four-parameter
    table stops being consistent off the diagonal: at order 6 the
    rewriting Jacobi defects are nonzero but every one carries a factor
    of (z2 - z1), so the three-parameter diagonal family and the h=0 /
    t=0 boundary slices stay exact."""
    doc = bf.load_bundled("corrected")
    ctx = doc.make_context(order=6, cap=12)
    H = doc.build_presentation(ctx)
    defects = bf.presentation_jacobi_defect(H.rel)
    trimmed = {k: v for k, v in ((k, v.truncate(6)) for k, v in defects.items()) if v}
    assert trimmed, "order-6 off-diagonal defects are expected"
    assert set(trimmed) == {(P_X, P_Z, L_X), (P_X, P_Z, L_Y), (P_Y, P_Z, L_Y)}
    diag_ctx = ctx.with_params(("t", "h", "z"))
    images = {"z1": "z", "z2": "z"}
    for value in trimmed.values():
        # vanishing under z1 = z2 = z is divisibility by (z2 - z1)
        assert not value.substitute(images, diag_ctx)
    diag = bf.specialize(H, {"z1": "z", "z2": "z"})
    diag_defects = bf.presentation_jacobi_defect(diag.rel)
    assert not any(v.truncate(6) for v in diag_defects.values())
    assert bf.coproduct_hom_defect(diag).ok


# -- specialization ---------------------------------------------------------------------


def test_specialize_reaches_first_boundary():
    H = presentation5()
    zero = Scalar(0)
    spec = bf.specialize(H, {"z1": zero, "z2": zero})
    ctx = spec.context
    assert ctx.params == ("t", "h")
    t = ctx.param_poly("t")
    h = ctx.param_poly("h")
    # [p_y, l_x] = -t p_y - i h^3 t^2 l_z
    got = spec.rel.bracket_poly(P_Y, L_X)
    expected = NCPoly(ctx, {
        (P_Y,): -t,
        (L_Z,): (t * t * h ** 3).scale(-I),
    })
    assert got == expected
    dl_x = spec.coproduct_word((L_X,))
    want = TensorNCPoly(ctx, 2, {
        ((L_X,), ()): ctx.const_poly(ONE),
        ((), (L_X,)): ctx.const_poly(ONE),
        ((L_Y,), (L_Z,)): h.scale(-I),
    })
    assert dl_x == want


def test_specializations_chain():
    H = presentation5()
    zero = Scalar(0)
    chained = bf.specialize(bf.specialize(H, {"z1": "z", "z2": "z"}), {"t": zero})
    direct = bf.specialize(H, {"t": zero, "z1": "z", "z2": "z"})
    assert bf.presentation_diff(chained, direct) == []


def test_specialize_rejects_contracting_violation():
    # a parameter-free relation term is rejected when the table is built
    data = corrected_document().to_dict()
    data["presentation"]["brackets"][0]["rhs"] += "+p_x"
    doc = bf.Document.from_dict(data)
    with pytest.raises(NonContractingError):
        doc.build_presentation(doc.make_context())
    # a nonzero value is refused before any table is built: evaluated
    # there, the truncated series is not exact
    with pytest.raises(InputError, match="cannot specialize 't' to 1"):
        bf.specialize(presentation5(), {"t": Scalar(1)})


def test_specialize_commutes_with_hom_defect():
    # on a corrupted presentation the defect is nonzero; substituting
    # into the defect equals the defect of the substituted presentation
    doc = bf.load_bundled("corrected").to_dict()
    for item in doc["presentation"]["brackets"]:
        if item["left"] == "p_z" and item["right"] == "l_z":
            item["rhs"] = "3*h*t*sinh((z2/2)*p_x)"
    corrupted = bf.Document.from_dict(doc)
    H = corrupted.build_presentation(corrupted.make_context(order=5))
    spec = bf.specialize(H, {"z1": "z", "z2": "z"})
    direct = bf.coproduct_hom_defect(spec)
    routed = bf.coproduct_hom_defect(H)
    assert len(direct.items) == len(routed.items) == 1
    images = {"z1": "z", "z2": "z"}
    pushed = routed.items[0].value.substitute(images, spec.context)
    assert pushed.truncate(5) == direct.items[0].value
