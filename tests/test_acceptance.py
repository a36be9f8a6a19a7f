"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with -s to see them on success). All checks are
exact; the only tolerances are the stated runtime budgets."""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge.cli import main
from bialgebra_forge.ncpoly import NCPoly
from bialgebra_forge.rewrite import normal_form_word, normalize
from bialgebra_forge.scalars import I, Scalar
from bialgebra_forge.tensors import (
    FAMILY_PARAMS, BracketTensor, CobracketTensor, DeformationFamily, cocycle_defect,
)

import hopfref
from conftest import (
    compositions5, context3, context5, corrected_document, diagonal5,
    presentation3, presentation5,
)

P_X, P_Y, P_Z, L_X, L_Y, L_Z = range(6)


def _report(criterion, text):
    print(f"[criterion {criterion}] PASS — {text}")


# -- criterion 1: four-pair hypothesis ------------------------------------------------


def test_criterion_1_four_pairs():
    comps = compositions5()
    start = time.perf_counter()
    report = bf.check_four_pairs(
        comps["mu_100"], comps["mu_001"], comps["delta_010"], comps["delta_001"]
    )
    elapsed = time.perf_counter() - start
    assert not any(report.values())
    for comp in ("mu_001", "mu_100", "delta_001", "delta_010"):
        assert report[f"antisymmetry {comp}"] == {}
    for comp in ("mu_001", "mu_100"):
        assert report[f"jacobi {comp}"] == {}
    for comp in ("delta_001", "delta_010"):
        assert report[f"cojacobi {comp}"] == {}
    assert report["mixed-jacobi"] == {} and report["mixed-cojacobi"] == {}
    for pair in ("mu_001,delta_001", "mu_001,delta_010",
                 "mu_100,delta_001", "mu_100,delta_010"):
        assert report[f"cocycle ({pair})"] == {}
    assert len(report) == 14
    assert elapsed < 1.0
    _report(1, f"four-pair hypothesis, every defect exactly zero ({elapsed:.3f}s)")


# -- criterion 2: family identity ------------------------------------------------------


def test_criterion_2_family_identity():
    comps = compositions5()
    start = time.perf_counter()
    family = bf.build_family(
        comps["mu_100"], comps["mu_001"], comps["delta_010"], comps["delta_001"],
    )
    identity = cocycle_defect(family.mu, family.delta)
    slots = [family.mu.params.index(name) for name in FAMILY_PARAMS]

    def split(defect):
        # the defect's Scalar coefficients by (z1, t, z2, h) exponents
        out = {}
        for pair, wedge in defect.items():
            for key, poly in wedge.items():
                for exps, coeff in poly.terms.items():
                    mono = tuple(exps[i] for i in slots)
                    out.setdefault(mono, {}).setdefault(pair, {})[key] = coeff
        return out

    pairwise = {
        (1, 0, 1, 0): cocycle_defect(comps["mu_001"], comps["delta_001"]),
        (1, 0, 0, 1): cocycle_defect(comps["mu_001"], comps["delta_010"]),
        (0, 1, 1, 0): cocycle_defect(comps["mu_100"], comps["delta_001"]),
        (0, 1, 0, 1): cocycle_defect(comps["mu_100"], comps["delta_010"]),
    }
    elapsed = time.perf_counter() - start
    assert identity == {}
    # the split carries exactly the nonzero pairwise slots: here, none
    assert split(identity) == {m: d for m, d in pairwise.items() if d}
    # the bilinear split is substantive: corrupting one pencil input
    # must reproduce that input's pairwise defects slot by slot
    corrupted = BracketTensor(
        family.mu.basis, comps["mu_100"].params, comps["mu_100"].order,
        {(P_Z, P_X, P_Y): I, (P_Z, P_Y, P_Z): Scalar(1)},
    )
    bad = _manual_family(comps["mu_100"], corrupted,
                         comps["delta_010"], comps["delta_001"])
    bad_split = split(cocycle_defect(bad.mu, bad.delta))
    bad_pairwise = {
        (1, 0, 1, 0): cocycle_defect(corrupted, comps["delta_001"]),
        (1, 0, 0, 1): cocycle_defect(corrupted, comps["delta_010"]),
        (0, 1, 1, 0): cocycle_defect(comps["mu_100"], comps["delta_001"]),
        (0, 1, 0, 1): cocycle_defect(comps["mu_100"], comps["delta_010"]),
    }
    assert set(bad_split) == {m for m, d in bad_pairwise.items() if d}
    for mono, per_pair in bad_split.items():
        for pair, wedge in per_pair.items():
            for key, coeff in wedge.items():
                assert bad_pairwise[mono][pair][key].constant_term() == coeff
    assert elapsed < 1.0
    _report(2, f"family cocycle identically zero; monomial split equals the "
               f"four pairwise defects ({elapsed:.3f}s)")


def _manual_family(mu_100, mu_001, delta_010, delta_001):
    params, order = mu_100.params, mu_100.order

    def pencil(cls, *terms):
        return cls(mu_100.basis, params, order, [
            (key, bf.ParamPoly.parameter(params, order, pname) * value)
            for pname, tensor in terms for key, value in tensor.entries.items()
        ])

    return DeformationFamily(pencil(BracketTensor, ("z1", mu_001), ("t", mu_100)),
                             pencil(CobracketTensor, ("z2", delta_001), ("h", delta_010)))


# -- criterion 3: Hopf verification at order 5 ---------------------------------------------


def test_criterion_3_hopf_verification():
    H = presentation5()
    assert (H.context.order, H.context.cap, H.context.slack) == (5, None, 2)
    start = time.perf_counter()
    jac = bf.presentation_jacobi_defect(H.rel)
    jac_trimmed = {
        key: value
        for key, value in ((k, v.truncate(5)) for k, v in jac.items())
        if value
    }
    hom = bf.coproduct_hom_defect(H)
    coassoc = bf.coassociativity_defect(H)
    counit = bf.counit_defect(H)
    antipode, antipode_report = bf.solve_antipode(H)
    class_f = bf.class_f_check(H, antipode)
    elapsed = time.perf_counter() - start
    assert jac_trimmed == {}, "presentation Jacobi defects must vanish"
    assert hom.ok and len(hom.checked) == 15
    assert coassoc.ok and len(coassoc.checked) == 6
    assert counit.ok
    assert antipode_report.ok
    assert class_f.ok
    assert elapsed < 60.0
    _report(3, f"presentation Jacobi, 15 hom pairs, 6 coassociativity, counit "
               f"all exactly zero; antipode solved; class membership holds "
               f"({elapsed:.2f}s at order 5, cap 10)")


# -- criterion 4: boundary specializations ---------------------------------------------------


def test_criterion_4_boundary_specializations():
    H = presentation5()
    fixtures = bf.load_boundary_fixtures()
    assert len(fixtures) == 4
    for case, body in sorted(fixtures.items()):
        assign = {
            name: (value if value.isalpha() else Scalar(int(value)))
            for name, value in body["assign"].items()
        }
        specialized = bf.specialize(H, assign)
        expected_doc = body["document"]
        ectx = expected_doc.make_context(
            order=H.context.order, cap=H.context.cap, slack=H.context.slack
        )
        expected = expected_doc.build_presentation(ectx)
        diffs = bf.presentation_diff(specialized, expected)
        assert diffs == [], f"{case}: {diffs[:3]}"
    _report(4, "all four boundary specializations equal their expected "
               "presentations entrywise (exact truncated series)")


# -- criterion 5: tangent fields ------------------------------------------------------------------


def test_criterion_5_tangent_fields():
    diag = diagonal5()
    fixtures = bf.load_tangent_fixtures()
    for case, body in sorted(fixtures.items()):
        base = {name: Scalar(int(value)) for name, value in body["at"].items()}
        field = bf.tangent_field(diag, body["direction"], base)
        expectation = bf.read_expectation(body, diag.context.basis.names, f"@{case}")
        diff = bf.compare_field(field, expectation)
        assert diff.ok, f"{case}: {diff}"
        if body["direction"] == "t":
            assert field.delta == {}, "direction-t field must have no coproduct sector"
    _report(5, "tangent fields match every displayed entry (leading-terms mode), "
               "their limits match the classical fields exactly, and the "
               "direction-t field has zero cobracket components")


# -- criterion 6: deformation identities ------------------------------------------------------------


def test_criterion_6_deformation_identities():
    table = bf.extract_coefficients(diagonal5(), up_to=(2, 2, 2), roles=("t", "h", "z"))
    order2 = bf.verify_order2(table)
    assert order2.ok and len(order2.checked) == 4
    order3 = bf.verify_order3_thz(table)
    assert order3.ok
    assert table.exclusion_violations() == {}

    doc = corrected_document()
    ctx = context5()
    for name, got in (
        ("mu_001", table.mu[(0, 0, 1)]),
        ("delta_001", table.delta[(0, 0, 1)]),
    ):
        reference = doc.composition_tensor(name, ctx)
        assert len(got.entries) == len(reference.entries)
        for key, value in reference.entries.items():
            assert got.value(*key).constant_term() == value.constant_term()
    _report(6, "all four order-2 components and the full thz identity are "
               "zero; extraction reproduces the first-order bracket and "
               "cobracket exactly")


# -- criterion 7: property suites (seeded, >= 200 cases each) -----------------------------------------


N_CASES = 200

_words = st.lists(st.integers(0, 5), min_size=0, max_size=4).map(tuple)
_coeffs = st.sampled_from([
    Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(Fraction(1, 2)), Scalar(3),
])


@st.composite
def _polys(draw):
    ctx = context3()
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = draw(_words)
        poly = ctx.const_poly(draw(_coeffs))
        for pname in draw(st.lists(st.sampled_from(["t", "h", "z1", "z2"]),
                                   max_size=2)):
            poly = poly * ctx.param_poly(pname)
        terms[word] = terms.get(word, ctx.zero_poly()) + poly
    return NCPoly(ctx, terms)


@given(_polys())
@settings(max_examples=N_CASES, derandomize=True, deadline=None)
def test_criterion_7a_normalize_idempotent(p):
    rel = presentation3().rel
    once = normalize(p, rel)
    assert normalize(once, rel) == once


def test_criterion_7a_report():
    _report(7, f"normalize idempotence: {N_CASES} randomized cases, zero failures")


@given(st.lists(st.integers(0, 5), min_size=2, max_size=5).map(tuple),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=N_CASES, derandomize=True, deadline=None)
def test_criterion_7b_strategy_confluence(word, seed):
    # the kernel's leftmost form is the one the reference rewriter reaches
    # by rewriting a randomly drawn out-of-order pair at each step
    rel = presentation3().rel
    randomized = hopfref.normal_form(
        hopfref.rules(rel), {word: rel.context.const_poly(1)}, random.Random(seed))
    assert normal_form_word(rel, word).coefficients() == randomized


def test_criterion_7b_report():
    _report(7, f"rewriting-strategy confluence on the reference table: "
               f"{N_CASES} randomized cases, zero failures")


@given(_polys())
@settings(max_examples=N_CASES, derandomize=True, deadline=None)
def test_criterion_7c_specialize_normalize_commute(p):
    H = presentation3()
    diag_ctx = H.context.with_params(("t", "h", "z"))
    images = {"z1": "z", "z2": "z"}
    sub_rel = H.rel.substitute(images, diag_ctx)
    routed = normalize(p, H.rel).substitute(images, diag_ctx)
    direct = normalize(p.substitute(images, diag_ctx), sub_rel)
    assert routed == direct


def test_criterion_7c_report():
    _report(7, f"specialize/normalize commutation: {N_CASES} randomized "
               f"cases, zero failures")


@st.composite
def _series_args(draw):
    ctx = context3()
    g = draw(st.integers(0, 5))
    coeff = draw(_coeffs)
    poly = ctx.const_poly(coeff)
    for pname in draw(st.lists(st.sampled_from(["t", "h", "z1", "z2"]),
                               min_size=1, max_size=2)):
        poly = poly * ctx.param_poly(pname)
    power = draw(st.integers(1, 2))
    return NCPoly(ctx, {(g,) * power: poly})


@given(_series_args())
@settings(max_examples=N_CASES, derandomize=True, deadline=None)
def test_criterion_7d_series_identities(arg):
    ctx = arg.context
    c = bf.series_apply("cosh", arg)
    s = bf.series_apply("sinh", arg)
    assert c * c - s * s == NCPoly.unit(ctx)
    assert bf.series_apply("exp", arg) * bf.series_apply("exp", -arg) == NCPoly.unit(ctx)


def test_criterion_7d_report():
    _report(7, f"series identities cosh^2 - sinh^2 = 1 and exp(a)exp(-a) = 1: "
               f"{N_CASES} randomized cases, zero failures")


def _random_tiny_document(rng):
    coeff_pool = ["1", "-1", "i", "-i", "1/2", "2"]
    entries = []
    for _ in range(rng.randrange(0, 3)):
        a, b = rng.sample(["a", "b", "c"], 2)
        upper = rng.choice(["a", "b", "c"])
        entries.append({
            "lower": [a, b], "upper": upper, "coeff": rng.choice(coeff_pool),
        })
    return {
        "schema": "bialgebra-forge/1",
        "parameters": ["u"],
        "generators": ["a", "b", "c"],
        "compositions": {"mu": {"kind": "bracket", "entries": entries}},
        "settings": {"order": 2, "cap": 6, "slack": 1},
    }


def test_criterion_7e_exit_codes_and_determinism(tmp_path):
    rng = random.Random(20260808)
    for case in range(N_CASES):
        data = _random_tiny_document(rng)
        path = tmp_path / f"doc{case}.json"
        path.write_text(json.dumps(data))
        doc = bf.Document.from_dict(data)
        ctx = doc.make_context()
        mu = doc.composition_tensor("mu", ctx)
        clean = not bf.antisymmetry_defect(mu) and not bf.jacobi_defect(mu)
        expected = 0 if clean else 1

        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = main(["check", "lie", "mu", str(path)])
            outputs.append(buffer.getvalue())
            assert code == expected, f"case {case}: exit {code} != {expected}"
        assert outputs[0] == outputs[1], f"case {case}: nondeterministic report"
    _report(7, f"exit-code and report-determinism contracts: {N_CASES} "
               f"randomized documents, two runs each, zero failures")
