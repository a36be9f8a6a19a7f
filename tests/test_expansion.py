import dataclasses
import random
from fractions import Fraction

import pytest

import bialgebra_forge as bf
from bialgebra_forge.errors import InputError
from bialgebra_forge.expansion import order2_component_defect
from bialgebra_forge.ncpoly import NCPoly, TensorNCPoly
from bialgebra_forge.scalars import I, Scalar, ZERO
from bialgebra_forge.tensors import BracketTensor, CobracketTensor, cocycle_defect

from conftest import context5, corrected_document, diagonal5

P_X, P_Y, P_Z, L_X, L_Y, L_Z = range(6)

TABLE = bf.extract_coefficients(diagonal5(), up_to=(2, 2, 2), roles=("t", "h", "z"))


def test_extraction_recovers_first_order_bracket():
    mu = TABLE.mu[(0, 0, 1)]
    assert mu.value(P_Z, P_X, P_Y).constant_term() == I
    assert mu.value(P_X, P_Z, P_Y).constant_term() == -I


def test_extraction_recovers_first_order_cobracket():
    delta = TABLE.delta[(0, 0, 1)]
    minus_half = Scalar(Fraction(-1, 2))
    assert delta.value(P_Y, P_X, P_Y).constant_term() == minus_half
    assert delta.value(P_Z, P_X, P_Z).constant_term() == minus_half


def test_extracted_tensors_match_input_compositions():
    doc = corrected_document()
    ctx = context5()
    mu001 = doc.composition_tensor("mu_001", ctx)
    got = TABLE.mu[(0, 0, 1)]
    for (i, j, k), value in mu001.entries.items():
        assert got.value(i, j, k).constant_term() == value.constant_term()
    assert len(got.entries) == len(mu001.entries)
    delta001 = doc.composition_tensor("delta_001", ctx)
    got_d = TABLE.delta[(0, 0, 1)]
    for (i, j, k), value in delta001.entries.items():
        assert got_d.value(i, j, k).constant_term() == value.constant_term()
    assert len(got_d.entries) == len(delta001.entries)


def _constants(tensor) -> dict:
    return {key: value.constant_term() for key, value in tensor.oriented().items()}


def test_first_order_slices_are_the_four_compositions():
    """On the z1=z2=z diagonal the first-order coefficients are the
    paper's four compositions, entry for entry in oriented constants."""
    doc = corrected_document()
    ctx = context5()
    for name, got in (
        ("mu_100", TABLE.mu[(1, 0, 0)]),
        ("mu_001", TABLE.mu[(0, 0, 1)]),
        ("delta_001", TABLE.delta[(0, 0, 1)]),
    ):
        assert _constants(got) == _constants(doc.composition_tensor(name, ctx)), name
    # expand halves the antisymmetric part of each coproduct, while the
    # tangent field keeps the full difference, so the h-slice is half of
    # delta_010: -i/2 against -i on l_x -> l_y^l_z. Every check is
    # homogeneous in each cobracket, so no verdict can show the factor.
    half = Scalar(Fraction(1, 2))
    delta010 = _constants(doc.composition_tensor("delta_010", ctx))
    assert _constants(TABLE.delta[(0, 1, 0)]) == {
        key: value * half for key, value in delta010.items()
    }
    assert delta010[(L_X, L_Y, L_Z)] == -I


def test_base_bracket_coefficients_recorded():
    # [l_y, l_x] = t*l_y is stored once, under the sorted pair: the
    # (1,0,0) tensor holds [l_x, l_y] = -l_y and reads its flip as +l_y
    mu100 = TABLE.mu[(1, 0, 0)]
    assert mu100.value(L_Y, L_X, L_Y).constant_term() == Scalar(1)
    assert mu100.entries[(L_X, L_Y, L_Y)].constant_term() == Scalar(-1)
    assert (L_Y, L_X, L_Y) not in mu100.entries


def test_expansion_exclusions_hold():
    assert TABLE.exclusion_violations() == {}


def test_abelian_presentation_extracts_nothing():
    doc = corrected_document()
    H = doc.build_presentation(doc.make_context())
    zero = Scalar(0)
    flat = bf.specialize(H, {"t": zero, "h": zero, "z1": zero, "z2": zero})
    # extraction needs three role parameters; rename survivors in
    flat_doc = bf.presentation_document(flat).to_dict()
    flat_doc["parameters"] = ["t", "h", "z"]
    flat = bf.Document.from_dict(flat_doc).build_presentation(
        bf.Document.from_dict(flat_doc).make_context()
    )
    table = bf.extract_coefficients(flat, up_to=(2, 2, 2), roles=("t", "h", "z"))
    assert table.mu == {} and table.delta == {}


def test_order2_components_zero():
    report = bf.verify_order2(TABLE)
    assert report.ok
    assert len(report.checked) == 4


def test_th_component_equals_cocycle_defect_two_code_paths():
    """The component payload is the wedge-keyed cocycle defect written
    out with both orientations, both on the reference table (zero) and
    on a perturbed one (nonzero)."""
    defect = order2_component_defect(TABLE, [((1, 0, 0), (0, 1, 0))])
    wedge = cocycle_defect(TABLE.mu[(1, 0, 0)], TABLE.delta[(0, 1, 0)])
    assert defect == {} and wedge == {}

    perturbed = bf.extract_coefficients(
        _perturbed_diagonal(), up_to=(2, 2, 2), roles=("t", "h", "z")
    )
    defect = order2_component_defect(perturbed, [((1, 0, 0), (0, 1, 0))])
    wedge = cocycle_defect(perturbed.mu[(1, 0, 0)], perturbed.delta[(0, 1, 0)])
    assert defect and wedge
    for (x, y), entries in wedge.items():
        slot = defect[(x, y)]
        for (a, b), value in entries.items():
            assert slot.get((a, b), ZERO) == value.constant_term()
            assert slot.get((b, a), ZERO) == -value.constant_term()


def _perturbed_diagonal():
    """Diagonal presentation with an extra h-linear primitive deviation
    on Delta l_y (breaks the th/hz compatibility slots)."""
    doc = bf.presentation_document(diagonal5()).to_dict()
    doc["presentation"]["coproducts"]["l_y"] += " + i*h*l_y (x) l_x - i*h*l_x (x) l_y"
    loaded = bf.Document.from_dict(doc)
    return loaded.build_presentation(loaded.make_context())


def test_order2_detects_perturbed_coproduct():
    table = bf.extract_coefficients(
        _perturbed_diagonal(), up_to=(2, 2, 2), roles=("t", "h", "z")
    )
    report = bf.verify_order2(table)
    assert not report.ok
    failing = {item.subject for item in report.items}
    assert "th" in failing


def test_order3_thz_zero():
    report = bf.verify_order3_thz(TABLE)
    assert report.ok


def test_order3_identity_is_degenerate_on_reference_family():
    # each thz pair has a zero side here, so deleting whole slots must
    # not flip the verdict
    table = bf.extract_coefficients(diagonal5(), up_to=(2, 2, 2), roles=("t", "h", "z"))
    assert (1, 0, 1) not in table.mu
    assert (0, 1, 1) not in table.delta
    assert (1, 1, 0) not in table.mu and (1, 1, 0) not in table.delta
    del table.mu[(1, 0, 0)], table.delta[(0, 0, 1)]
    assert bf.verify_order3_thz(table).ok


# -- independent oracle for the compatibility identities --------------------------

THZ_PAIRS = (((1, 1, 0), (0, 0, 1)), ((1, 0, 1), (0, 1, 0)),
             ((0, 0, 1), (1, 1, 0)), ((1, 0, 0), (0, 1, 1)))
ORDER2_PAIRS = (((0, 0, 1), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)),
                ((1, 0, 0), (0, 0, 1)), ((0, 0, 1), (0, 1, 0)))


def _random_table(rng, n=4):
    """TABLE's bounds and order on n generators, with sparse random scalar
    tensors of Q(i) entries at every multi-index the identities read;
    keys are given raw (one orientation, both, or a repeated index)."""
    basis = bf.Basis([f"e{g}" for g in range(n)])
    table = dataclasses.replace(TABLE, basis=basis, mu={}, delta={})
    keys = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    for tensors, cls in ((table.mu, BracketTensor), (table.delta, CobracketTensor)):
        for multi in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
            entries = {}
            for key in rng.sample(keys, rng.randint(0, 6)):
                value = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                               rng.randint(-2, 2))
                if value:
                    entries[key] = value
            if entries:
                tensors[multi] = cls(basis, (), 0, entries)
    return table


def _read(tensor, key, flip):
    """The stored value read in either orientation: the stored key, or
    its stored flip negated, and a repeated antisymmetric index reads
    zero; None marks a zero entry."""
    if tensor is None or key == flip:
        return None
    if key in tensor.entries:
        return tensor.entries[key].constant_term()
    if flip in tensor.entries:
        return -tensor.entries[flip].constant_term()
    return None


def _wedge(delta, i, a, b):
    """delta(x_i) at a (x) b: a wedge, so it is the value read at the
    lower orientation, negated when a > b."""
    if a <= b:
        return _read(delta, (i, a, b), (i, b, a))
    value = _read(delta, (i, b, a), (i, a, b))
    return None if value is None else -value


def _dense_defect(table, pairs) -> dict:
    """Sum over (mu, delta) multi-index pairs of
    delta([x,y]) - ad_x delta(y) + ad_y delta(x) on x<y, computed on
    dense arrays, with ad acting factorwise on delta's two slots."""
    n = len(table.basis)
    sums = {}
    for mu_multi, delta_multi in pairs:
        mu, delta = table.mu.get(mu_multi), table.delta.get(delta_multi)
        C = [[[_read(mu, (i, j, k), (j, i, k)) for k in range(n)]
              for j in range(n)] for i in range(n)]
        D = [[[_wedge(delta, i, a, b) for b in range(n)]
              for a in range(n)] for i in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                for a in range(n):
                    for b in range(n):
                        v = ZERO
                        for c in range(n):
                            for f, g, sign in (
                                (C[x][y][c], D[c][a][b], 1),
                                (C[x][c][a], D[y][c][b], -1), (D[y][a][c], C[x][c][b], -1),
                                (C[y][c][a], D[x][c][b], 1), (D[x][a][c], C[y][c][b], 1),
                            ):
                                if f is not None and g is not None:
                                    v = v + f * g if sign > 0 else v - f * g
                        sums[(x, y, a, b)] = sums.get((x, y, a, b), ZERO) + v
    out = {}
    for (x, y, a, b), v in sums.items():
        if v:
            out.setdefault((x, y), {})[(a, b)] = v
    return out


def test_identities_match_dense_cocycle_oracle():
    """On 100 seeded random tables, every order-2 component and the thz
    payload equal the dense formula entry for entry (both orientations of
    each output pair present)."""
    rng = random.Random(20260518)
    nonzero = {"order-2": 0, "order-3": 0}
    for _ in range(100):
        table = _random_table(rng)
        for mu_multi, delta_multi in ORDER2_PAIRS:
            got = order2_component_defect(table, [(mu_multi, delta_multi)])
            assert got == _dense_defect(table, [(mu_multi, delta_multi)])
            nonzero["order-2"] += bool(got)
        report = bf.verify_order3_thz(table)
        payload = report.items[0].value.data if report.items else {}
        assert payload == _dense_defect(table, THZ_PAIRS)
        nonzero["order-3"] += bool(payload)
    # the draw exercises nonzero defects, not only the zero case
    assert nonzero["order-2"] > 100 and nonzero["order-3"] > 50


def test_order3_detects_spurious_coefficient():
    # a fake th-order cobracket on p_y makes the composition with the
    # first-order bracket inconsistent, localized at the (p_x, p_z) pair
    table = bf.extract_coefficients(diagonal5(), up_to=(2, 2, 2), roles=("t", "h", "z"))
    table.delta[(1, 1, 0)] = CobracketTensor(
        table.basis, (), 0, {(P_Y, L_Y, L_Z): Scalar(Fraction(1, 2))}
    )
    report = bf.verify_order3_thz(table)
    assert not report.ok
    payload = report.items[0].value
    assert set(payload.data) == {(P_X, P_Z)}


def test_order3_reports_missing_bounds():
    # the table holds every role monomial through the order whatever its
    # bounds, so the checks read the same coefficients at any bounds ...
    for bounds in ((1, 1, 0), (1, 0, 1), (0, 0, 0)):
        table = bf.extract_coefficients(diagonal5(), up_to=bounds, roles=("t", "h", "z"))
        assert (table.mu, table.delta) == (TABLE.mu, TABLE.delta)
        assert bf.verify_order3_thz(table).ok == bf.verify_order3_thz(TABLE).ok
        assert bf.verify_order2(table).ok == bf.verify_order2(TABLE).ok
    # ... and a multi-index above the order, where no coefficient is
    # exact, is what the checks report missing
    low = dataclasses.replace(TABLE, order=1)
    with pytest.raises(InputError, match=r"multi-index \(1, 1, 0\) lies above order 1"):
        bf.verify_order3_thz(low)


# -- tangent fields -------------------------------------------------------------------


@pytest.mark.parametrize("case", ["h-field-at-z0", "t-field-at-z0", "h-field", "t-field"])
def test_tangent_fields_match_fixtures(case):
    body = bf.load_tangent_fixtures()[case]
    base = {name: Scalar(int(value)) for name, value in body["at"].items()}
    field = bf.tangent_field(diagonal5(), body["direction"], base)
    expectation = bf.read_expectation(body, field.context.basis.names, f"@{case}")
    diff = bf.compare_field(field, expectation)
    assert diff.ok, diff


def test_t_field_has_no_coproduct_components():
    field = bf.tangent_field(diagonal5(), "t", {})
    assert field.delta == {}


def test_h_field_limit_matches_origin_field():
    """Substituting z -> 0 into the symbolic direction-h field gives the
    z = 0 field coefficientwise."""
    free = bf.tangent_field(diagonal5(), "h", {})
    at_zero = bf.tangent_field(diagonal5(), "h", {"z": Scalar(0)})
    images = {"z": 0}
    for part, limit, zero in (
        (free.mu, at_zero.mu, NCPoly.zero(free.context)),
        (free.delta, at_zero.delta, TensorNCPoly.zero(free.context, 2)),
    ):
        for key in set(part) | set(limit):
            pushed = part.get(key, zero).substitute(images, at_zero.context)
            assert pushed == limit[key] if key in limit else not pushed


def test_compare_field_self_diff_empty():
    field = bf.tangent_field(diagonal5(), "h", {})
    names = field.context.basis.names
    body = {
        "mode": "exact",
        "mu": [{"left": names[i], "right": names[j], "value": str(value)}
               for (i, j), value in field.mu.items()],
        "delta": [{"generator": names[g], "value": str(value)}
                  for g, value in field.delta.items()],
    }
    diff = bf.compare_field(field, bf.read_expectation(body, names, "self"))
    assert diff.ok


def test_extraction_is_stable_under_bounds_and_order():
    small = bf.extract_coefficients(diagonal5(), up_to=(1, 1, 1), roles=("t", "h", "z"))
    for multi, tensor in small.mu.items():
        assert TABLE.mu[multi] == tensor
    for multi, tensor in small.delta.items():
        assert TABLE.delta[multi] == tensor
    doc = corrected_document()
    low = doc.build_presentation(doc.make_context(order=3))
    low_diag = bf.specialize(low, {"z1": "z", "z2": "z"})
    low_table = bf.extract_coefficients(low_diag, up_to=(1, 1, 1), roles=("t", "h", "z"))
    assert low_table.mu[(0, 0, 1)] == TABLE.mu[(0, 0, 1)]
    assert low_table.delta[(0, 1, 0)] == TABLE.delta[(0, 1, 0)]
