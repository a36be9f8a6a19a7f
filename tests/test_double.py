"""The Drinfeld double (tests/double.py) as a second, independent oracle
for the four-pair checks: the pencil monomials on which the double's
Jacobi identity fails are exactly the labels check_four_pairs fails,
antisymmetry aside."""

import pytest
from hypothesis import given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge.tensors import BracketTensor, CobracketTensor, check_four_pairs

import double
import gln
from conftest import compositions5
from test_golden import COJACOBI_ENTRIES, GATE_ENTRIES, MIXED_ENTRIES


def _failing(roles) -> set:
    return {
        label for label, defects in check_four_pairs(*roles).items()
        if defects and not label.startswith("antisymmetry")
    }


def _roles(data):
    doc = bf.Document.from_dict(data)
    ctx = doc.make_context()
    return [doc.composition_tensor(name, ctx) for name in double.ROLES]


def _document_roles(added):
    data = bf.load_bundled("corrected").to_dict()
    for name, entries in added.items():
        data["compositions"][name]["entries"] += entries
    return _roles(data)


NAMES = ("p_x", "p_y", "p_z", "l_x", "l_y", "l_z")
COEFFS = ("1", "-1", "i", "-1/2", "2*i", "t", "-z1", "h+z2")


@st.composite
def perturbed(draw):
    """@corrected's document with one entry of one composition dropped,
    or one entry added to it (any key, diagonal and flipped ones too)."""
    data = bf.load_bundled("corrected").to_dict()
    comp = data["compositions"][draw(st.sampled_from(double.ROLES))]
    entries = comp["entries"]
    if draw(st.booleans()):
        del entries[draw(st.integers(0, len(entries) - 1))]
    else:
        pair = [draw(st.sampled_from(NAMES)) for _ in range(2)]
        one = draw(st.sampled_from(NAMES))
        lower, upper = (pair, one) if comp["kind"] == "bracket" else (one, pair)
        entries.append({"lower": lower, "upper": upper, "coeff": draw(st.sampled_from(COEFFS))})
    return data


def test_the_double_of_corrected_is_a_lie_algebra():
    roles = [compositions5()[name] for name in double.ROLES]
    assert double.failing_labels(*roles) == _failing(roles) == set()


@pytest.mark.parametrize("added", [GATE_ENTRIES, MIXED_ENTRIES, COJACOBI_ENTRIES],
                         ids=["gate", "mixed", "cojacobi"])
def test_the_double_fails_the_golden_gate_labels(added):
    roles = _document_roles(added)
    failing = _failing(roles)
    assert failing
    assert double.failing_labels(*roles) == failing


@given(perturbed())
@settings(max_examples=100, deadline=None)
def test_the_double_fails_the_labels_of_a_perturbed_corrected(data):
    roles = _roles(data)
    assert double.failing_labels(*roles) == _failing(roles)


def _gln_roles(n, dropped):
    compositions = gln.four_pairs(n, gln.cartan_r(n, {(0, 1): 3}))
    if dropped is not None:
        kind, constants = compositions[dropped]
        first = min(constants)
        compositions[dropped] = (kind, {k: v for k, v in constants.items() if k != first})
    roles = []
    for name in double.ROLES:
        kind, constants = compositions[name]
        cls = BracketTensor if kind == "bracket" else CobracketTensor
        roles.append(cls(bf.Basis(gln.names(n)), gln.PARAMS, 2, constants))
    return roles


@pytest.mark.parametrize("dropped", [None, *double.ROLES])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_double_fails_the_gln_labels(n, dropped):
    """The coboundary instance passes; one dropped entry of any
    composition fails the same labels on the double as in the checks."""
    roles = _gln_roles(n, dropped)
    failing = _failing(roles)
    assert bool(failing) is (dropped is not None)
    assert double.failing_labels(*roles) == failing
