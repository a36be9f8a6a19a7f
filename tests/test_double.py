"""The Drinfeld double (tests/double.py) as a second, independent oracle
for the four-pair checks: the pencil monomials on which the double's
Jacobi identity fails are exactly the labels check_four_pairs fails,
antisymmetry aside."""

import pytest

import bialgebra_forge as bf
from bialgebra_forge.tensors import BracketTensor, CobracketTensor, check_four_pairs

import double
import gln
from conftest import compositions5
from test_golden import GATE_ENTRIES, MIXED_ENTRIES


def _failing(roles) -> set:
    return {
        label for label, defects in check_four_pairs(*roles).items()
        if defects and not label.startswith("antisymmetry")
    }


def _document_roles(added):
    data = bf.load_bundled("corrected").to_dict()
    for name, entries in added.items():
        data["compositions"][name]["entries"] += entries
    doc = bf.Document.from_dict(data)
    ctx = doc.make_context()
    return [doc.composition_tensor(name, ctx) for name in double.ROLES]


def test_the_double_of_corrected_is_a_lie_algebra():
    roles = [compositions5()[name] for name in double.ROLES]
    assert double.failing_labels(*roles) == _failing(roles) == set()


@pytest.mark.parametrize("added", [GATE_ENTRIES, MIXED_ENTRIES], ids=["gate", "mixed"])
def test_the_double_fails_the_golden_gate_labels(added):
    roles = _document_roles(added)
    failing = _failing(roles)
    assert failing
    assert double.failing_labels(*roles) == failing


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
@pytest.mark.parametrize("n", [2, 3])
def test_the_double_fails_the_gln_labels(n, dropped):
    """The coboundary instance passes; one dropped entry of any
    composition fails the same labels on the double as in the checks."""
    roles = _gln_roles(n, dropped)
    failing = _failing(roles)
    assert bool(failing) is (dropped is not None)
    assert double.failing_labels(*roles) == failing
