"""Coboundary Lie bialgebras on gl_n (tests/gln.py) as known answers for
the Lie-data checks, n = 2, 3, 4 (4, 9 and 16 generators)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge.cli import main
from bialgebra_forge.tensors import (
    BracketTensor, CobracketTensor, build_family, check_four_pairs, cocycle_defect,
)

import double
import gln
from conftest import coefficient_products, compositions5

SIZES = st.integers(2, 4)
COCYCLE_LABELS = ("cocycle (mu_001,delta_001)", "cocycle (mu_001,delta_010)",
                  "cocycle (mu_100,delta_001)", "cocycle (mu_100,delta_010)")


def _tensor(n, kind, constants):
    cls = BracketTensor if kind == "bracket" else CobracketTensor
    return cls(bf.Basis(gln.names(n)), gln.PARAMS, 2, constants)


def _roles(n, compositions) -> list:
    return [_tensor(n, *compositions[name])
            for name in ("mu_100", "mu_001", "delta_010", "delta_001")]


def _failing(report) -> list:
    return [label for label, defects in report.items() if defects]


@st.composite
def _wedges(draw, n):
    """A random r in wedge^2 gl_n with small integer coefficients."""
    pairs = [(a, b) for a in range(n * n) for b in range(a + 1, n * n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    return {pair: draw(st.integers(-3, 3).filter(bool)) for pair in chosen}


@st.composite
def _cartans(draw, n):
    """A random r_0 in wedge^2 of the diagonal."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return gln.cartan_r(n, {pair: draw(st.integers(-3, 3)) for pair in pairs})


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data(), n=SIZES)
def test_every_coboundary_is_a_cocycle(data, n):
    r = data.draw(_wedges(n))
    mu = _tensor(n, "bracket", gln.bracket(n))
    assert cocycle_defect(mu, _tensor(n, "cobracket", gln.coboundary(n, r))) == {}


@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data(), n=SIZES)
def test_standard_r_plus_cartan_passes_four_pairs_and_family(data, n):
    r0 = data.draw(_cartans(n))
    roles = _roles(n, gln.four_pairs(n, r0))
    assert _failing(check_four_pairs(*roles)) == []
    family = build_family(*roles)
    assert cocycle_defect(family.mu, family.delta) == {}


def test_the_named_four_pair_instance_passes():
    """mu_100 = mu, mu_001 = 2 mu, delta_010 = delta_r and
    delta_001 = delta_{r + 3 E_00 ^ E_11}."""
    for n in (2, 3, 4):
        roles = _roles(n, gln.four_pairs(n, gln.cartan_r(n, {(0, 1): 3})))
        assert _failing(check_four_pairs(*roles)) == [], n
        family = build_family(*roles)
        assert cocycle_defect(family.mu, family.delta) == {}, n


@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data(), n=SIZES)
def test_a_dropped_cobracket_entry_fails_a_cocycle_label(data, n):
    compositions = gln.four_pairs(n, gln.cartan_r(n, {(0, 1): 3}))
    kind, delta = compositions["delta_010"]
    dropped = data.draw(st.sampled_from(sorted(delta)))
    compositions["delta_010"] = (kind, {k: v for k, v in delta.items() if k != dropped})
    failing = _failing(check_four_pairs(*_roles(n, compositions)))
    assert "cocycle (mu_100,delta_010)" in failing
    assert "cocycle (mu_001,delta_010)" in failing


def test_an_off_diagonal_term_fails_cojacobi_but_no_cocycle():
    """r + E_01 ^ E_12 is still a coboundary, so every cocycle label
    passes, but [[r, r]] is no longer ad-invariant."""
    for n in (3, 4):
        r0 = {(gln.unit(n, 0, 1), gln.unit(n, 1, 2)): 1}
        report = check_four_pairs(*_roles(n, gln.four_pairs(n, r0)))
        assert _failing(report) == ["cojacobi delta_001", "mixed-cojacobi"], n
        assert not any(report[label] for label in COCYCLE_LABELS)


def test_the_four_pair_pass_reads_each_block_once():
    """Coefficient products of check_four_pairs: 8 on @corrected, 1,320
    on the gl_3 and 4,496 on the gl_4 instance. The separate defect
    functions that the Jacobi pass over the double replaced took 9, 1,368
    and 4,592; forming a block the pass leaves out (it repeats one it
    reads) or a wedge in both orientations would raise them."""
    corrected = [compositions5()[name] for name in double.ROLES]
    report, products = coefficient_products(check_four_pairs, *corrected)
    assert _failing(report) == [] and products == 8
    for n, expected in ((3, 1320), (4, 4496)):
        roles = _roles(n, gln.four_pairs(n, gln.cartan_r(n, {(0, 1): 3})))
        report, products = coefficient_products(check_four_pairs, *roles)
        assert _failing(report) == [] and products == expected, n


def _check_bialgebra(n, mu, delta):
    """Exit code and pass flags of `check bialgebra mu delta` on a gl_n
    document."""
    data = gln.document(n, {"mu": ("bracket", mu), "delta": ("cobracket", delta)})
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "doc.json"
        path.write_text(json.dumps(data))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", "bialgebra", "mu", "delta", str(path),
                         "--format", "json"])
    checks = json.loads(out.getvalue())["checks"]
    return code, {c["check"]: c["pass"] for c in checks}


def _pair_double(n, mu, delta):
    """The double of one pair, as the roles mu_100 and delta_010 of
    tests/double.py with the other two zero."""
    zero_mu, zero_delta = _tensor(n, "bracket", {}), _tensor(n, "cobracket", {})
    return (_tensor(n, "bracket", mu), zero_mu, _tensor(n, "cobracket", delta), zero_delta)


def _swapped(bracket) -> dict:
    """A double's oriented values with g and g* exchanged: e_i and f^i
    trade places, and so do the pencil parameters of mu_100 and
    delta_010."""
    n = len(bracket.basis) // 2
    p, q = bracket.params.index("p_mu_100"), bracket.params.index("p_delta_010")

    def swap(exps):
        exps = list(exps)
        exps[p], exps[q] = exps[q], exps[p]
        return tuple(exps)

    return {
        tuple(g + n if g < n else g - n for g in key): {swap(e): c for e, c in v.terms.items()}
        for key, v in bracket.oriented().items()
    }


# swapping g and g* exchanges these labels and keeps the cocycle
_SWAP = {"jacobi mu_100": "cojacobi delta_010", "cojacobi delta_010": "jacobi mu_100"}


@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data(), n=SIZES, drop=st.booleans())
def test_the_dual_pair_gets_the_same_verdict(data, n, drop):
    """(mu, delta) and (delta^T, mu^T) have one double: exchanging g and
    g* maps the one onto the other. So the dual pair fails the same
    labels with jacobi and cojacobi exchanged and the cocycle in place,
    and `check bialgebra` gives both the same verdict; one dropped
    cobracket entry makes both FAIL the cocycle label."""
    mu = gln.bracket(n)
    delta = gln.coboundary(n, gln.wedge_sum(gln.standard_r(n), data.draw(_cartans(n))))
    if drop:
        dropped = data.draw(st.sampled_from(sorted(delta)))
        delta = {k: v for k, v in delta.items() if k != dropped}
    pair = _pair_double(n, mu, delta)
    dual_pair = _pair_double(n, gln.dual_bracket(delta), gln.dual_cobracket(mu))
    assert _swapped(double.double(*dual_pair)) == {
        key: v.terms for key, v in double.double(*pair).oriented().items()}
    labels = double.failing_labels(*pair)
    assert ("cocycle (mu_100,delta_010)" in labels) is drop
    assert double.failing_labels(*dual_pair) == {_SWAP.get(label, label) for label in labels}
    code, checks = _check_bialgebra(n, mu, delta)
    dual_code, dual_checks = _check_bialgebra(
        n, gln.dual_bracket(delta), gln.dual_cobracket(mu))
    assert code == dual_code == (1 if drop else 0)
    assert checks["cocycle (mu,delta)"] is dual_checks["cocycle (mu,delta)"] is not drop
