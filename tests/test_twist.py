"""Twisted U(gl_n) (tests/twist.py) as known answers for the Hopf checks:
every check passes on the twist, a perturbation fails the check it
breaks, and the first-order reader reads back gl_n's bracket and the
coboundaries of the twists."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge.cli import main
from bialgebra_forge.scalars import Scalar

import gln
import twist

# a Cartan r with an integer, a rational and a Gaussian rational entry
R3 = {(0, 1): 1, (0, 2): Scalar(-2, 1), (1, 2): "1/2"}
# a nonzero Gaussian rational with small numerators and denominators
GAUSSIAN = st.builds(Scalar, st.fractions(-3, 3, max_denominator=4),
                     st.fractions(-3, 3, max_denominator=4)).filter(bool)


def _hopf_failures(tmp_path, data, order=5) -> tuple:
    """The exit code of `hopf all` on data and the names of its failing
    checks."""
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["hopf", "all", str(path), "--order", str(order),
                     "--cap", str(2 * order + 2)])
    failing = {line.split(":")[0] for line in out.getvalue().splitlines()
               if line.startswith("[FAIL]")}
    return code, sorted(failing)


@pytest.mark.parametrize("n, r", [(2, {(0, 1): Scalar(1, -3)}), (3, R3)])
def test_twisted_gln_passes_every_hopf_check(tmp_path, n, r):
    assert _hopf_failures(tmp_path, twist.twisted_gln(n, r, "ht2")) == (0, [])


def test_twisted_gl3_passes_every_hopf_check_at_order_6(tmp_path):
    assert _hopf_failures(tmp_path, twist.twisted_gln(3, R3, "ht2"), order=6) == (0, [])


@settings(max_examples=10, derandomize=True, deadline=None)
@given(entry=GAUSSIAN, scale=st.sampled_from(sorted(twist.SCALES)))
def test_a_drawn_twist_of_gl2_passes_every_hopf_check(tmp_path_factory, entry, scale):
    data = twist.twisted_gln(2, {(0, 1): entry}, scale)
    assert _hopf_failures(tmp_path_factory.mktemp("drawn"), data) == (0, []), entry


def _bracket(data, left, right) -> dict:
    return next(b for b in data["presentation"]["brackets"]
                if (b["left"], b["right"]) == (left, right))


def _jacobi(data):
    _bracket(data, "e01", "e10")["rhs"] += " + t*h^2*e00"


def _exponent(data):
    coproducts = data["presentation"]["coproducts"]
    altered = coproducts["e01"].replace("exp(h*t*(1*e00", "exp(h*t*(2*e00", 1)
    assert altered != coproducts["e01"]
    coproducts["e01"] = altered


def _coproduct_term(data):
    data["presentation"]["coproducts"]["e02"] += " + h^2*e01 (x) e12"


@pytest.mark.parametrize("perturb, failing", [
    (_jacobi, ["[FAIL] presentation-jacobi"]),
    # one exponent coefficient of Delta(e01) changed on its right factor only
    (_exponent, ["[FAIL] coproduct-hom"]),
    (_coproduct_term, ["[FAIL] antipode", "[FAIL] coassociativity", "[FAIL] coproduct-hom"]),
])
def test_a_perturbed_twist_fails_the_check_it_breaks(tmp_path, perturb, failing):
    data = twist.twisted_gln(3, R3, "ht2")
    perturb(data)
    assert _hopf_failures(tmp_path, data) == (1, failing)


def _constants(tensor) -> dict:
    return {key: value.constant_term() for key, value in tensor.entries.items()}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale, h_multi, z_multi", [
    ("ht", (0, 1, 0), (0, 0, 1)), ("ht2", (1, 1, 0), (1, 0, 1)),
])
def test_the_first_order_reader_reads_back_the_twists(n, scale, h_multi, z_multi):
    """On the three-parameter twist F = exp(s*R1 + s_z*R2), expand's t
    bracket is gl_n's and its h and z cobrackets are minus the
    coboundaries of r1 and r2: half of Delta - Delta^op is
    s*[R, Delta] = -s*delta_r to first order."""
    r1 = {(i, j): (i + 2 * j) % 3 - 1 for i in range(n) for j in range(i + 1, n)}
    r2 = {(i, j): Scalar(1, 1) * (j - i) for i in range(n) for j in range(i + 1, n)}
    doc = bf.Document.from_dict(twist.twisted_gln(n, r1, scale, r2=r2))
    H = doc.build_presentation(doc.make_context(order=3, cap=8))
    table = bf.extract_coefficients(H, up_to=(1, 1, 1), roles=("t", "h", "z"))
    assert _constants(table.mu[(1, 0, 0)]) == gln.bracket(n)
    for multi, r in ((h_multi, r1), (z_multi, r2)):
        coboundary = gln.coboundary(n, gln.cartan_r(n, r))
        assert _constants(table.delta[multi]) == {k: -v for k, v in coboundary.items()}
    assert sorted(table.delta) == sorted((h_multi, z_multi))
    assert table.exclusion_violations() == {}
