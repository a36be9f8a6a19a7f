import json

import pytest

import bialgebra_forge as bf
from bialgebra_forge.errors import DocumentError

from conftest import corrected_document, presentation5


def test_bundled_corrected_loads():
    doc = corrected_document()
    assert doc.parameters == ["t", "h", "z1", "z2"]
    assert doc.generators[0] == "p_x" and doc.generators[-1] == "l_z"
    assert len(doc.presentation["brackets"]) == 15


def test_bundled_verbatim_rejected_for_duplicate_keys():
    with pytest.raises(DocumentError) as err:
        bf.load_bundled("verbatim")
    assert "duplicate bracket key" in str(err.value)
    assert "p_y" in str(err.value) and "l_x" in str(err.value)


def test_duplicate_detection_runs_before_expression_parsing():
    # the verbatim copy also carries the unparseable contraction 'tly';
    # the structural duplicate must win
    raw = json.loads(
        bf.document._data_text("six_generator_verbatim.json")
    )
    assert any(item["rhs"] == "tly" for item in raw["presentation"]["brackets"])
    with pytest.raises(DocumentError) as err:
        bf.Document.from_dict(raw)
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(schema="nope/9"), "unsupported schema"),
    (lambda d: d.update(generators=[]), "no generators"),
    (lambda d: d.update(generators=["a", "a"]), "declared twice"),
    (lambda d: d.update(parameters=["exp"]), "reserved"),
    (lambda d: d.update(parameters=["2bad"]), "bad identifier"),
    (lambda d: d["presentation"]["brackets"].append(
        {"left": "p_y", "right": "p_y", "rhs": "0"}),
     "bracket [p_y,p_y] of a generator with itself"),
])
def test_validation_errors(mutate, fragment):
    data = corrected_document().to_dict()
    data = json.loads(json.dumps(data))
    mutate(data)
    with pytest.raises(DocumentError) as err:
        bf.Document.from_dict(data)
    assert fragment in str(err.value)


def test_missing_coproduct_rejected():
    data = json.loads(json.dumps(corrected_document().to_dict()))
    del data["presentation"]["coproducts"]["l_y"]
    with pytest.raises(DocumentError) as err:
        bf.Document.from_dict(data)
    assert "l_y" in str(err.value)


def test_to_dict_is_a_copy():
    doc = bf.load_bundled("corrected")
    before = doc.dumps()
    data = doc.to_dict()
    data["presentation"]["brackets"][0]["rhs"] += "+p_x"
    data["compositions"]["mu_100"]["entries"].pop()
    data["settings"]["order"] = 9
    assert doc.dumps() == before


def test_round_trip_is_a_fixed_point():
    H = presentation5()
    emitted = bf.presentation_document(H)
    text1 = emitted.dumps()
    reloaded = bf.Document.from_dict(json.loads(text1))
    H2 = reloaded.build_presentation(reloaded.make_context())
    assert bf.presentation_diff(H, H2) == []
    text2 = bf.presentation_document(H2).dumps()
    assert text1 == text2


def test_composition_document_round_trip(comps, ctx):
    emitted = bf.composition_document(
        {"mu_100": comps["mu_100"], "delta_001": comps["delta_001"]}, ctx
    )
    reloaded = bf.Document.from_dict(json.loads(emitted.dumps()))
    again = reloaded.composition_tensor("mu_100", ctx)
    assert again == comps["mu_100"]
    again_d = reloaded.composition_tensor("delta_001", ctx)
    assert again_d == comps["delta_001"]


def test_settings_defaults_and_overrides():
    doc = corrected_document()
    assert doc.make_context().order == 5
    low = doc.make_context(order=3, cap=8, slack=1)
    assert (low.order, low.cap, low.slack) == (3, 8, 1)
    assert doc.composition_tensor("mu_100", low).order == 3


def test_boundary_fixture_documents_load():
    fixtures = bf.load_boundary_fixtures()
    assert set(fixtures) == {
        "z1-z2-zero", "t-h-zero-diagonal", "t-zero-diagonal", "h-zero-diagonal",
    }
    for body in fixtures.values():
        ctx = body["document"].make_context()
        body["document"].build_presentation(ctx)
