import json

import pytest
from hypothesis import given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge.document import SCHEMA
from bialgebra_forge.errors import DocumentError, ExprSyntaxError, InputError
from bialgebra_forge.exprparse import _lex

from conftest import corrected_document, presentation3, presentation5


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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(["t", "h", "z1", "z2"]),
    image=st.one_of(
        st.sampled_from(["z", "t", "z2", "_", "w9", "i", "exp", "cosh", "p_x", "l_z"]),
        st.text(alphabet="az_9é½ -", max_size=4),
    ),
)
def test_every_name_specialize_accepts_loads_and_builds(name, image):
    """A name image becomes a parameter of the emitted document, so
    specialize accepts exactly what the document rule accepts."""
    try:
        specialized = bf.specialize(presentation3(), {name: image})
    except InputError:
        data = corrected_document().to_dict()
        renamed = [image if p == name else p for p in data["parameters"]]
        data["parameters"] = list(dict.fromkeys(renamed))
        with pytest.raises(DocumentError):
            bf.Document.from_dict(data)
        return
    doc = bf.Document.from_dict(bf.presentation_document(specialized).to_dict())
    assert image in doc.parameters
    doc.build_presentation(doc.make_context())


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(schema="nope/9"), "unsupported schema"),
    (lambda d: d.update(generators=[]), "no generators"),
    (lambda d: d.update(generators=["a", "a"]), "declared twice"),
    (lambda d: d.update(parameters=["exp"]), "reserved"),
    (lambda d: d.update(parameters=["2bad"]), "bad identifier"),
    # a numeric character the lexer could not read as a letter
    (lambda d: d.update(parameters=["½z"]), "bad identifier '½z'"),
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


@given(st.one_of(st.text(max_size=5), st.text(alphabet="aZ_09½²٣é (x)+", max_size=5)))
@settings(max_examples=300)
def test_a_valid_name_lexes_as_one_identifier(name):
    # validation and the lexer share one identifier rule; a reserved name
    # lexes as one identifier but is refused
    try:
        kinds, values, *_ = _lex(name)
        one_identifier = kinds == ["IDENT", "END"] and values[0] == name
    except ExprSyntaxError:
        one_identifier = False
    try:
        bf.Document.from_dict({"schema": SCHEMA, "generators": [name]})
        valid = True
    except DocumentError:
        valid = False
    assert valid == (one_identifier and name not in ("i", "exp", "sinh", "cosh"))


def test_missing_coproduct_rejected():
    data = json.loads(json.dumps(corrected_document().to_dict()))
    del data["presentation"]["coproducts"]["l_y"]
    with pytest.raises(DocumentError) as err:
        bf.Document.from_dict(data)
    assert "l_y" in str(err.value)


@pytest.mark.parametrize("fault, message", [
    ("self-bracket", "bracket [p_y,p_y] of a generator with itself"),
    ("same orientation", "duplicate bracket key for pair (p_x,p_y)"),
    ("reverse orientation", "duplicate bracket key for pair (p_x,p_y)"),
    ("missing coproduct", "missing coproducts for generators ['l_y']"),
])
def test_a_structural_fault_has_one_message_in_the_document_and_the_engine(fault, message):
    """The bracket-key and coproduct-coverage rules are the engine's own:
    a document and a library caller building a RelationTable or a
    HopfPresentation directly are refused with the same message."""
    data = json.loads(json.dumps(corrected_document().to_dict()))
    H = presentation3()
    ctx, index = H.context, H.context.basis.index
    brackets, coproduct = data["presentation"]["brackets"], dict(H.coproduct)
    # the corrected document's first bracket is [p_x,p_y]
    extra = {"self-bracket": ("p_y", "p_y"), "same orientation": ("p_x", "p_y"),
             "reverse orientation": ("p_y", "p_x")}.get(fault)
    if extra:
        brackets.append({"left": extra[0], "right": extra[1], "rhs": "0"})
    else:
        del data["presentation"]["coproducts"]["l_y"]
        del coproduct[index["l_y"]]
    with pytest.raises(DocumentError) as from_document:
        bf.Document.from_dict(data)
    with pytest.raises(DocumentError) as from_engine:
        if extra:
            bf.RelationTable(ctx, [
                (index[item["left"]], index[item["right"]], bf.NCPoly.zero(ctx))
                for item in brackets
            ])
        else:
            bf.HopfPresentation(ctx, H.rel, coproduct, H.counit)
    assert str(from_document.value) == str(from_engine.value) == message


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
