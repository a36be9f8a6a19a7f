import argparse
import copy
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import bialgebra_forge as bf
from bialgebra_forge import cli
from bialgebra_forge.cli import main

import twist
from test_golden import COJACOBI_ENTRIES, GOLDEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_four_pairs_passes(capsys):
    code, out, err = run(capsys, "check", "four-pairs", "@corrected")
    assert code == 0
    assert "theorem hypotheses satisfied" in out
    assert "result: PASS" in out


FOUR_PAIRS_REPEATED = """\
# check four-pairs
settings: order=5, parameters=t,h,z1,z2, slack=2
[pass] antisymmetry mu_001
[pass] antisymmetry mu_100
[pass] antisymmetry delta_001
[pass] antisymmetry delta_010
[pass] jacobi mu_001
[pass] jacobi mu_100
[pass] cojacobi delta_001
[pass] cojacobi delta_010
[pass] mixed-jacobi
[pass] mixed-cojacobi
[pass] cocycle (mu_001,delta_001)
[pass] cocycle (mu_001,delta_010)
[pass] cocycle (mu_100,delta_001)
[pass] cocycle (mu_100,delta_010)
[pass] theorem hypotheses satisfied
note: corrected copy: the transcription source lists the bracket key [p_y,l_x] twice; \
the second occurrence is stored here as [p_y,l_y] (confirmed by both tangent fields), \
and its contraction 'tly' in [l_y,l_x] is stored as 't*l_y'
result: PASS
"""


def test_four_pairs_tags_each_role_by_position(tmp_path, capsys):
    """One composition named in two roles counts as two: on @corrected
    the report keeps its role labels, and on the co-Jacobi gate document
    (a delta_010 entry that fails co-Jacobi) delta_010 in both cobracket
    roles fails mixed-cojacobi with twice its co-Jacobi defect."""
    argv = ["check", "four-pairs", "mu_100", "mu_100", "delta_010", "delta_010"]
    assert run(capsys, *argv, "@corrected") == (0, FOUR_PAIRS_REPEATED, "")
    data = bf.load_bundled("corrected").to_dict()
    for name, entries in COJACOBI_ENTRIES.items():
        data["compositions"][name]["entries"] += entries
    path = tmp_path / "cojacobi.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, *argv, str(path))
    failing = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    cocycle = ("(p_x,p_y) -> {(p_x,p_y): -1}; (p_x,p_z) -> {(p_x,p_z): -1}; "
               "(p_x,l_y) -> {(p_x,l_y): 1}; (p_x,l_z) -> {(p_x,l_z): 1}")
    assert code == 1 and failing == [
        "[FAIL] cojacobi delta_001: (p_x,l_y,l_z,p_x): i",
        "[FAIL] cojacobi delta_010: (p_x,l_y,l_z,p_x): i",
        "[FAIL] mixed-cojacobi: (p_x,l_y,l_z,p_x): 2*i",
        *(f"[FAIL] cocycle ({mu},{delta}): {cocycle}"
          for mu in ("mu_001", "mu_100") for delta in ("delta_001", "delta_010")),
        "[FAIL] theorem hypotheses satisfied",
    ]


def test_check_lie_and_colie(capsys):
    code, out, _ = run(capsys, "check", "lie", "@corrected")
    assert code == 0 and "jacobi mu_100" in out
    code, out, _ = run(capsys, "check", "colie", "@corrected")
    assert code == 0 and "cojacobi delta_001" in out


def test_check_bialgebra_pair(capsys):
    code, out, _ = run(
        capsys, "check", "bialgebra", "mu_100", "delta_010", "@corrected"
    )
    assert code == 0
    assert "cocycle (mu_100,delta_010)" in out


def test_exit_code_1_on_defect(tmp_path, capsys):
    data = bf.load_bundled("corrected").to_dict()
    data["compositions"]["delta_001"]["entries"][0]["coeff"] = "1/2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", "four-pairs", str(bad))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("count, shown, elided", [
    (1, 1, False), (8, 8, False), (9, 8, True), (12, 8, True),
])
def test_defect_details_elide_only_what_they_leave_out(count, shown, elided):
    """A check's detail lists its first eight defects by key, then "..."
    only when a defect is left out."""
    basis = bf.Basis(tuple(f"x{k}" for k in range(count)))
    defects = {(k, k): f"v{k}" for k in reversed(range(count))}
    parts = cli._render_defects(basis, defects).split("; ")
    listed = [f"(x{k},x{k}): v{k}" for k in range(shown)]
    assert parts == listed + ["..."] * elided


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200_000],
                         ids=["not UTF-8", "nested past the decoder's depth"])
def test_a_json_file_that_cannot_be_decoded_is_an_input_error(tmp_path, capsys, content):
    """A document or --expect file that is not UTF-8, or nests deeper
    than the JSON decoder reaches, exits 2 with one error line."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for argv in (["hopf", "all", str(path)], ["specialize", str(path), "--set", "z1=0"],
                 ["tangent", "@corrected", "--direction", "h", "--expect", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1


def test_exit_code_2_on_input_error(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "check", "four-pairs", "@verbatim")
    assert code == 2
    assert "duplicate bracket key" in err
    code, _, err = run(capsys, "check", "four-pairs", "/no/such/file.json")
    assert code == 2
    # an emitted document that cannot be written: named like an unreadable
    # input, and nothing, not even family's report, goes to stdout
    for command in ("family", "specialize"):
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            code, out, err = run(capsys, command, "@corrected", "--output", str(target))
            assert code == 2 and out == "", (command, target)
            assert err.startswith(f"error: cannot write {target}: "), err
    # order and cap must be non-negative integers, from flags ...
    for flag, value in (("--order", "-1"), ("--cap", "-3")):
        code, out, err = run(
            capsys, "hopf", "jacobi", "@corrected", "--order", "6", "--cap", "12",
            flag, value,
        )
        assert code == 2 and out == ""
        assert f"{flag[2:]} must be a non-negative integer" in err
    # ... and so must all three in the document settings, which must be an object
    for settings in (
        {"order": "5"}, {"cap": True}, {"slack": 1.5}, {"slack": -2}, "order=5",
    ):
        data = bf.load_bundled("corrected").to_dict()
        data["settings"] = settings
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "check", "four-pairs", str(path))
        assert code == 2, settings
        assert err.startswith("error: ")
        for key in settings if isinstance(settings, dict) else ():
            assert f"{key} must be a non-negative integer" in err
    # ... and a settings key outside order, cap and slack is named, not
    # ignored: a misspelt order would check at the default one
    data = bf.load_bundled("corrected").to_dict()
    data["settings"] = {"ordr": 6, "cap": 12}
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "hopf", "jacobi", str(path))
    assert code == 2 and out == ""
    assert "unknown key 'ordr' in settings" in err
    # an expression nested past the parser's limit
    data = bf.load_bundled("corrected").to_dict()
    data["presentation"]["brackets"][1]["rhs"] = "(" * 3000 + "z1*p_y" + ")" * 3000
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "hopf", "jacobi", str(path))
    assert code == 2 and out == ""
    assert "nested more than" in err
    # numbers past the interpreter's digit limit: a literal the lexer
    # cannot convert, a coefficient the report cannot print, and powers
    # whose constant term would outgrow the limit, refused before they
    # are computed (each would take seconds)
    for rhs, message in (
        ("1" * 5000 + "*t*p_y", "numeric literal of 5000 digits is too long"),
        # a digit that is not decimal is no number
        ("2*²*t*p_x", "unexpected character '²'"),
        ("2^15000*t*p_y", "a coefficient has more than"),
        ("2^30000000*t*p_y", "a power would give a coefficient of more than"),
        ("((3+4*i)/5)^200000*t*p_y", "a power would give a coefficient of more than"),
        ("(2*t/t)^30000000*t*p_y", "a power would give a coefficient of more than"),
        # an inexact parameter division names its divisor
        ("(t/h)*l_x", "division by h is inexact"),
        # an expression that ends too soon names the end
        ("", "unexpected end of expression (at position 0)"),
    ):
        data = bf.load_bundled("corrected").to_dict()
        data["presentation"]["brackets"][0]["rhs"] = rhs
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "hopf", "all", str(path))
        assert code == 2 and out == "", rhs
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert "(0," not in err
    # expand bounds that are not integers or are negative, one parameter
    # in two roles and a role that is no parameter, each refused before
    # the presentation is built
    def unbuilt(self, context):
        raise AssertionError("expand built the presentation before checking its flags")

    monkeypatch.setattr(bf.Document, "build_presentation", unbuilt)
    for flags, message in (
        (["--up-to", "x,1,1"], "--up-to needs three integer exponent bounds"),
        (["--up-to=-1,2,2"], "--up-to bounds must not be negative, got '-1,2,2'"),
        (["--roles", "t,t,h"], "name one parameter twice"),
        (["--roles", "t,h,w"], "presentation lacks parameters ('t', 'h', 'w')"),
        (["--roles", "t,h"], "--roles needs three parameter names"),
    ):
        code, out, err = run(capsys, "expand", "@corrected", *flags)
        assert code == 2 and out == "", flags
        assert err.startswith("error: ") and message in err
    monkeypatch.undo()
    # a tangent base point that is not a scalar, or a nonzero value for the
    # direction itself, is refused by the rules of any other base value
    for direction, at, message in (
        ("h", "z1=w", "tangent base values must be scalars"),
        ("t", "t=z", "tangent base values must be scalars"),
        ("t", "t=1", "cannot specialize 't' to 1: a truncated series is exact only at 0"),
    ):
        code, out, err = run(capsys, "tangent", "@corrected", "--direction", direction,
                             "--at", at)
        assert code == 2 and out == "", at
        assert err.startswith("error: ") and message in err, err
    # ... and the direction at 0 is the field with no base value
    at_zero = run(capsys, "tangent", "@corrected", "--direction", "t", "--at", "t=0")
    assert at_zero == run(capsys, "tangent", "@corrected", "--direction", "t")
    assert at_zero[0] == 0
    # a nonzero value evaluates a truncated series: exact at no order
    diag = _diagonal(tmp_path, capsys)
    for argv in (["specialize", "@corrected", "--set", "z2=1"],
                 ["tangent", str(diag), "--direction", "h", "--at", "z=1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "to 1: a truncated series is exact only at 0" in err
    # a parameter given no value is named, not reported as a parse error
    for argv in (["specialize", "@corrected", "--set", "z1="],
                 ["tangent", str(diag), "--direction", "h", "--at", "z="]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: parameter {argv[-1][:-1]!r} is assigned no value\n", err
    # a parameter named twice, in one chunk or across flags
    for argv in (["specialize", "@corrected", "--set", "z1=0,z1=z2"],
                 ["specialize", "@corrected", "--set", "z1=0", "--set", "z1=0"],
                 ["tangent", "@corrected", "--direction", "h", "--at", "z1=1,z1=0"],
                 ["tangent", "@corrected", "--direction", "h", "--at", "z1=0", "--at", "z1=z2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "parameter 'z1' is assigned twice" in err
    # an image names a parameter of the emitted document, which the
    # document's identifier rule must accept
    for image, message in (("exp", "identifier 'exp' is reserved"),
                           ("p_x", "identifier 'p_x' declared twice"),
                           ("zé", "z1=zé gives no name or scalar: unexpected character 'é'")):
        code, out, err = run(capsys, "specialize", "@corrected", "--set", f"z1={image}")
        assert code == 2 and out == "", image
        assert err.startswith("error: ") and message in err, err
    # fields of the wrong JSON type, each caught when the document loads
    def entries(d):
        return d["compositions"]["mu_100"]["entries"]

    def brackets(d):
        return d["presentation"]["brackets"]

    for label, alter, message in (
        ("entry without coeff", lambda d: entries(d)[0].pop("coeff"), "malformed entry"),
        ("number coeff", lambda d: entries(d)[0].update(coeff=1), "malformed entry"),
        ("number entry", lambda d: entries(d).append(5), "malformed entry"),
        ("list composition", lambda d: d["compositions"].update(mu_100=[]),
         "composition 'mu_100' must be a JSON object"),
        ("number rhs", lambda d: brackets(d)[0].update(rhs=2), "must be a string"),
        ("number bracket item", lambda d: brackets(d).append(3),
         "presentation.brackets item must be a JSON object"),
        ("number coproduct", lambda d: d["presentation"]["coproducts"].update(p_x=1),
         "coproduct of 'p_x' must be a string"),
        ("number counit", lambda d: d["presentation"]["counit"].update(p_x=0),
         "counit of 'p_x' must be a string"),
        ("list presentation", lambda d: d.update(presentation=[]),
         "presentation must be a JSON object"),
        ("number generators", lambda d: d.update(generators=[1, 2]),
         "generators item must be a string"),
        ("string parameters", lambda d: d.update(parameters="tz"),
         "parameters must be a JSON list"),
        # a key outside its level's keys is named at every level, not
        # ignored: each of these loaded, and checked, at the defaults
        ("misspelt entries", lambda d: d["compositions"]["mu_100"].update(
            entires=d["compositions"]["mu_100"].pop("entries")),
         "unknown key 'entires' in composition 'mu_100'; expected one of kind, entries"),
        ("misspelt counit", lambda d: d["presentation"].update(
            counits=d["presentation"].pop("counit")),
         "unknown key 'counits' in presentation; expected one of brackets, coproducts, "
         "counit"),
        ("top-level note", lambda d: d.update(note="a note"),
         "unknown key 'note' in document; expected one of schema, parameters, "
         "generators, compositions, presentation, settings, notes"),
        ("second rhs", lambda d: brackets(d)[0].update(rhs2="0"),
         "unknown key 'rhs2' in presentation.brackets item; expected one of left, "
         "right, rhs"),
        ("entry with coef", lambda d: entries(d)[0].update(coef="1"), "malformed entry"),
    ):
        data = bf.load_bundled("corrected").to_dict()
        alter(data)
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(data))
        for argv in (["check", "four-pairs", str(path)], ["hopf", "counit", str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", (label, argv)
            assert err.startswith("error: ") and message in err, (label, err)
    # a malformed tangent expectation file
    for label, body, message in (
        ("top-level list", [], "must be a JSON object"),
        ("entry without left", {"mu": [{"right": "l_y", "value": "t*l_z"}]},
         "mu entry must have string"),
        ("unknown generator", {"mu": [{"left": "q", "right": "l_y", "value": "t"}]},
         "unknown generator 'q'"),
        ("integer value", {"delta": [{"generator": "l_x", "value": 1}]},
         "delta entry must have string"),
        # an entry that is a bare string, not an object
        ("bare-string mu entry", {"mu": ["t*l_z"]},
         "mu entry must have string left, right and value: 't*l_z'"),
        ("bare-string delta entry", {"delta": ["l_x (x) 1"]},
         "delta entry must have string generator and value: 'l_x (x) 1'"),
        ("unknown mode", {"mode": "loose"}, "unknown comparison mode 'loose'"),
        ("misspelt mode key", {"Mode": "exact", "mu": []},
         "unknown key 'Mode' in expectation"),
        ("cube delta value", {"delta": [{"generator": "l_x", "value": "l_x (x) 1 (x) 1"}]},
         "tensor products beyond a square are not supported (at position 10)"),
        ("tensor mu value", {"mu": [{"left": "l_x", "right": "l_y", "value": "l_x (x) 1"}]},
         "mu(l_x,l_y) given a tensor expression"),
        # an entry key the schema does not name, beside a matching field
        ("mode in an entry", _h_field_entry("mu", mode="exact"),
         "unknown key 'mode' in expectation mu entry; expected one of left, right, value"),
        ("misspelt value key", _h_field_entry("delta", vaule="0"),
         "unknown key 'vaule' in expectation delta entry; expected one of generator, value"),
    ):
        path = tmp_path / "expect.json"
        path.write_text(json.dumps(body))
        code, out, err = run(capsys, "tangent", str(diag), "--direction", "h",
                             "--expect", str(path))
        assert code == 2 and out == "", label
        assert err.startswith("error: ") and message in err, (label, err)
    # the unknown-entry-key rows' fixture, unaltered, passes
    path.write_text(json.dumps(_h_field_entry("mu")))
    code, out, _ = run(capsys, "tangent", str(diag), "--direction", "h", "--expect", str(path))
    assert code == 0 and "[pass] field matches expectation" in out


def _h_field_entry(kind, **extra):
    """The h-field expectation, which the diagonal's h field matches,
    with extra keys in its first kind entry."""
    body = copy.deepcopy(bf.load_tangent_fixtures()["h-field"])
    body[kind][0].update(extra)
    return body


def test_huge_power_of_a_vanishing_term(tmp_path, capsys):
    # (t*p_y)^n is zero past the order, so [p_x,p_y] stays 0 for any n
    data = bf.load_bundled("corrected").to_dict()
    data["presentation"]["brackets"][0]["rhs"] = "(t*p_y)^100000000"
    path = tmp_path / "power.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "hopf", "all", str(path))
    _, expected, _ = run(capsys, "hopf", "all", "@corrected")
    assert code == 0 and out == expected


def test_huge_powers_of_units_and_roots_of_unity(tmp_path, capsys):
    # a constant term 1, -1 or i never grows, so these powers are computed
    # and read exactly like the series they stand for
    n = 10 ** 9
    binomial = "+".join(f"{math.comb(n, k)}*t^{k + 1}*p_y" for k in range(5))
    for rhs, same in (
        (f"(1+t)^{n}*t*p_y", binomial),
        (f"i^{n + 1}*t*p_y", "i*t*p_y"),
        (f"(-1)^{n + 1}*t*p_y", "-t*p_y"),
    ):
        reports = []
        for text in (rhs, same):
            data = bf.load_bundled("corrected").to_dict()
            data["presentation"]["brackets"][0]["rhs"] = text
            path = tmp_path / "power.json"
            path.write_text(json.dumps(data))
            reports.append(run(capsys, "hopf", "jacobi", str(path)))
        assert reports[0] == reports[1], rhs
        assert reports[0][0] == 1 and reports[0][2] == "", rhs


def test_huge_power_of_a_unit_plus_words(tmp_path, capsys):
    # (1+t*p_x)^n is its binomial series: only the terms up to t^4 survive
    # the order and the word cap, so the power costs a few products, not n
    n = 100000
    binomial = "+".join(f"{math.comb(n, k)}*t^{k + 1}*p_x^{k}*p_y" for k in range(5))
    reports = []
    for text in (f"(1+t*p_x)^{n}*t*p_y", binomial):
        data = bf.load_bundled("corrected").to_dict()
        data["presentation"]["brackets"][0]["rhs"] = text
        path = tmp_path / "power.json"
        path.write_text(json.dumps(data))
        reports.append(run(capsys, "hopf", "jacobi", str(path)))
    assert reports[0] == reports[1]
    assert reports[0][0] == 1 and reports[0][2] == ""


def test_hopf_all_needs_no_cap_at_any_order(tmp_path, capsys):
    """With no --cap the build derives the word bound: order 10 reports
    the presentation-Jacobi FAIL, orders 8, 12 and 16 print the reports
    pinned with --cap 16, 24 and 32 but for their settings line, and
    twisted gl_4 passes at order 5."""
    code, out, err = run(capsys, "hopf", "all", "@corrected", "--order", "10")
    assert code == 1 and err == "" and "[FAIL] presentation-jacobi" in out
    for order, setting in ((8, "o8c16"), (12, "o12c24"), (16, "o16c32")):
        golden = json.loads((GOLDEN / f"hopf-all.{setting}.text.json").read_text())
        code, out, err = run(capsys, "hopf", "all", "@corrected", "--order", str(order))
        assert (code, err) == (golden["exit"], golden["stderr"]), order
        head, settings, *rest = out.splitlines()
        want_head, want_settings, *want_rest = golden["stdout"].splitlines()
        assert (head, rest) == (want_head, want_rest), order
        assert want_settings == settings.replace("order=", f"cap={2 * order}, order=")
    r4 = {(0, 1): 1, (0, 2): bf.Scalar(-2, 1), (1, 2): "1/2", (0, 3): 2, (1, 3): -1,
          (2, 3): bf.Scalar(0, 1)}
    path = tmp_path / "gl4.json"
    path.write_text(json.dumps(twist.twisted_gln(4, r4)))
    code, out, err = run(capsys, "hopf", "all", str(path), "--order", "5")
    assert code == 0 and err == "" and "settings: order=5, parameters=t,h, slack=2" in out


def test_json_format_parses_and_reports(capsys):
    code, out, _ = run(
        capsys, "check", "four-pairs", "@corrected", "--format", "json"
    )
    assert code == 0
    body = json.loads(out)
    assert body["pass"] is True
    assert any(c["check"] == "theorem hypotheses satisfied" for c in body["checks"])


def test_reports_are_deterministic(capsys):
    _, out1, _ = run(capsys, "hopf", "jacobi", "hom", "@corrected", "--order", "3")
    _, out2, _ = run(capsys, "hopf", "jacobi", "hom", "@corrected", "--order", "3")
    assert out1 == out2


def test_hopf_all_passes_at_low_order(capsys):
    code, out, _ = run(capsys, "hopf", "all", "@corrected", "--order", "3")
    assert code == 0
    for name in ("presentation-jacobi", "coproduct-hom", "coassociativity",
                 "counit", "antipode", "class-f"):
        assert name in out


def test_family_emits_reloadable_document(tmp_path, capsys):
    out_path = tmp_path / "family.json"
    code, out, _ = run(capsys, "family", "@corrected", "--output", str(out_path))
    assert code == 0
    emitted = bf.Document.load(out_path)
    ctx = emitted.make_context()
    mu = emitted.composition_tensor("mu_family", ctx)
    idx = ctx.basis.index
    z1 = ctx.param_poly("z1")
    from bialgebra_forge.scalars import I
    assert mu.value(idx["p_z"], idx["p_x"], idx["p_y"]) == z1.scale(I)


def test_specialize_then_reload_round_trip(tmp_path, capsys):
    out_path = tmp_path / "diag.json"
    code, _, _ = run(
        capsys, "specialize", "@corrected", "--set", "z1=z,z2=z",
        "--output", str(out_path),
    )
    assert code == 0
    emitted = bf.Document.load(out_path)
    assert emitted.parameters == ["t", "h", "z"]
    H = emitted.build_presentation(emitted.make_context())
    code, out, _ = run(capsys, "expand", str(out_path), "--order", "4")
    assert code == 0
    assert "order-2" in out and "order-3-thz" in out


def test_specialize_identity_assignment_is_stable(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run(capsys, "specialize", "@corrected", "--output", str(first))
    run(capsys, "specialize", str(first), "--output", str(second))
    assert first.read_text() == second.read_text()


def test_tangent_against_bundled_fixture(tmp_path, capsys):
    diag = tmp_path / "diag.json"
    run(capsys, "specialize", "@corrected", "--set", "z1=z,z2=z",
        "--output", str(diag))
    code, out, _ = run(
        capsys, "tangent", str(diag), "--direction", "h",
        "--at", "z=0", "--expect", "@h-field-at-z0",
    )
    assert code == 0
    assert "field matches expectation" in out


def test_tangent_expectation_failure_names_each_entry(tmp_path, capsys):
    """A failed comparison exits 1 and names the entry: a leading-mode
    value that differs from the field's, and in exact mode a nonzero
    field entry that the expectation does not list."""
    diag = _diagonal(tmp_path, capsys)
    path = tmp_path / "expect.json"
    for body, detail in (
        ({"mu": [{"left": "p_x", "right": "l_x", "value": "t*p_x"}]},
         "[FAIL] field matches expectation (leading): "
         "mu(p_x,l_x): actual 0 != expected t*p_x\n"),
        ({"mode": "exact", "mu": [], "delta": []},
         "[FAIL] field matches expectation (exact): "
         "extra delta(l_x): -i*l_y (x) l_z+i*l_z (x) l_y\n"),
    ):
        path.write_text(json.dumps(body))
        code, out, err = run(capsys, "tangent", str(diag), "--direction", "h",
                             "--at", "z=0", "--expect", str(path))
        assert code == 1 and err == "", body
        assert detail in out and out.endswith("result: FAIL\n"), out


def test_tangent_unknown_fixture_is_input_error(capsys):
    code, _, err = run(
        capsys, "tangent", "@corrected", "--direction", "h",
        "--expect", "@missing-case",
    )
    assert code == 2
    assert "available" in err


def test_usage_error_exit_code(capsys):
    assert main(["check"]) == 2
    assert main(["no-such-command"]) == 2
    # precision is not a user setting: the slack flag does not exist
    assert main(["hopf", "hom", "@corrected", "--slack", "2"]) == 2


def test_exit_code_3_on_internal_error(monkeypatch, capsys):
    def broken(args):
        raise ZeroDivisionError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_hopf", broken)
    code, out, err = run(capsys, "hopf", "all", "@corrected")
    assert code == 3 and out == ""
    assert err == "internal error: ZeroDivisionError: boom second line\n"


def _with_slack(tmp_path, slack):
    data = bf.load_bundled("corrected").to_dict()
    data["settings"]["slack"] = slack
    path = tmp_path / f"slack{slack}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_verdicts_do_not_depend_on_slack(tmp_path, capsys):
    """t/(z2*h) costs two degrees of exactness, more than a slack of 0 or
    1 carries; the verdicts and the defects, which are printed at the
    reporting order, must still be those of the default slack 2."""
    def check_lines(out):
        return [line for line in out.splitlines() if line.startswith("[")]

    def defects(out):
        # (check, verdict, detail without the echoed location)
        return [(c["check"], c["pass"], c["detail"].partition(" [")[0])
                for c in json.loads(out)["checks"]]

    code, want5, _ = run(capsys, "hopf", "all", "@corrected")
    assert code == 0
    order8 = ["--order", "8", "--cap", "16", "--format", "json"]
    code, want8, _ = run(capsys, "hopf", "all", "@corrected", *order8)
    assert code == 1
    assert sum(not c["pass"] for c in json.loads(want8)["checks"]) > 0
    for slack in (0, 1):
        path = _with_slack(tmp_path, slack)
        code, out, _ = run(capsys, "hopf", "all", path)
        assert code == 0, slack
        assert check_lines(out) == check_lines(want5)
        code, out, _ = run(capsys, "hopf", "all", path, *order8)
        assert code == 1, slack
        assert defects(out) == defects(want8)


def _diagonal(tmp_path, capsys):
    diag = tmp_path / "diag.json"
    run(capsys, "specialize", "@corrected", "--set", "z1=z,z2=z",
        "--output", str(diag))
    return diag


def _tangent_expectation(out):
    """An exact-mode expectation holding every entry of a printed field."""
    body = {"mode": "exact", "mu": [], "delta": []}
    for note in json.loads(out)["notes"]:
        label, value = note.split(" = ", 1)
        kind, names = label.rstrip(")").split("(")
        if kind == "mu":
            left, right = names.split(",")
            body["mu"].append({"left": left, "right": right, "value": value})
        else:
            body["delta"].append({"generator": names, "value": value})
    return body


def test_tangent_verdict_does_not_depend_on_slack(tmp_path, capsys):
    """A field is the first-power coefficient of its direction, exact
    through order - 1 only: h*t^5 has degree 6, above the order, so it
    contributes nothing at any slack, and both documents match the field
    printed at slack 0."""
    diag = _diagonal(tmp_path, capsys)
    data = json.loads(diag.read_text())
    for item in data["presentation"]["brackets"]:
        if (item["left"], item["right"]) == ("l_y", "l_x"):
            item["rhs"] = "t*l_y+h*t^5*l_y"
    paths = {}
    for slack in (0, 2):
        data["settings"]["slack"] = slack
        paths[slack] = tmp_path / f"slack{slack}.json"
        paths[slack].write_text(json.dumps(data))
    code, out, _ = run(capsys, "tangent", str(paths[0]), "--direction", "h",
                       "--format", "json")
    assert code == 0
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps(_tangent_expectation(out)))
    for slack in (0, 2):
        code, out, _ = run(capsys, "tangent", str(paths[slack]), "--direction", "h",
                           "--expect", str(expect))
        assert code == 0, (slack, out)
        assert "[pass] field matches expectation (exact)" in out
        assert "note: mu(l_x,l_y) = -t^5*l_y" not in out


def test_check_lie_verdict_does_not_depend_on_slack(tmp_path, capsys):
    """The Jacobi defect of [a,b] = t^3*b, [b,c] = t^3*a is t^6: above
    order 5 at every slack, and a FAIL at order 6."""
    data = {
        "schema": "bialgebra-forge/1", "parameters": ["t"],
        "generators": ["a", "b", "c"],
        "compositions": {"mu": {"kind": "bracket", "entries": [
            {"lower": ["a", "b"], "upper": "b", "coeff": "t^3"},
            {"lower": ["b", "c"], "upper": "a", "coeff": "t^3"},
        ]}},
    }
    for slack in (0, 1, 2):
        data["settings"] = {"order": 5, "slack": slack}
        path = tmp_path / f"lie{slack}.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", "lie", str(path))
        assert code == 0 and "[pass] jacobi mu" in out, (slack, out)
        code, out, _ = run(capsys, "check", "lie", str(path), "--order", "6")
        assert code == 1 and "[FAIL] jacobi mu: (a,b,c,a): t^6" in out, (slack, out)


def test_reports_do_not_depend_on_slack(tmp_path, capsys):
    """Slack is only the parser's first-pass headroom: at slack 0 and 2
    every line but the settings echo is the same, FAIL values and the
    locations they echo included."""
    altered = bf.load_bundled("corrected").to_dict()
    coproducts = altered["presentation"]["coproducts"]
    coproducts["p_y"] = coproducts["p_y"].replace("exp(-(z2/2)*p_x)", "cosh((z2/2)*p_x)")
    corrected = bf.load_bundled("corrected").to_dict()
    for doc, checks, flags in ((altered, ["hom", "coassoc"], []),
                               (corrected, ["all"], ["--order", "8", "--cap", "16"])):
        outs = []
        for slack in (0, 2):
            doc["settings"]["slack"] = slack
            path = tmp_path / f"slack{slack}.json"
            path.write_text(json.dumps(doc))
            code, out, _ = run(capsys, "hopf", *checks, str(path), *flags)
            assert code == 1, (checks, slack)
            outs.append(out.splitlines())
        changed = [(a, b) for a, b in zip(*outs) if a != b]
        assert len(outs[0]) == len(outs[1]) and len(changed) == 1, checks
        assert all(line.startswith("settings: ") for line in changed[0])


def test_expand_verdict_does_not_depend_on_slack(tmp_path, capsys):
    """A t*h coproduct term breaks the thz identity. At order 1 it lies
    above the order, where slack decides whether it is carried at all;
    the identity needs it, so expand refuses (exit 2) at any slack."""
    diag = _diagonal(tmp_path, capsys)
    data = json.loads(diag.read_text())
    data["presentation"]["coproducts"]["p_y"] += " + t*h*l_y (x) l_z"
    for slack in (0, 2):
        data["settings"]["slack"] = slack
        path = tmp_path / f"slack{slack}.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "expand", str(path), "--order", "1")
        assert code == 2 and out == "", (slack, out)
        assert "(1, 1, 0) lies above order 1" in err
    code, out, _ = run(capsys, "expand", str(path), "--order", "2")
    assert code == 1 and "[FAIL] order-3-thz" in out


def test_tangent_expectation_at_order_0_is_input_error(tmp_path, capsys):
    diag = _diagonal(tmp_path, capsys)
    code, out, err = run(capsys, "tangent", str(diag), "--direction", "h",
                         "--at", "z=0", "--expect", "@h-field-at-z0", "--order", "0")
    assert code == 2 and out == ""
    assert "exact through order - 1" in err


def test_tangent_mode_flag_is_gone(tmp_path, capsys):
    # the expectation names its mode; a flag could only loosen it
    diag = _diagonal(tmp_path, capsys)
    for mode in ("leading", "exact"):
        code, out, _ = run(capsys, "tangent", str(diag), "--direction", "h",
                           "--at", "z=0", "--expect", "@h-field-at-z0",
                           "--mode", mode)
        assert code == 2 and out == ""


def test_hopf_runs_each_check_once_in_first_requested_order(capsys):
    # class-f reads the antipode, which it solves first; that antipode
    # counts as requested
    for checks, want in (
        (["class-f", "antipode"], ["antipode", "class-f"]),
        (["antipode", "class-f", "class-f"], ["antipode", "class-f"]),
        (["hom", "hom"], ["coproduct-hom"]),
        (["counit", "all", "counit"], ["counit", "presentation-jacobi", "coproduct-hom",
                                       "coassociativity", "antipode", "class-f"]),
    ):
        code, out, _ = run(capsys, "hopf", *checks, "@corrected", "--format", "json")
        assert code == 0, checks
        assert [c["check"] for c in json.loads(out)["checks"]] == want, checks
    code, out, err = run(capsys, "hopf", "counit", "bogus", "all", "@corrected")
    assert code == 2 and out == "" and err == "error: unknown hopf check 'bogus'\n"


def _bracket_rhs(rhs, **settings):
    """A change of a document: its first bracket's rhs, and settings."""
    def alter(data):
        data["presentation"]["brackets"][0]["rhs"] = rhs
        data["settings"].update(settings)
    return alter


# a document, each made hostile in one way
_HOSTILE = {
    "cube coproduct": lambda d: d["presentation"]["coproducts"].update(
        p_x="p_x (x) 1 (x) 1 + 1 (x) p_x (x) 1"),
    "non-tensor coproduct": lambda d: d["presentation"]["coproducts"].update(p_x="p_x"),
    "tensor bracket rhs": _bracket_rhs("p_x (x) p_y"),
    "1 (x) 1 coproduct term": lambda d: d["presentation"]["coproducts"].update(
        p_x=d["presentation"]["coproducts"]["p_x"] + " + 1 (x) 1"),
    "undeclared counit key": lambda d: d["presentation"]["counit"].update(q="0"),
    # values past the parser's limits, refused before they are formed: a
    # power past the word-length limit, and powers, a series and a tensor
    # join past the term limit, which neither the order nor the slack
    # widens; before the term limit the slack-40 power, the 6-term power
    # and the series each ran out of memory
    "long power bracket rhs": _bracket_rhs("t*p_x^200"),
    "long sum power bracket rhs": _bracket_rhs("t*(p_x+p_y)^40"),
    "divided power bracket rhs": _bracket_rhs("t*(t*p_x+t*p_y)^30/t^30"),
    "sum power at slack 40": _bracket_rhs("t*(p_x+p_y)^40", slack=40),
    "6-term power bracket rhs": _bracket_rhs("t*(p_x+p_y+p_z+l_x+l_y+l_z)^9"),
    "6-term series at order 12": _bracket_rhs("t*exp(t*(p_x+p_y+p_z+l_x+l_y+l_z))",
                                              order=12),
    "long tensor join": lambda d: d["presentation"]["coproducts"].update(
        p_x=d["presentation"]["coproducts"]["p_x"] + " + t*(p_x+p_y)^10 (x) (p_x+p_y)^10"),
    # a word-length limit that a document's cap sets
    "power past the cap": _bracket_rhs("t*p_x^12", cap=7),
}


def test_hostile_presentations_are_input_errors(tmp_path, capsys):
    """Every command that reads a presentation exits 2 with one error
    line and no report; check four-pairs does not parse the presentation
    but still refuses a counit key that names no generator."""
    documents = {"@corrected": bf.load_bundled("corrected").to_dict(),
                 "diagonal": json.loads(_diagonal(tmp_path, capsys).read_text())}
    commands = [
        ("@corrected", ["hopf", "all"]),
        ("@corrected", ["hopf", "counit"]),
        ("@corrected", ["specialize", "--set", "z1=0"]),
        ("diagonal", ["expand"]),
        ("diagonal", ["tangent", "--direction", "h"]),
    ]
    for label, alter in _HOSTILE.items():
        extra = [("@corrected", ["check", "four-pairs"])] if "counit" in label else []
        for source, argv in commands + extra:
            data = json.loads(json.dumps(documents[source]))
            alter(data)
            path = tmp_path / "hostile.json"
            path.write_text(json.dumps(data))
            code, out, err = run(capsys, *argv, str(path))
            assert code == 2 and out == "", (label, argv, code)
            assert err.startswith("error: ") and err.count("\n") == 1, (label, argv, err)
            assert "MemoryError" not in err, (label, argv)


def test_a_presentation_that_gains_many_letters_per_degree_needs_no_cap(tmp_path, capsys):
    """A bracket rhs t*p_x^12 gains 10 letters at one degree: its build
    derives the word bound 53, under the limit 64, so hopf all runs with
    no --cap and reports what --cap 64 reports; a cap below the power's
    12 letters refuses it."""
    data = bf.load_bundled("corrected").to_dict()
    _bracket_rhs("t*p_x^12")(data)
    path = tmp_path / "gains.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "hopf", "all", str(path))
    assert code == 1 and err == "" and "[FAIL] presentation-jacobi" in out
    capped = run(capsys, "hopf", "all", str(path), "--cap", "64")
    assert capped == (1, out.replace("settings: ", "settings: cap=64, "), "")
    code, out, err = run(capsys, "hopf", "all", str(path), "--cap", "7")
    assert code == 2 and out == ""
    assert err == ("error: 'p_x^12' can form words of 12 letters, past the "
                   "word-length limit 7\n")


def test_document_antipode_is_rejected(tmp_path, capsys):
    data = bf.load_bundled("corrected").to_dict()
    data["presentation"]["antipode"] = {"p_x": "-p_x"}
    path = tmp_path / "antipode.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "hopf", "all", str(path))
    assert code == 2 and out == ""
    assert err == ("error: presentation.antipode is not read: the antipode is "
                   "solved from the coproduct\n")


def _with_counit(tmp_path, text):
    data = bf.load_bundled("corrected").to_dict()
    data["presentation"]["counit"]["p_x"] = text
    path = tmp_path / "counit.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_counit_with_a_parameter_term_is_input_error(tmp_path, capsys):
    # read as its constant term, t would pass and 1+t report a defect of 1
    for text in ("t", "1+t"):
        code, out, err = run(capsys, "hopf", "counit", _with_counit(tmp_path, text))
        assert code == 2 and out == "", text
        assert err.startswith("error: counit of p_x has a parameter term"), err
    # a zero scaled by a unit series, as a rescaled document writes it, is 0
    code, out, _ = run(capsys, "hopf", "counit",
                       _with_counit(tmp_path, "(1/2*(1-t+t^2))*(0)"))
    assert code == 0 and "[pass] counit: 12 checked" in out


def test_output_is_only_for_commands_that_emit_a_document(tmp_path, capsys):
    diag = str(_diagonal(tmp_path, capsys))
    target = tmp_path / "x.json"
    for argv in (
        ["check", "lie", "@corrected"],
        ["hopf", "counit", "@corrected"],
        ["expand", diag],
        ["tangent", diag, "--direction", "h"],
    ):
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert code == 2 and out == "", argv
    assert not target.exists()


def test_later_calls_reuse_the_argument_tree(capsys, monkeypatch):
    """The argument tree is built once per process: after a first call,
    `main` constructs no ArgumentParser."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *a, **kw):
        built.append(kw.get("prog"))
        init(self, *a, **kw)

    run(capsys, "check", "colie", "@corrected")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argparse.ArgumentParser(prog="probe")
    assert built == ["probe"]
    for argv in (["check", "colie", "@corrected"], ["specialize", "@corrected"],
                 ["hopf", "--help"], ["nope"]):
        run(capsys, *argv)
    assert built == ["probe"]


def test_assignments_do_not_carry_into_the_next_call(capsys):
    """--set and --at append to fresh lists on each call: each report of a
    pair of calls equals the one it gives when run first."""
    for first, second in (
        (["specialize", "@corrected", "--set", "z1=0"],
         ["specialize", "@corrected", "--set", "z2=0"]),
        (["tangent", "@corrected", "--direction", "h", "--at", "z1=0"],
         ["tangent", "@corrected", "--direction", "h", "--at", "z2=0"]),
    ):
        a_first, b_second = run(capsys, *first), run(capsys, *second)
        b_first, a_second = run(capsys, *second), run(capsys, *first)
        assert a_first == a_second and b_first == b_second
        assert a_first[0] == 0 and a_first != b_first


def test_usage_errors_and_help_leave_the_next_report_unchanged(capsys):
    argv = ["check", "four-pairs", "@corrected", "--format", "json"]
    before = run(capsys, *argv)
    for bad, code in ((["check", "nope", "@corrected"], 2), (["hopf", "--order"], 2),
                      (["--help"], 0), (["tangent", "--help"], 0)):
        assert run(capsys, *bad)[0] == code, bad
    assert run(capsys, *argv) == before and before[0] == 0


def test_main_runs_the_command_function_of_the_module_at_call_time(capsys, monkeypatch):
    """A cmd_* replaced after the tree was built (as a tracer does while it
    is installed) is the one called, and the original again once restored."""
    run(capsys, "check", "lie", "@corrected")
    seen = []

    def replacement(args):
        seen.append(args.which)
        return 7

    monkeypatch.setattr(cli, "cmd_check", replacement)
    assert run(capsys, "check", "lie", "@corrected") == (7, "", "")
    assert seen == ["lie"]
    monkeypatch.undo()
    code, out, _ = run(capsys, "check", "lie", "@corrected")
    assert code == 0 and "jacobi mu_100" in out and seen == ["lie"]


def test_composition_of_the_wrong_kind_is_input_error(capsys):
    # read unchecked, a cobracket in a bracket role passes `check lie`
    # and a bracket in a cobracket role is an internal error
    for argv, name, kind in (
        (["check", "colie", "mu_100"], "mu_100", "cobracket"),
        (["check", "lie", "delta_010"], "delta_010", "bracket"),
        (["check", "bialgebra", "delta_010", "mu_100"], "delta_010", "bracket"),
        (["check", "four-pairs", "delta_010", "mu_001", "delta_010", "delta_001"],
         "delta_010", "bracket"),
        (["family", "mu_100", "mu_001", "mu_100", "delta_001"], "mu_100", "cobracket"),
    ):
        code, out, err = run(capsys, *argv, "@corrected")
        assert code == 2 and out == "", argv
        assert f"composition {name!r} is a" in err and f"expected a {kind}" in err, err


def test_family_needs_four_compositions(capsys):
    for names in (["mu_100"], ["mu_100", "mu_001", "delta_010"],
                  ["mu_100", "mu_001", "delta_010", "delta_001", "mu_100"]):
        code, out, err = run(capsys, "family", *names, "@corrected")
        assert code == 2 and out == "", names
        assert err.startswith("error: family needs 4 composition names"), err
    code, _, err = run(capsys, "check", "bialgebra", "mu_100", "@corrected")
    assert code == 2 and "check bialgebra needs 2 composition names" in err


def test_check_without_compositions_of_the_kind_is_input_error(tmp_path, capsys):
    # zero checks would print result: PASS
    diag = str(_diagonal(tmp_path, capsys))
    for which, kind in (("lie", "bracket"), ("colie", "cobracket")):
        code, out, err = run(capsys, "check", which, diag)
        assert code == 2 and out == "", which
        assert f"the document has no {kind} composition" in err, err


def test_expand_exclusion_failure_names_the_entries(tmp_path, capsys):
    data = json.loads(_diagonal(tmp_path, capsys).read_text())
    presentation = data["presentation"]
    for bracket in presentation["brackets"]:
        if (bracket["left"], bracket["right"]) == ("p_z", "p_x"):
            bracket["rhs"] += " + h*l_x"
    presentation["coproducts"]["p_x"] += " + t*l_x (x) l_y"
    path = tmp_path / "excluded.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "expand", str(path))
    assert code == 1
    assert ("[FAIL] expansion exclusions: delta_100: p_x->1/2*l_x^l_y; "
            "mu_010: (p_x,p_z)->-1*l_x\n") in out


def test_expand_bounds_choose_only_the_printed_coefficients(capsys):
    """The order-2 and order-3 checks read every role monomial through the
    order, so a bound of 0 is no error and the verdicts at any --up-to
    are those at the default; only the printed notes differ."""
    def verdicts(out):
        return [line for line in out.splitlines() if not line.startswith("note: mu_")
                and not line.startswith("note: delta_")]

    code, full, err = run(capsys, "expand", "@corrected", "--roles", "t,h,z1")
    assert (code, err) == (0, "")
    for bounds in ("0,2,2", "1,0,1", "0,0,0"):
        got = run(capsys, "expand", "@corrected", "--roles", "t,h,z1", "--up-to", bounds)
        assert (got[0], got[2]) == (0, ""), bounds
        assert verdicts(got[1]) == verdicts(full), bounds
    assert "note: mu_" in full and "note: mu_" not in got[1]


def test_expand_exclusions_do_not_depend_on_the_bounds(tmp_path, capsys):
    """A bracket coefficient at h^3 fails the exclusions at every --up-to:
    the bounds choose the printed coefficients, not the ones judged."""
    data = json.loads(_diagonal(tmp_path, capsys).read_text())
    for bracket in data["presentation"]["brackets"]:
        if (bracket["left"], bracket["right"]) == ("l_y", "l_x"):
            bracket["rhs"] += " + h^3*l_z"
    path = tmp_path / "pure-h.json"
    path.write_text(json.dumps(data))
    for bounds in ("1,1,1", "2,2,2", "3,3,3"):
        code, out, _ = run(capsys, "expand", str(path), "--up-to", bounds)
        assert code == 1, bounds
        assert "[FAIL] expansion exclusions: mu_030: (l_x,l_y)->-1*l_z\n" in out, bounds
        assert ("note: mu_030: " in out) == (bounds == "3,3,3"), bounds


_ROLE_NAMES = ["mu_100", "mu_001", "delta_010", "delta_001", "no_such"]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    command=st.sampled_from([["check", "lie"], ["check", "colie"], ["check", "bialgebra"],
                             ["check", "four-pairs"], ["family"]]),
    names=st.lists(st.sampled_from(_ROLE_NAMES), max_size=5),
)
def test_composition_arguments_never_fault(command, names):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, *names, "@corrected"])
    assert code in (0, 1, 2), (command, names, err.getvalue())
    assert "internal error" not in err.getvalue()
