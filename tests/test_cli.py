import json
import math

import bialgebra_forge as bf
from bialgebra_forge import cli
from bialgebra_forge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_four_pairs_passes(capsys):
    code, out, err = run(capsys, "check", "four-pairs", "@corrected")
    assert code == 0
    assert "theorem hypotheses satisfied" in out
    assert "result: PASS" in out


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


def test_exit_code_2_on_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "check", "four-pairs", "@verbatim")
    assert code == 2
    assert "duplicate bracket key" in err
    code, _, err = run(capsys, "check", "four-pairs", "/no/such/file.json")
    assert code == 2
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
    # expand bounds that are not integers, and one parameter in two roles
    for flag, value, message in (
        ("--up-to", "x,1,1", "--up-to needs three integer exponent bounds"),
        ("--roles", "t,t,h", "name one parameter twice"),
    ):
        code, out, err = run(capsys, "expand", "@corrected", flag, value)
        assert code == 2 and out == "", (flag, value)
        assert err.startswith("error: ") and message in err
    # a tangent base point that is not a scalar
    code, out, err = run(capsys, "tangent", "@corrected", "--direction", "h",
                         "--at", "z1=w")
    assert code == 2 and out == ""
    assert "tangent base values must be scalars" in err
    # a nonzero value evaluates a truncated series: exact at no order
    diag = _diagonal(tmp_path, capsys)
    for argv in (["specialize", "@corrected", "--set", "z2=1"],
                 ["tangent", str(diag), "--direction", "h", "--at", "z=1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "to 1: a truncated series is exact only at 0" in err
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
    ):
        path = tmp_path / "expect.json"
        path.write_text(json.dumps(body))
        code, out, err = run(capsys, "tangent", str(diag), "--direction", "h",
                             "--expect", str(path))
        assert code == 2 and out == "", label
        assert err.startswith("error: ") and message in err, (label, err)


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
