"""Golden CLI outputs: exit code, stdout and stderr pinned byte for byte.

Every case runs in process through `bialgebra_forge.cli.main`, in text
and JSON format, at order 5 and at order 6 with cap 12 (where `hopf all`
reports the known presentation-Jacobi FAIL). `hopf all` also runs at
order 8 with cap 16, at order 12 with cap 24 and at order 16 with cap 32:
past order 5 the bracket table is not confluent, so normal forms there
depend on the order in which products are normalised, and only these
depths pin that order; orders 12 and 16 also carry the deepest rationals
(factorial denominators), and order 16 is where most rewriting branches
end below the order. Cases that need a document
on disk (the z1=z2=z diagonal, a copy of @corrected with one altered
coproduct coefficient, a copy of the diagonal whose altered coproducts
break the order-2 and order-3 expansion identities, and a copy of
@corrected whose compositions gain entries that fail the antisymmetry,
Jacobi and cocycle checks, a copy whose added entries fail both mixed
checks, a copy whose one added delta_010 entry fails co-Jacobi, and a
copy of the wide document with one coproduct coefficient altered) write
it to a scratch directory first; no path appears in any pinned output.
The wide document, tests/data/wide.json, is the tensor product of two
rescaled copies of @corrected (perfbench/widegen.py, seed 1), written out
once, so its coefficients are multi-term Gaussian rationals.

The expected outputs are the files under tests/golden/, one JSON object
{"exit", "stdout", "stderr"} per case. The exactness check is

    PYTHONPATH=src python -m pytest tests/test_golden.py

which compares every case with its file and writes nothing. After a
deliberate change to the reports, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

which rewrites every changed file, lists each case whose output changed
and says whether its exit code or any verdict moved, or only checks were
added, and exits 1 when any moved; then review the diff.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

import bialgebra_forge as bf
from bialgebra_forge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
WIDE = Path(__file__).resolve().parent / "data" / "wide.json"

SETTINGS = {
    "o5": ["--order", "5"],
    "o6c12": ["--order", "6", "--cap", "12"],
    "o8c16": ["--order", "8", "--cap", "16"],
    "o12c24": ["--order", "12", "--cap", "24"],
    "o16c32": ["--order", "16", "--cap", "32"],
}
GRID = ("o5", "o6c12")   # settings every case runs at
ORDER = {"o5": 5, "o6c12": 6, "o8c16": 8, "o12c24": 12, "o16c32": 16}
FORMATS = ("text", "json")
FIXTURES = ("h-field-at-z0", "t-field-at-z0", "h-field", "t-field")
DIAGONAL = "z1=z,z2=z"

# Composition entries added to @corrected for the gate document: both
# orientations listed consistently (mu_001), a key whose duplicates sum to
# zero next to its listed flip, a diagonal key and a plain extra entry
# (mu_100), and an orientation inconsistent with the listed one plus an
# entry with a parameter coefficient (delta_001); so mu_100 and delta_001
# fail antisymmetry.
GATE_ENTRIES = {
    "mu_001": [
        {"lower": ["p_x", "p_z"], "upper": "p_y", "coeff": "-i"},
    ],
    "mu_100": [
        {"lower": ["p_x", "p_y"], "upper": "p_z", "coeff": "t"},
        {"lower": ["p_x", "p_y"], "upper": "p_z", "coeff": "-t"},
        {"lower": ["p_y", "p_x"], "upper": "p_z", "coeff": "1"},
        {"lower": ["l_x", "l_x"], "upper": "l_y", "coeff": "h"},
        {"lower": ["p_z", "l_z"], "upper": "p_x", "coeff": "2"},
    ],
    "delta_001": [
        {"lower": "p_z", "upper": ["p_z", "p_x"], "coeff": "-1/2"},
        {"lower": "l_y", "upper": ["p_x", "l_z"], "coeff": "z1"},
    ],
}

# Entries added to @corrected for the mixed gate document: each pencil's
# ends stay Lie and co-Lie, but their cross terms do not vanish, so
# mixed-jacobi and mixed-cojacobi FAIL.
MIXED_ENTRIES = {
    "mu_001": [
        {"lower": ["l_y", "l_z"], "upper": "l_x", "coeff": "2*i"},
    ],
    "delta_001": [
        {"lower": "l_y", "upper": ["l_x", "p_x"], "coeff": "t"},
    ],
}

# One entry added to @corrected's delta_010: it stays antisymmetric but
# fails co-Jacobi, mixed-cojacobi and both delta_010 cocycles, so the
# co-Jacobi detail is pinned.
COJACOBI_ENTRIES = {
    "delta_010": [
        {"lower": "p_x", "upper": ["p_x", "l_x"], "coeff": "1"},
    ],
}


def _cases():
    """(case id, argv template, setting, format); '{diag}', '{altered}',
    '{diag_altered}', '{gate}', '{mixed}', '{cojacobi}', '{wide}' and
    '{wide_altered}' stand for the documents _prepare names."""
    per_setting = [
        ("check-lie", ["check", "lie", "@corrected"]),
        ("check-colie", ["check", "colie", "@corrected"]),
        ("check-four-pairs", ["check", "four-pairs", "@corrected"]),
        ("check-bialgebra", ["check", "bialgebra", "mu_100", "delta_010", "@corrected"]),
        ("family", ["family", "@corrected"]),
        ("hopf-all", ["hopf", "all", "@corrected"]),
        ("specialize-zero", ["specialize", "@corrected", "--set", "z1=0,z2=0"]),
        ("specialize-diagonal", ["specialize", "@corrected", "--set", DIAGONAL]),
        ("expand-diagonal", ["expand", "{diag}"]),
        ("expand-altered", ["expand", "{diag_altered}"]),
        ("hopf-altered-coproduct", ["hopf", "hom", "coassoc", "{altered}"]),
        ("hopf-altered-antipode", ["hopf", "antipode", "{altered}"]),
        ("gate-check-lie", ["check", "lie", "{gate}"]),
        ("gate-check-colie", ["check", "colie", "{gate}"]),
        ("gate-check-bialgebra-100-010",
         ["check", "bialgebra", "mu_100", "delta_010", "{gate}"]),
        ("gate-check-bialgebra-001-001",
         ["check", "bialgebra", "mu_001", "delta_001", "{gate}"]),
        ("gate-check-four-pairs", ["check", "four-pairs", "{gate}"]),
        ("gate-family", ["family", "{gate}"]),
        ("gate-mixed-check-four-pairs", ["check", "four-pairs", "{mixed}"]),
        ("gate-cojacobi-check-colie", ["check", "colie", "{cojacobi}"]),
        ("gate-cojacobi-check-bialgebra-100-010",
         ["check", "bialgebra", "mu_100", "delta_010", "{cojacobi}"]),
        ("gate-cojacobi-check-four-pairs", ["check", "four-pairs", "{cojacobi}"]),
        ("hopf-wide", ["hopf", "all", "{wide}"]),
        ("hopf-wide-altered", ["hopf", "all", "{wide_altered}"]),
        ("specialize-wide", ["specialize", "{wide}", "--set", DIAGONAL]),
    ]
    for name in FIXTURES:
        fixture = bf.load_tangent_fixtures()[name]
        argv = ["tangent", "{diag}", "--direction", fixture["direction"]]
        for param, value in fixture["at"].items():
            argv += ["--at", f"{param}={value}"]
        per_setting.append((f"tangent-{name}", argv + ["--expect", f"@{name}"]))
    out = []
    for setting in GRID:
        for fmt in FORMATS:
            for case, argv in per_setting:
                out.append((f"{case}.{setting}.{fmt}", argv, setting, fmt))
    for setting in ("o8c16", "o12c24", "o16c32"):
        for fmt in FORMATS:
            out.append((f"hopf-all.{setting}.{fmt}", ["hopf", "all", "@corrected"],
                        setting, fmt))
    out.append(("verbatim.o5.text", ["check", "four-pairs", "@verbatim"], "o5", "text"))
    return out


CASES = _cases()


def _prepare(directory: Path) -> dict:
    """Write the diagonal and its altered copy (per setting), the altered
    document, the three gate documents and the altered wide document;
    name the wide document."""
    paths = {}
    for setting in GRID:
        diag = directory / f"diagonal-{setting}.json"
        code = main(["specialize", "@corrected", "--set", DIAGONAL, *SETTINGS[setting],
                     "--output", str(diag)])
        assert code == 0
        paths[("diag", setting)] = str(diag)
        data = json.loads(diag.read_text())
        coproducts = data["presentation"]["coproducts"]
        coproducts["l_y"] += " + i*h*l_y (x) l_x - i*h*l_x (x) l_y"
        coproducts["p_y"] += " + t*h*l_y (x) l_z"
        diag_altered = directory / f"diagonal-altered-{setting}.json"
        diag_altered.write_text(json.dumps(data))
        paths[("diag_altered", setting)] = str(diag_altered)
    data = bf.load_bundled("corrected").to_dict()
    coproducts = data["presentation"]["coproducts"]
    altered_py = coproducts["p_y"].replace("exp(-(z2/2)*p_x)", "cosh((z2/2)*p_x)")
    assert altered_py != coproducts["p_y"]
    coproducts["p_y"] = altered_py
    altered = directory / "altered.json"
    altered.write_text(json.dumps(data))
    paths["altered"] = str(altered)
    for key, added in (("gate", GATE_ENTRIES), ("mixed", MIXED_ENTRIES),
                       ("cojacobi", COJACOBI_ENTRIES)):
        data = bf.load_bundled("corrected").to_dict()
        for name, entries in added.items():
            data["compositions"][name]["entries"] += entries
        path = directory / f"{key}.json"
        path.write_text(json.dumps(data))
        paths[key] = str(path)
    paths["wide"] = str(WIDE)
    data = json.loads(WIDE.read_text(encoding="utf-8"))
    coproducts = data["presentation"]["coproducts"]
    altered_px = coproducts["p_x1"].replace("(1)*h^2", "(2)*h^2", 1)
    assert altered_px != coproducts["p_x1"]
    coproducts["p_x1"] = altered_px
    wide_altered = directory / "wide-altered.json"
    wide_altered.write_text(json.dumps(data))
    paths["wide_altered"] = str(wide_altered)
    return paths


def _run(argv, setting, fmt, paths) -> dict:
    argv = [
        a.format(diag=paths.get(("diag", setting)), altered=paths["altered"],
                 diag_altered=paths.get(("diag_altered", setting)), gate=paths["gate"],
                 mixed=paths["mixed"], cojacobi=paths["cojacobi"], wide=paths["wide"],
                 wide_altered=paths["wide_altered"])
        for a in argv
    ] + SETTINGS[setting] + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _prepare(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case, argv, setting, fmt", CASES, ids=[c[0] for c in CASES])
def test_golden_output(case, argv, setting, fmt, paths):
    expected = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert _run(argv, setting, fmt, paths) == expected


def test_golden_set_is_complete():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(c[0] for c in CASES)


def test_family_and_four_pairs_fail_the_same_labels(paths):
    """On the gate document `family` names the checks that `check
    four-pairs` FAILs, in the same order."""
    failing = {}
    for command in (["family"], ["check", "four-pairs"]):
        result = _run([*command, "{gate}"], "o5", "json", paths)
        assert result["exit"] == 1
        checks = json.loads(result["stdout"])["checks"]
        failing[command[-1]] = [c["check"] for c in checks if not c["pass"]]
    assert failing["four-pairs"][-1] == "theorem hypotheses satisfied"
    assert failing["family"] == failing["four-pairs"][:-1]
    assert len(failing["family"]) == 6


# a parameter of @corrected or of its diagonal, with an optional power
_PARAM_FACTOR = re.compile(r"(?:t|h|z|z1|z2)(?:\^(\d+))?")


def _max_param_degree(text: str) -> int:
    """Highest total parameter degree of any product printed in text; a
    product is a run of '*'-joined factors."""
    best = 0
    for product in re.split(r"[^\w^*/]+", text):
        degree = 0
        for factor in product.split("*"):
            match = _PARAM_FACTOR.fullmatch(factor)
            if match:
                degree += int(match.group(1) or 1)
        best = max(best, degree)
    return best


def test_max_param_degree_reads_products():
    assert _max_param_degree("-i/645120*t*h^2*z2^7*p_x^7*l_y") == 10
    assert _max_param_degree("(t^2*h^3*z2-t^2*h^3*z1)*l_z") == 6
    assert _max_param_degree('"1/2*z^8*p_y (x) p_x", h') == 8
    assert _max_param_degree("mu_111: (p_x,l_y)->i*l_z, order=6") == 0


@pytest.mark.parametrize("case, setting", [c[::2] for c in CASES], ids=[c[0] for c in CASES])
def test_golden_prints_nothing_above_the_order(case, setting):
    """Every printed series is exact, so none carries a term above the
    order, or above order - 1 for a tangent field."""
    stdout = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))["stdout"]
    order = ORDER[setting]
    bound = order - 1 if case.startswith("tangent-") else order
    assert _max_param_degree(stdout) <= bound


def _verdicts(result) -> tuple:
    """(verdicts, labels) of a result. The verdicts are the exit code,
    each check's pass flag in report order and the overall result; the
    labels name the checks in the same order (text or JSON report)."""
    stdout = result["stdout"]
    if stdout.startswith("{"):
        body, _ = json.JSONDecoder().raw_decode(stdout)
        checks = body.get("checks", [])
        verdicts = result["exit"], [c["pass"] for c in checks], body.get("pass")
        return verdicts, [c["check"] for c in checks]
    lines = stdout.splitlines()
    checks = [line for line in lines if line.startswith("[")]
    verdicts = (result["exit"], [line[:6] for line in checks],
                [line for line in lines if line.startswith("result: ")])
    return verdicts, [line[7:].split(":")[0] for line in checks]


def _change(result, old) -> str:
    """How a changed case differs from its old golden: verdicts kept
    (with or without relabelled checks), checks added with every other
    verdict kept, or an exit code or verdict moved. Checks are only
    added when the exit code and overall result are kept, no old label
    is gone and each old label keeps its pass flags."""
    (verdicts, labels), (was, was_labels) = _verdicts(result), _verdicts(old)
    if verdicts == was:
        if labels != was_labels:
            return "labels changed, verdicts kept"
        return "changed, exit code and verdicts kept"
    flags, was_flags = ({}, {})
    for table, (_, passes, _), names in ((flags, verdicts, labels),
                                         (was_flags, was, was_labels)):
        for label, flag in zip(names, passes):
            table.setdefault(label, []).append(flag)
    added = [label for label in flags if label not in was_flags]
    kept = verdicts[::2] == was[::2] and all(
        flags.get(label) == flag for label, flag in was_flags.items()
    )
    if kept and added:
        return f"checks added: {', '.join(added)}, other verdicts kept"
    return "changed, EXIT CODE OR VERDICT MOVED"


def test_a_relabel_keeps_the_verdicts():
    old = json.loads((GOLDEN / "gate-family.o5.json.json").read_text(encoding="utf-8"))
    body = json.loads(old["stdout"])
    body["checks"][0]["check"] = "relabelled"
    relabelled = dict(old, stdout=json.dumps(body))
    (verdicts, labels), (new_verdicts, new_labels) = map(_verdicts, (old, relabelled))
    assert verdicts == new_verdicts and labels != new_labels
    assert _change(relabelled, old) == "labels changed, verdicts kept"
    body["checks"][0]["pass"] = True
    assert _verdicts(dict(old, stdout=json.dumps(body)))[0] != verdicts


def test_an_added_check_keeps_the_other_verdicts():
    """A new check is reported as added, in text and JSON, unless it
    moves the overall result or another check's flag moves with it."""
    for fmt in ("json", "text"):
        old = json.loads(
            (GOLDEN / f"gate-family.o5.{fmt}.json").read_text(encoding="utf-8"))
        if fmt == "json":
            body = json.loads(old["stdout"])
            body["checks"].insert(1, {"check": "added", "pass": True, "detail": ""})
            added = dict(old, stdout=json.dumps(body))
            body["checks"][0]["pass"] = True
            moved = dict(old, stdout=json.dumps(body))
        else:
            first = old["stdout"].index("[FAIL]")
            added = dict(old, stdout=old["stdout"][:first] + "[pass] added\n"
                         + old["stdout"][first:])
            moved = dict(added, stdout=added["stdout"].replace("[FAIL]", "[pass]", 1))
        assert _change(added, old) == "checks added: added, other verdicts kept", fmt
        assert _change(moved, old) == "changed, EXIT CODE OR VERDICT MOVED", fmt
        assert _change(dict(added, exit=0), old) == "changed, EXIT CODE OR VERDICT MOVED"


def _regenerate():
    """Rewrite every golden file; print each case whose file changed and
    how its verdicts moved (_change). Returns 1 when any moved, else 0."""
    GOLDEN.mkdir(exist_ok=True)
    current = {f"{c[0]}.json" for c in CASES}
    for stale in GOLDEN.glob("*.json"):
        if stale.name not in current:
            stale.unlink()
            print(f"{stale.stem}: removed")
    changed = moved = 0
    with tempfile.TemporaryDirectory() as scratch:
        paths = _prepare(Path(scratch))
        for case, argv, setting, fmt in CASES:
            result = _run(argv, setting, fmt, paths)
            path = GOLDEN / f"{case}.json"
            text = json.dumps(result, indent=1) + "\n"
            old = path.read_text(encoding="utf-8") if path.exists() else None
            if text == old:
                continue
            changed += 1
            if old is None:
                print(f"{case}: new, exit {result['exit']}")
            else:
                change = _change(result, json.loads(old))
                moved += "MOVED" in change
                print(f"{case}: {change}")
            path.write_text(text, encoding="utf-8")
    print(f"{changed} of {len(CASES)} cases changed; "
          f"{moved} moved an exit code or a verdict")
    return int(moved > 0)


if __name__ == "__main__":
    sys.exit(_regenerate())
