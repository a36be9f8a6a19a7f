"""Command-line surface.

Subcommands: check | family | hopf | specialize | expand | tangent.
Exit codes: 0 all requested checks pass, 1 a defect was found, 2 input
or usage error, 3 internal error (an unexpected exception, reported as
one line on stderr). Reports are deterministic: identical inputs and
settings produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .document import (
    Document, composition_document, load_bundled, load_tangent_fixtures,
    presentation_document,
)
from .errors import ForgeError, HypothesisError, InputError
from .expansion import (
    ExpectedEntry, compare_field, extract_coefficients, tangent_field,
    verify_order2, verify_order3_thz,
)
from .exprparse import parse_scalar_text
from .hopf import (
    class_f_check, coassociativity_defect, coproduct_hom_defect, counit_defect,
    solve_antipode, specialize,
)
from .rewrite import presentation_jacobi_defect
from .tensors import (
    antisymmetry_defect, build_family, check_four_pairs, cocycle_defect,
    cojacobi_defect, jacobi_defect,
)

_BUNDLED = {"@corrected": "corrected", "@verbatim": "verbatim"}


class Report:
    def __init__(self, command: str, settings: dict):
        self.command = command
        self.settings = dict(settings)
        self.checks = []
        self.notes = []

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append({"check": name, "pass": bool(passed), "detail": detail})

    def note(self, text: str):
        self.notes.append(text)

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "settings": self.settings,
            "checks": self.checks,
            "notes": self.notes,
            "pass": self.ok,
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"# {self.command}"]
        lines.append(
            "settings: " + ", ".join(f"{k}={v}" for k, v in sorted(self.settings.items()))
        )
        for c in self.checks:
            status = "pass" if c["pass"] else "FAIL"
            line = f"[{status}] {c['check']}"
            if c["detail"]:
                line += f": {c['detail']}"
            lines.append(line)
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append("result: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


def _open(args):
    """The document named on the command line and its context."""
    path = args.file
    doc = load_bundled(_BUNDLED[path]) if path in _BUNDLED else Document.load(path)
    return doc, doc.make_context(args.order, args.cap)


def _emit(args, report: Report, notes=()) -> int:
    """Print the report with the given notes appended; the exit code."""
    for note in notes:
        report.note(note)
    text = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(text)
    return 0 if report.ok else 1


def _write_output(args, payload: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _names(basis, key):
    if isinstance(key, tuple):
        return "(" + ",".join(basis.names[k] for k in key) + ")"
    return basis.names[key]


def _render_defects(basis, defects: dict, limit: int = 8) -> str:
    parts = []
    for key in sorted(defects):
        value = defects[key]
        if isinstance(value, dict):
            inner = ", ".join(
                f"{_names(basis, k)}: {v}" for k, v in sorted(value.items())
            )
            parts.append(f"{_names(basis, key)} -> {{{inner}}}")
        else:
            parts.append(f"{_names(basis, key)}: {value}")
        if len(parts) >= limit:
            parts.append("...")
            break
    return "; ".join(parts)


def _add_defect_check(report, basis, name, defects):
    report.add(name, not defects, _render_defects(basis, defects))


def _add_report(report, defect_report):
    for item in defect_report.items:
        detail = f"{item.subject}: {item.value}"
        if item.location:
            detail += f" [{item.location}]"
        report.add(f"{defect_report.name}", False, detail)
    if defect_report.ok:
        report.add(defect_report.name, True, f"{len(defect_report.checked)} checked")


# -- subcommands ----------------------------------------------------------------

# check target -> (composition kind, Jacobi check name, Jacobi defect)
_JACOBI = {"lie": ("bracket", "jacobi", jacobi_defect),
           "colie": ("cobracket", "cojacobi", cojacobi_defect)}


def cmd_check(args) -> int:
    doc, context = _open(args)
    report = Report(f"check {args.which}", _settings(context))
    basis = context.basis
    which = args.which
    if which in _JACOBI:
        kind, check, defect = _JACOBI[which]
        for name in args.names or doc.composition_names(kind):
            tensor = doc.composition_tensor(name, context)
            _add_defect_check(report, basis, f"antisymmetry {name}", antisymmetry_defect(tensor))
            _add_defect_check(report, basis, f"{check} {name}", defect(tensor))
    elif which == "bialgebra":
        if len(args.names) != 2:
            raise InputError("check bialgebra needs exactly two composition names")
        mu = doc.composition_tensor(args.names[0], context)
        delta = doc.composition_tensor(args.names[1], context)
        _add_defect_check(report, basis, f"jacobi {args.names[0]}", jacobi_defect(mu))
        _add_defect_check(report, basis, f"cojacobi {args.names[1]}", cojacobi_defect(delta))
        _add_defect_check(
            report, basis, f"cocycle ({args.names[0]},{args.names[1]})",
            cocycle_defect(mu, delta),
        )
    elif which == "four-pairs":
        names = args.names or ["mu_100", "mu_001", "delta_010", "delta_001"]
        if len(names) != 4:
            raise InputError("check four-pairs needs four composition names")
        tensors = [doc.composition_tensor(n, context) for n in names]
        four = check_four_pairs(*tensors)
        for comp, defects in sorted(four.jacobi.items()):
            _add_defect_check(report, basis, f"jacobi {comp}", defects)
        for comp, defects in sorted(four.cojacobi.items()):
            _add_defect_check(report, basis, f"cojacobi {comp}", defects)
        _add_defect_check(report, basis, "mixed-jacobi", four.mixed_mu)
        _add_defect_check(report, basis, "mixed-cojacobi", four.mixed_delta)
        for pair, defects in sorted(four.cocycle.items()):
            _add_defect_check(report, basis, f"cocycle ({pair})", defects)
        report.add("theorem hypotheses satisfied", four.ok)
    else:
        raise InputError(f"unknown check target {which!r}")
    return _emit(args, report, doc.notes)


def cmd_family(args) -> int:
    doc, context = _open(args)
    report = Report("family", _settings(context))
    names = args.names or ["mu_100", "mu_001", "delta_010", "delta_001"]
    tensors = [doc.composition_tensor(n, context) for n in names]
    try:
        family = build_family(*tensors, param_names=("z1", "t", "z2", "h"))
    except HypothesisError as exc:
        for check, name in exc.report.failing_checks():
            report.add(f"{check} {name}", False)
        return _emit(args, report)
    report.add("four-pair hypothesis", True)
    identity = cocycle_defect(family.mu, family.delta)
    _add_defect_check(report, context.basis, "family cocycle identity", identity)
    out_doc = composition_document(
        {"mu_family": family.mu, "delta_family": family.delta}, context,
        notes=["family built from " + ", ".join(names)],
    )
    code = _emit(args, report)
    _write_output(args, out_doc.dumps())
    return code


_HOPF_CHECKS = ("jacobi", "hom", "coassoc", "counit", "antipode", "class-f")


def cmd_hopf(args) -> int:
    doc, context = _open(args)
    H = doc.build_presentation(context)
    report = Report("hopf", _settings(context))
    checks = args.checks or ["all"]
    if "all" in checks:
        checks = list(_HOPF_CHECKS)
    antipode = None
    for check in checks:
        if check == "jacobi":
            _add_defect_check(report, context.basis, "presentation-jacobi",
                              presentation_jacobi_defect(H.rel))
        elif check == "hom":
            _add_report(report, coproduct_hom_defect(H))
        elif check == "coassoc":
            _add_report(report, coassociativity_defect(H))
        elif check == "counit":
            _add_report(report, counit_defect(H))
        elif check == "antipode":
            antipode, antipode_report = solve_antipode(H)
            _add_report(report, antipode_report)
        elif check == "class-f":
            if antipode is None:
                antipode, antipode_report = solve_antipode(H)
                _add_report(report, antipode_report)
            _add_report(report, class_f_check(H, antipode))
        else:
            raise InputError(f"unknown hopf check {check!r}")
    return _emit(args, report, doc.notes)


def _parse_assignments(pairs) -> dict:
    out = {}
    for chunk in pairs:
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise InputError(f"bad assignment {piece!r}; expected name=value")
            name, value = piece.split("=", 1)
            name, value = name.strip(), value.strip()
            if value and (value[0].isalpha() or value[0] == "_") and all(
                c.isalnum() or c == "_" for c in value
            ) and value != "i":
                out[name] = value
            else:
                out[name] = parse_scalar_text(value)
    return out


def cmd_specialize(args) -> int:
    doc, context = _open(args)
    H = doc.build_presentation(context)
    assignment = _parse_assignments(args.set or [])
    specialized = specialize(H, assignment)
    out_doc = presentation_document(specialized, notes=doc.notes)
    _write_output(args, out_doc.dumps())
    return 0


def cmd_expand(args) -> int:
    doc, context = _open(args)
    H = doc.build_presentation(context)
    roles = tuple(args.roles.split(","))
    if len(roles) != 3:
        raise InputError("--roles needs three parameter names (t,h,z order)")
    try:
        up_to = tuple(int(x) for x in args.up_to.split(","))
    except ValueError:
        raise InputError(f"--up-to needs three integer exponent bounds, got {args.up_to!r}")
    if len(up_to) != 3:
        raise InputError("--up-to needs three exponent bounds")
    report = Report("expand", _settings(context))
    table = extract_coefficients(H, up_to=up_to, roles=roles)
    names = context.basis.names
    for multi, mu in sorted(table.mu.items()):
        entries = ", ".join(
            f"({names[i]},{names[j]})->{v.constant_term()}*{names[k]}"
            for (i, j, k), v in sorted(mu.oriented().items()) if i < j
        )
        report.note(f"mu_{''.join(map(str, multi))}: {entries}")
    for multi, delta in sorted(table.delta.items()):
        entries = ", ".join(
            f"{names[i]}->{v.constant_term()}*{names[a]}^{names[b]}"
            for (i, a, b), v in sorted(delta.oriented().items()) if a < b
        )
        report.note(f"delta_{''.join(map(str, multi))}: {entries}")
    violations = table.exclusion_violations()
    report.add(
        "expansion exclusions", not violations,
        "" if not violations else str(sorted(violations)),
    )
    _add_report(report, verify_order2(table))
    _add_report(report, verify_order3_thz(table))
    return _emit(args, report, doc.notes)


def cmd_tangent(args) -> int:
    doc, context = _open(args)
    H = doc.build_presentation(context)
    report = Report("tangent", _settings(context))
    field = tangent_field(H, args.direction, _parse_assignments(args.at))
    names = context.basis.names
    for (i, j), value in sorted(field.mu.items()):
        report.note(f"mu({names[i]},{names[j]}) = {value}")
    for g, value in sorted(field.delta.items()):
        report.note(f"delta({names[g]}) = {value}")
    if args.expect:
        expected, mode = _load_expectation(args.expect, names)
        diff = compare_field(field, expected, mode=mode)
        detail = ""
        if not diff.ok:
            bits = [
                f"{label}: actual {a} != expected {e}"
                for label, a, e in diff.mismatched
            ]
            bits += [f"extra {label}: {a}" for label, a in diff.extra]
            detail = "; ".join(bits)
        report.add(f"field matches expectation ({mode})", diff.ok, detail)
    else:
        report.add("tangent field computed", True)
    return _emit(args, report)


def _load_expectation(ref: str, names):
    if ref.startswith("@"):
        fixtures = load_tangent_fixtures()
        case = ref[1:]
        if case not in fixtures:
            raise InputError(
                f"no bundled tangent fixture {case!r}; "
                f"available: {', '.join(sorted(fixtures))}"
            )
        body = fixtures[case]
    else:
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                body = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read expectation {ref}: {exc}") from exc
    if not isinstance(body, dict):
        raise InputError(f"expectation {ref} must be a JSON object")
    expected = []
    for kind, keys in (("mu", ("left", "right")), ("delta", ("generator",))):
        entries = body.get(kind, [])
        if not isinstance(entries, list):
            raise InputError(f"expectation {kind} must be a JSON list")
        for e in entries:
            fields = [e.get(k) for k in (*keys, "value")] if isinstance(e, dict) else [e]
            if not all(isinstance(f, str) for f in fields):
                raise InputError(
                    f"{kind} entry must have string {', '.join(keys)} and value: {e!r}"
                )
            *key, value = fields
            for g in key:
                if g not in names:
                    raise InputError(f"unknown generator {g!r} in expectation {ref}")
            expected.append(ExpectedEntry(kind, tuple(key), value))
    return expected, body.get("mode", "leading")


def _settings(context) -> dict:
    return {**context.settings(), "parameters": ",".join(context.params)}


# -- argument parsing --------------------------------------------------------------


def _common(sub):
    sub.add_argument("file", help="input document path, or @corrected/@verbatim")
    sub.add_argument("--order", type=int, default=None, help="truncation order N")
    sub.add_argument("--cap", type=int, default=None, help="generator-degree cap G")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bialgebra-forge",
        description="Exact symbolic checks for Lie bialgebra deformation families "
                    "and parameter-dependent Hopf presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Lie/co-Lie/bialgebra/four-pairs defects")
    p.add_argument("which", choices=("lie", "colie", "bialgebra", "four-pairs"))
    p.add_argument("names", nargs="*", help="composition names")
    _common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("family", help="build the two-pencil deformation family")
    p.add_argument("names", nargs="*", help="mu_100 mu_001 delta_010 delta_001")
    _common(p)
    p.add_argument("--output", default=None, help="write emitted document here")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("hopf", help="Hopf-axiom defect checks")
    p.add_argument("checks", nargs="*",
                   help="any of: jacobi hom coassoc counit antipode class-f all")
    _common(p)
    p.set_defaults(func=cmd_hopf)

    p = sub.add_parser("specialize", help="substitute parameters and re-emit")
    p.add_argument("--set", action="append", default=[],
                   help="assignments, e.g. --set z1=0,z2=0 or --set z1=z")
    _common(p)
    p.add_argument("--output", default=None, help="write emitted document here")
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("expand", help="Taylor coefficients and deformation identities")
    p.add_argument("--up-to", dest="up_to", default="2,2,2",
                   help="per-parameter exponent bounds, e.g. 2,2,2")
    p.add_argument("--roles", default="t,h,z",
                   help="parameter names playing the (t,h,z) roles")
    _common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("tangent", help="boundary tangent fields")
    p.add_argument("--direction", required=True, help="derivative direction parameter")
    p.add_argument("--at", action="append", default=[],
                   help="base-point assignments, e.g. --at z=0")
    p.add_argument("--expect", default=None,
                   help="expectation fixture: @name (bundled) or a JSON path")
    _common(p)
    p.set_defaults(func=cmd_tangent)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ForgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # a fault of the program, not of its input: keep exit 1 for defects
        message = str(exc).replace("\n", " ")
        sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
