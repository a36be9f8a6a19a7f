"""Command-line surface.

Subcommands: check | family | hopf | specialize | expand | tangent.
Exit codes: 0 all requested checks pass, 1 a defect was found, 2 input
or usage error, 3 internal error (an unexpected exception, reported as
one line on stderr). Reports are deterministic: identical inputs and
settings produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .document import (
    Document, composition_document, load_bundled, load_tangent_fixtures,
    presentation_document, read_expectation,
)
from .errors import ForgeError, HypothesisError, InputError
from .expansion import (
    check_roles, compare_field, extract_coefficients, tangent_field, verify_order2,
    verify_order3_thz,
)
from .exprparse import IDENTIFIER, parse_scalar_text
from .hopf import (
    class_f_check, coassociativity_defect, coproduct_hom_defect, counit_defect,
    solve_antipode, specialize,
)
from .rewrite import presentation_jacobi_defect
from .tensors import build_family, check_four_pairs, cocycle_defect, lie_checks

_BUNDLED = {"@corrected": "corrected", "@verbatim": "verbatim"}
# the most defects a check's detail lists; "..." stands for the rest
_SHOWN_DEFECTS = 8


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


def _write_output(args, payload: str) -> str:
    """Write an emitted document to --output; what is left for stdout:
    nothing then, else the document. A path that cannot be written is an
    input error (exit 2), raised before the caller prints anything."""
    if not args.output:
        return payload
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc}") from exc
    return ""


def _names(basis, key):
    if isinstance(key, tuple):
        return "(" + ",".join(basis.names[k] for k in key) + ")"
    return basis.names[key]


def _render_defects(basis, defects: dict) -> str:
    parts = []
    for key in sorted(defects)[:_SHOWN_DEFECTS]:
        value = defects[key]
        if isinstance(value, dict):
            inner = ", ".join(
                f"{_names(basis, k)}: {v}" for k, v in sorted(value.items())
            )
            parts.append(f"{_names(basis, key)} -> {{{inner}}}")
        else:
            parts.append(f"{_names(basis, key)}: {value}")
    if len(defects) > _SHOWN_DEFECTS:
        parts.append("...")
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

# the roles of `check four-pairs` and `family`: default names and kinds
_FOUR_ROLES = ("mu_100", "mu_001", "delta_010", "delta_001")
_FOUR_KINDS = ("bracket", "bracket", "cobracket", "cobracket")


def _compositions(doc, context, names, kinds, command) -> list:
    """The named compositions as tensors, one per kind in kinds (a single
    kind takes any positive number); a wrong count or kind exits 2."""
    if isinstance(kinds, str):
        if not names:
            raise InputError(f"{command}: the document has no {kinds} composition")
        kinds = (kinds,) * len(names)
    if len(names) != len(kinds):
        raise InputError(f"{command} needs {len(kinds)} composition names "
                         f"({', '.join(kinds)}), got {len(names)}")
    tensors = [doc.composition_tensor(name, context) for name in names]
    for name, kind, tensor in zip(names, kinds, tensors):
        if tensor.kind != kind:
            raise InputError(f"{command}: composition {name!r} is a {tensor.kind}, "
                             f"expected a {kind}")
    return tensors


def cmd_check(args) -> int:
    doc, context = _open(args)
    which, names, command = args.which, args.names, f"check {args.which}"
    report = Report(command, _settings(context))
    if which in ("lie", "colie"):
        kind = "bracket" if which == "lie" else "cobracket"
        names = names or doc.composition_names(kind)
        checks = {}
        for labelled in zip(names, _compositions(doc, context, names, kind, command)):
            checks.update(lie_checks([labelled], []) if which == "lie"
                          else lie_checks([], [labelled]))
    elif which == "bialgebra":
        mu, delta = _compositions(doc, context, names, ("bracket", "cobracket"), command)
        checks = lie_checks([(names[0], mu)], [(names[1], delta)])
    else:
        names = names or _FOUR_ROLES
        checks = check_four_pairs(*_compositions(doc, context, names, _FOUR_KINDS, command))
    for label, defects in checks.items():
        _add_defect_check(report, context.basis, label, defects)
    if which == "four-pairs":
        report.add("theorem hypotheses satisfied", not any(checks.values()))
    return _emit(args, report, doc.notes)


def cmd_family(args) -> int:
    doc, context = _open(args)
    report = Report("family", _settings(context))
    names = args.names or _FOUR_ROLES
    try:
        family = build_family(*_compositions(doc, context, names, _FOUR_KINDS, "family"))
    except HypothesisError as exc:
        for label in exc.failing:
            report.add(label, False)
        return _emit(args, report)
    report.add("four-pair hypothesis", True)
    identity = cocycle_defect(family.mu, family.delta)
    _add_defect_check(report, context.basis, "family cocycle identity", identity)
    out_doc = composition_document(
        {"mu_family": family.mu, "delta_family": family.delta}, context,
        notes=["family built from " + ", ".join(names)],
    )
    rest = _write_output(args, out_doc.dumps())
    code = _emit(args, report)
    sys.stdout.write(rest)
    return code


_HOPF_CHECKS = ("jacobi", "hom", "coassoc", "counit", "antipode", "class-f")
# a request naming more than itself: class-f reads the solved antipode
_HOPF_EXPANDS = {"all": _HOPF_CHECKS, "class-f": ("antipode", "class-f")}


def cmd_hopf(args) -> int:
    doc, context = _open(args)
    H = doc.build_presentation(context)
    report = Report("hopf", _settings(context))
    checks = []  # each check once, in first-requested order
    for request in args.checks or ["all"]:
        for check in _HOPF_EXPANDS.get(request, (request,)):
            if check not in _HOPF_CHECKS:
                raise InputError(f"unknown hopf check {check!r}")
            if check not in checks:
                checks.append(check)
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
        else:
            _add_report(report, class_f_check(H, antipode))
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
            if name in out:
                raise InputError(f"parameter {name!r} is assigned twice")
            if not value:
                raise InputError(f"parameter {name!r} is assigned no value")
            try:
                is_name = IDENTIFIER.fullmatch(value) and value != "i"
                out[name] = value if is_name else parse_scalar_text(value)
            except InputError as exc:
                raise InputError(f"{name}={value} gives no name or scalar: {exc}") from None
    return out


def cmd_specialize(args) -> int:
    doc, context = _open(args)
    H = doc.build_presentation(context)
    assignment = _parse_assignments(args.set or [])
    specialized = specialize(H, assignment)
    out_doc = presentation_document(specialized, notes=doc.notes)
    sys.stdout.write(_write_output(args, out_doc.dumps()))
    return 0


def _coefficients(kind, multi, tensor, names) -> str:
    """`mu_<multi>: ...` or `delta_<multi>: ...`: the constant terms of a
    scalar tensor, one per antisymmetric pair, in lower orientation."""
    fmt = "({0},{1})->{c}*{2}" if tensor.kind == "bracket" else "{0}->{c}*{1}^{2}"
    return f"{kind}_{''.join(map(str, multi))}: " + ", ".join(
        fmt.format(*(names[g] for g in key), c=v.constant_term())
        for key, v in sorted(tensor.entries.items())
    )


def cmd_expand(args) -> int:
    doc, context = _open(args)
    roles = tuple(args.roles.split(","))
    if len(roles) != 3:
        raise InputError("--roles needs three parameter names (t,h,z order)")
    try:
        up_to = tuple(int(x) for x in args.up_to.split(","))
    except ValueError:
        raise InputError(f"--up-to needs three integer exponent bounds, got {args.up_to!r}")
    if len(up_to) != 3:
        raise InputError("--up-to needs three exponent bounds")
    if min(up_to) < 0:
        raise InputError(f"--up-to bounds must not be negative, got {args.up_to!r}")
    check_roles(roles, context.params)
    H = doc.build_presentation(context)
    report = Report("expand", _settings(context))
    table = extract_coefficients(H, up_to=up_to, roles=roles)
    names = context.basis.names
    for kind, tensors in (("mu", table.mu), ("delta", table.delta)):
        for multi, tensor in sorted(tensors.items()):
            if table.within(multi):
                report.note(_coefficients(kind, multi, tensor, names))
    violations = table.exclusion_violations()
    report.add("expansion exclusions", not violations, "; ".join(
        _coefficients(kind, multi, tensor, names)
        for (kind, multi), tensor in sorted(violations.items())
    ))
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
        expectation = _load_expectation(args.expect, names)
        diff = compare_field(field, expectation)
        detail = ""
        if not diff.ok:
            bits = [
                f"{label}: actual {a} != expected {e}"
                for label, a, e in diff.mismatched
            ]
            bits += [f"extra {label}: {a}" for label, a in diff.extra]
            detail = "; ".join(bits)
        report.add(f"field matches expectation ({expectation['mode']})", diff.ok, detail)
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
    return read_expectation(body, names, ref)


def _settings(context) -> dict:
    return {**context.settings(), "parameters": ",".join(context.params)}


# -- argument parsing --------------------------------------------------------------


def _common(sub):
    sub.add_argument("file", help="input document path, or @corrected/@verbatim")
    sub.add_argument("--order", type=int, default=None, help="truncation order N")
    sub.add_argument("--cap", type=int, default=None, help="ceiling on the word-length bound")
    sub.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process and shared by every
    `main` call. It holds no command function: `main` looks `cmd_<command>`
    up on this module when it runs, so a function replaced after the tree
    was built is the one called."""
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

    p = sub.add_parser("family", help="build the two-pencil deformation family")
    p.add_argument("names", nargs="*", help="mu_100 mu_001 delta_010 delta_001")
    _common(p)
    p.add_argument("--output", default=None, help="write emitted document here")

    p = sub.add_parser("hopf", help="Hopf-axiom defect checks")
    p.add_argument("checks", nargs="*",
                   help="any of: jacobi hom coassoc counit antipode class-f all")
    _common(p)

    p = sub.add_parser("specialize", help="substitute parameters and re-emit")
    p.add_argument("--set", action="append", default=[],
                   help="assignments, e.g. --set z1=0,z2=0 or --set z1=z")
    _common(p)
    p.add_argument("--output", default=None, help="write emitted document here")

    p = sub.add_parser("expand", help="Taylor coefficients and deformation identities")
    p.add_argument("--up-to", dest="up_to", default="2,2,2",
                   help="per-parameter exponent bounds, e.g. 2,2,2")
    p.add_argument("--roles", default="t,h,z",
                   help="parameter names playing the (t,h,z) roles")
    _common(p)

    p = sub.add_parser("tangent", help="boundary tangent fields")
    p.add_argument("--direction", required=True, help="derivative direction parameter")
    p.add_argument("--at", action="append", default=[],
                   help="base-point assignments, e.g. --at z=0")
    p.add_argument("--expect", default=None,
                   help="expectation fixture: @name (bundled) or a JSON path")
    _common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
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
