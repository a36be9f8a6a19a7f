"""Input document schema (bialgebra-forge/1), loading, and emission.

A document declares parameters and generators, optional named
bracket/cobracket constant lists, and an optional Hopf presentation
(bracket relations, coproducts, counit) with truncation settings. All
algebraic right-hand sides are expression strings in the nc-engine
grammar. Emission is canonical: identical objects produce byte-identical
documents.

Loading checks a document once (Document.from_dict), section by section
in document order, before any expression parses: a key outside its
level's keys, a field of the wrong JSON type, an undeclared generator and
a broken structural rule are each an input error. The bracket-key rule
(rewrite.bracket_keys) and the coproduct-coverage rule
(hopf.require_coproducts) are the engine's own, so a document and a
library caller building a RelationTable or HopfPresentation get one
message for one fault.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import DocumentError
from .exprparse import check_names, parse_coefficient, parse_expr
from .hopf import HopfPresentation, require_coproducts
from .ncpoly import SETTINGS, Context, NCPoly, TensorNCPoly
from .rewrite import RelationTable, bracket_keys
from .scalars import format_scalar
from .tensors import Basis, BracketTensor, CobracketTensor

SCHEMA = "bialgebra-forge/1"
# the keys of each level of the schema (settings: ncpoly.SETTINGS); any
# other key is an input error
DOCUMENT_KEYS = ("schema", "parameters", "generators", "compositions",
                 "presentation", "settings", "notes")
COMPOSITION_KEYS = ("kind", "entries")
PRESENTATION_KEYS = ("brackets", "coproducts", "counit")
BRACKET_KEYS = ("left", "right", "rhs")
ENTRY_KEYS = frozenset(("lower", "upper", "coeff"))


_JSON_TYPES = {dict: "a JSON object", list: "a JSON list", str: "a string"}


def _typed(value, kind, what):
    """value, when it has the JSON type kind; a DocumentError otherwise."""
    if not isinstance(value, kind):
        raise DocumentError(f"{what} must be {_JSON_TYPES[kind]}")
    return value


def _known_keys(data: dict, known, what) -> None:
    """A key of data outside known is an input error that names it: a
    misspelt key would otherwise be ignored and its default used."""
    for key in data:
        if key not in known:
            raise DocumentError(
                f"unknown key {key!r} in {what}; expected one of {', '.join(known)}"
            )


def _pair_and_single(kind, entry) -> tuple:
    """The (pair, single) sides of a composition entry: a bracket
    [x, y] -> z holds its pair as lower, a cobracket z -> x ^ y as upper."""
    lower, upper = entry.get("lower"), entry.get("upper")
    return (lower, upper) if kind == "bracket" else (upper, lower)


def _strings(data, key) -> list:
    """data[key] (default empty), a JSON list of strings."""
    return [_typed(s, str, f"{key} item") for s in _typed(data.get(key, []), list, key)]


def _check_composition(name, comp, index) -> None:
    """A composition is a JSON object of COMPOSITION_KEYS, a kind and a
    list of entries; each entry holds only ENTRY_KEYS, a string coeff, and
    a pair and a single of the generators in index."""
    what = f"composition {name!r}"
    _typed(comp, dict, what)
    _known_keys(comp, COMPOSITION_KEYS, what)
    kind = comp.get("kind")
    if kind not in ("bracket", "cobracket"):
        raise DocumentError(f"{what} has bad kind {kind!r}")
    for entry in _typed(comp.get("entries", []), list, f"{what} entries"):
        if (isinstance(entry, dict) and entry.keys() <= ENTRY_KEYS
                and isinstance(entry.get("coeff"), str)):
            pair, single = _pair_and_single(kind, entry)
            if isinstance(pair, (list, tuple)) and len(pair) == 2 and all(
                isinstance(g, str) and g in index for g in (*pair, single)
            ):
                continue
        raise DocumentError(f"{what} has a malformed entry {entry!r}")


def _bracket_pairs(presentation, index):
    """The (left, right) index pair of each bracket item, in order, once
    the item is a JSON object of BRACKET_KEYS naming generators in index
    and a string rhs."""
    for item in _typed(presentation.get("brackets", []), list, "presentation.brackets"):
        _typed(item, dict, "presentation.brackets item")
        _known_keys(item, BRACKET_KEYS, "presentation.brackets item")
        left, right = item.get("left"), item.get("right")
        if not all(isinstance(g, str) and g in index for g in (left, right)):
            raise DocumentError(
                f"bracket pair ({left!r},{right!r}) uses undeclared generators"
            )
        _typed(item.get("rhs"), str, f"rhs of bracket [{left},{right}]")
        yield index[left], index[right]


def _check_presentation(presentation, generators, index) -> None:
    """A presentation is a JSON object of PRESENTATION_KEYS, an antipode
    refused first; its bracket items obey the bracket-key rule and its
    coproducts and counits are strings of declared generators, a
    coproduct for each."""
    _typed(presentation, dict, "presentation")
    if "antipode" in presentation:
        raise DocumentError("presentation.antipode is not read: the antipode is "
                            "solved from the coproduct")
    _known_keys(presentation, PRESENTATION_KEYS, "presentation")
    bracket_keys(_bracket_pairs(presentation, index), generators)
    for part, label in (("coproducts", "coproduct"), ("counit", "counit")):
        for g, text in _typed(presentation.get(part, {}), dict,
                              f"presentation.{part}").items():
            if g not in index:
                raise DocumentError(f"{label} for undeclared generator {g!r}")
            _typed(text, str, f"{label} of {g!r}")
    require_coproducts(generators, {index[g] for g in presentation.get("coproducts", {})})


@dataclass
class Document:
    parameters: list
    generators: list
    compositions: dict = field(default_factory=dict)
    presentation: dict | None = None
    settings: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    # -- loading ---------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "Document":
        """Check data in one pass and make its Document. The sections are
        checked in document order: the schema and the top-level keys, the
        identifiers, the compositions, the presentation, the settings and
        the notes. Each field's JSON type is checked just before it is
        read and every key is checked against its level's keys, and no
        expression is parsed: every structural rule holds before
        build_presentation or composition_tensor parses a right-hand side."""
        _typed(data, dict, "document")
        if data.get("schema") != SCHEMA:
            raise DocumentError(
                f"unsupported schema {data.get('schema')!r}; expected {SCHEMA!r}"
            )
        _known_keys(data, DOCUMENT_KEYS, "document")
        parameters, generators = _strings(data, "parameters"), _strings(data, "generators")
        if not generators:
            raise DocumentError("document declares no generators")
        check_names([*parameters, *generators])
        index = {g: k for k, g in enumerate(generators)}
        compositions = _typed(data.get("compositions", {}), dict, "compositions")
        for name, comp in compositions.items():
            _check_composition(name, comp, index)
        presentation = data.get("presentation")
        if presentation is not None:
            _check_presentation(presentation, generators, index)
        settings = _typed(data.get("settings", {}), dict, "settings")
        _known_keys(settings, SETTINGS, "settings")
        return cls(parameters, generators, dict(compositions), presentation,
                   dict(settings), _strings(data, "notes"))

    @classmethod
    def load(cls, path) -> "Document":
        return cls.from_dict(read_json(path))

    # -- object construction -----------------------------------------------------

    def make_context(self, order=None, cap=None, slack=None) -> Context:
        """The document's context: each setting from the argument when one
        is given, else from the document, else Context's default."""
        given = {"order": order, "cap": cap, "slack": slack}
        values = {name: self.settings[name] for name in SETTINGS if name in self.settings}
        values.update((name, value) for name, value in given.items() if value is not None)
        return Context(Basis(self.generators), tuple(self.parameters), **values)

    def composition_tensor(self, name: str, context: Context):
        comp = self.compositions.get(name)
        if comp is None:
            raise DocumentError(f"no composition named {name!r}")
        cls = BracketTensor if comp["kind"] == "bracket" else CobracketTensor
        index = context.basis.index
        memo = {}  # one parse memo for the composition's entries
        pairs = []
        for entry in comp.get("entries", []):
            (a, b), single = _pair_and_single(comp["kind"], entry)
            i, j, k = index[a], index[b], index[single]
            key = (i, j, k) if cls is BracketTensor else (k, i, j)
            pairs.append((key, parse_coefficient(entry["coeff"], context, _memo=memo)))
        return cls(context.basis, context.params, context.order, pairs)

    def composition_names(self, kind: str):
        return sorted(
            name for name, comp in self.compositions.items() if comp["kind"] == kind
        )

    def build_presentation(self, context: Context) -> HopfPresentation:
        if self.presentation is None:
            raise DocumentError("document has no presentation block")
        index = context.basis.index
        # one parse memo for this build, shared by brackets, coproducts
        # and counits: each distinct group and series call is parsed once
        # per order, and nothing outlives the build
        memo = {}
        entries = []
        for item in self.presentation.get("brackets", []):
            rhs = parse_expr(item["rhs"], context, _memo=memo)
            if isinstance(rhs, TensorNCPoly):
                raise DocumentError(
                    f"bracket [{item['left']},{item['right']}] has a tensor rhs"
                )
            entries.append((index[item["left"]], index[item["right"]], rhs))
        rel = RelationTable(context, entries)
        coproduct = {}
        for gname, text in self.presentation["coproducts"].items():
            cop = parse_expr(text, context, _memo=memo)
            if isinstance(cop, NCPoly):
                # primitive shorthand is not assumed; a plain expression
                # is only valid when it is already a tensor
                raise DocumentError(
                    f"coproduct of {gname} must be a tensor expression"
                )
            coproduct[index[gname]] = cop
        counit = {}
        for gname, text in self.presentation.get("counit", {}).items():
            value = parse_coefficient(text, context, _memo=memo)
            if any(map(sum, value.terms)):
                raise DocumentError(
                    f"counit of {gname} has a parameter term ({value}); "
                    "a counit is a constant"
                )
            counit[index[gname]] = value.constant_term()
        return HopfPresentation(context, rel, coproduct, counit)

    # -- emission ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A fresh copy: altering it leaves this document as it is."""
        out = {"schema": SCHEMA, "parameters": list(self.parameters),
               "generators": list(self.generators)}
        if self.compositions:
            out["compositions"] = self.compositions
        if self.presentation is not None:
            out["presentation"] = self.presentation
        if self.settings:
            out["settings"] = self.settings
        if self.notes:
            out["notes"] = list(self.notes)
        return copy.deepcopy(out)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"


def presentation_document(H: HopfPresentation, notes=()) -> Document:
    """Re-emit a presentation as a loadable document (canonical form)."""
    context = H.context
    names = context.basis.names
    brackets = []
    for i, j in H.rel.pairs():
        rhs = H.rel.bracket_poly(j, i)
        if rhs:
            brackets.append({"left": names[j], "right": names[i], "rhs": str(rhs)})
    coproducts = {
        names[g]: str(H.coproduct_word((g,))) for g in range(len(names))
    }
    counit = {names[g]: format_scalar(H.counit[g]) for g in range(len(names))}
    presentation = {"brackets": brackets, "coproducts": coproducts, "counit": counit}
    return Document(
        parameters=list(context.params),
        generators=list(names),
        presentation=presentation,
        settings=context.settings(),
        notes=list(notes),
    )


def composition_document(tensors: dict, context: Context, notes=()) -> Document:
    """Emit named bracket/cobracket tensors as a composition document,
    each antisymmetric pair once, in lower orientation."""
    names = context.basis.names
    compositions = {}
    for name in sorted(tensors):
        tensor = tensors[name]
        entries = []
        for (i, j, k), value in sorted(tensor.entries.items()):
            if tensor.kind == "bracket":
                entries.append({
                    "lower": [names[i], names[j]], "upper": names[k],
                    "coeff": str(value),
                })
            else:
                entries.append({
                    "lower": names[i], "upper": [names[j], names[k]],
                    "coeff": str(value),
                })
        compositions[name] = {"kind": tensor.kind, "entries": entries}
    return Document(
        parameters=list(context.params),
        generators=list(names),
        compositions=compositions,
        settings=context.settings(),
        notes=list(notes),
    )


def presentation_diff(H1: HopfPresentation, H2: HopfPresentation) -> list:
    """Entrywise differences between two presentations on a shared basis;
    empty when brackets, coproducts, and counits all agree."""
    if H1.context.basis != H2.context.basis:
        raise DocumentError("presentations use different bases")
    if H1.context.params != H2.context.params:
        raise DocumentError(
            f"presentations use different parameters: "
            f"{H1.context.params} vs {H2.context.params}"
        )
    names = H1.context.basis.names
    diffs = []
    for i, j in H1.rel.pairs():
        a = H1.rel.bracket_poly(j, i)
        b = H2.rel.bracket_poly(j, i)
        if a != b:
            diffs.append((f"[{names[j]},{names[i]}]", a, b))
    for g in range(len(names)):
        a = H1.coproduct_word((g,))
        b = H2.coproduct_word((g,))
        if a != b:
            diffs.append((f"Delta {names[g]}", a, b))
        if H1.counit[g] != H2.counit[g]:
            diffs.append((f"eps {names[g]}", H1.counit[g], H2.counit[g]))
    return diffs


# -- bundled data ----------------------------------------------------------------


def _data_text(filename: str) -> str:
    return resources.files("bialgebra_forge").joinpath("data", filename).read_text(
        encoding="utf-8"
    )


def read_json(path):
    """The JSON value of a document or expectation file; one that cannot be read,
    is not UTF-8, is not JSON or nests past the decoder's depth is a DocumentError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def load_bundled(name: str) -> Document:
    """Bundled reference documents: 'corrected' (transcription decisions
    applied) or 'verbatim' (raw, rejected at load time)."""
    filename = {
        "corrected": "six_generator_corrected.json",
        "verbatim": "six_generator_verbatim.json",
    }.get(name)
    if filename is None:
        raise DocumentError(f"no bundled document named {name!r}")
    return Document.from_dict(json.loads(_data_text(filename)))


def load_boundary_fixtures() -> dict:
    """Expected boundary presentations keyed by case name; each value is
    {'assign': {param: value-string}, 'document': Document}."""
    raw = json.loads(_data_text("boundary_fixtures.json"))
    return {
        case: {
            "assign": body["assign"],
            "document": Document.from_dict(body["document"]),
        }
        for case, body in raw.items()
    }


def load_tangent_fixtures() -> dict:
    return json.loads(_data_text("tangent_fixtures.json"))


# the keys of an expectation body; direction and at describe the field
# for a reader and are not compared
EXPECTATION_KEYS = ("mode", "mu", "delta", "direction", "at")


def read_expectation(body, names, ref) -> dict:
    """A tangent expectation body, checked against the generator names:
    {"mode": "leading" | "exact", "mu": [(left, right, text)],
    "delta": [(generator, text)]}. The mode defaults to leading; any key
    outside EXPECTATION_KEYS, or outside an entry's names and value, is
    an input error. ref names the expectation in messages."""
    _typed(body, dict, f"expectation {ref}")
    _known_keys(body, EXPECTATION_KEYS, f"expectation {ref}")
    out = {"mode": body.get("mode", "leading")}
    if out["mode"] not in ("leading", "exact"):
        raise DocumentError(f"unknown comparison mode {out['mode']!r}")
    for kind, keys in (("mu", ("left", "right")), ("delta", ("generator",))):
        rows = out[kind] = []
        for e in _typed(body.get(kind, []), list, f"expectation {kind}"):
            if isinstance(e, dict):
                _known_keys(e, (*keys, "value"), f"expectation {kind} entry")
            # an entry that is not an object has no fields: refused below
            fields = [e.get(k) for k in (*keys, "value")] if isinstance(e, dict) else [None]
            if not all(isinstance(f, str) for f in fields):
                raise DocumentError(
                    f"{kind} entry must have string {', '.join(keys)} and value: {e!r}"
                )
            for g in fields[:-1]:
                if g not in names:
                    raise DocumentError(f"unknown generator {g!r} in expectation {ref}")
            rows.append(tuple(fields))
    return out
