"""Input document schema (bialgebra-forge/1), loading, and emission.

A document declares parameters and generators, optional named
bracket/cobracket constant lists, and an optional Hopf presentation
(bracket relations, coproducts, counit) with truncation settings. All
algebraic right-hand sides are expression strings in the nc-engine
grammar. Emission is canonical: identical objects produce byte-identical
documents.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import DocumentError
from .exprparse import IDENTIFIER, parse_coefficient, parse_expr
from .hopf import HopfPresentation
from .ncpoly import Context, NCPoly, TensorNCPoly
from .rewrite import RelationTable
from .scalars import format_scalar
from .tensors import Basis, BracketTensor, CobracketTensor

SCHEMA = "bialgebra-forge/1"
_RESERVED = {"i", "exp", "sinh", "cosh"}


_JSON_TYPES = {dict: "a JSON object", list: "a JSON list", str: "a string"}


def _typed(value, kind, what):
    """value, when it has the JSON type kind; a DocumentError otherwise."""
    if not isinstance(value, kind):
        raise DocumentError(f"{what} must be {_JSON_TYPES[kind]}")
    return value


def _strings(data, key) -> list:
    """data[key] (default empty), a JSON list of strings."""
    return [_typed(s, str, f"{key} item") for s in _typed(data.get(key, []), list, key)]


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
        if not isinstance(data, dict):
            raise DocumentError("document must be a JSON object")
        if data.get("schema") != SCHEMA:
            raise DocumentError(
                f"unsupported schema {data.get('schema')!r}; expected {SCHEMA!r}"
            )
        # every field's JSON type is checked here, before any is read
        compositions = _typed(data.get("compositions", {}), dict, "compositions")
        for name, comp in compositions.items():
            _typed(comp, dict, f"composition {name!r}")
            for entry in _typed(comp.get("entries", []), list, f"composition {name!r} entries"):
                if not isinstance(entry, dict) or not isinstance(entry.get("coeff"), str):
                    raise DocumentError(f"composition {name!r} has a malformed entry {entry!r}")
        presentation = data.get("presentation")
        if presentation is not None:
            _typed(presentation, dict, "presentation")
            for item in _typed(presentation.get("brackets", []), list, "presentation.brackets"):
                _typed(item, dict, "presentation.brackets item")
                _typed(item.get("rhs"), str,
                       f"rhs of bracket [{item.get('left')},{item.get('right')}]")
            for part, label in (("coproducts", "coproduct"), ("counit", "counit")):
                for g, text in _typed(presentation.get(part, {}), dict,
                                      f"presentation.{part}").items():
                    _typed(text, str, f"{label} of {g!r}")
        doc = cls(
            parameters=_strings(data, "parameters"),
            generators=_strings(data, "generators"),
            compositions=dict(compositions),
            presentation=presentation,
            settings=dict(_typed(data.get("settings", {}), dict, "settings")),
            notes=_strings(data, "notes"),
        )
        doc._validate_identifiers()
        doc._validate_structure()
        return doc

    @classmethod
    def load(cls, path) -> "Document":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise DocumentError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def _validate_identifiers(self):
        if not self.generators:
            raise DocumentError("document declares no generators")
        seen = set()
        for name in list(self.parameters) + list(self.generators):
            if not IDENTIFIER.fullmatch(name):
                raise DocumentError(f"bad identifier {name!r}")
            if name in _RESERVED:
                raise DocumentError(f"identifier {name!r} is reserved")
            if name in seen:
                raise DocumentError(f"identifier {name!r} declared twice")
            seen.add(name)

    def _validate_structure(self):
        gens = set(self.generators)
        for name, comp in self.compositions.items():
            kind = comp.get("kind")
            if kind not in ("bracket", "cobracket"):
                raise DocumentError(f"composition {name!r} has bad kind {kind!r}")
            for entry in comp.get("entries", []):
                lower, upper = entry.get("lower"), entry.get("upper")
                if kind == "bracket":
                    pair, single = lower, upper
                else:
                    pair, single = upper, lower
                if (
                    not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(isinstance(g, str) and g in gens for g in (*pair, single))
                ):
                    raise DocumentError(
                        f"composition {name!r} has a malformed entry {entry!r}"
                    )
        if self.presentation is not None:
            # structural checks run before any expression is parsed, so a
            # duplicated bracket key is reported even when right-hand
            # sides would not parse
            pairs = set()
            for item in self.presentation.get("brackets", []):
                left, right = item.get("left"), item.get("right")
                if not all(isinstance(g, str) and g in gens for g in (left, right)):
                    raise DocumentError(
                        f"bracket pair ({left!r},{right!r}) uses undeclared generators"
                    )
                if left == right:
                    raise DocumentError(
                        f"bracket [{left},{right}] of a generator with itself"
                    )
                key = frozenset((left, right))
                if key in pairs:
                    raise DocumentError(
                        f"duplicate bracket key for pair ({left},{right})"
                    )
                pairs.add(key)
            for g in self.presentation.get("coproducts", {}):
                if g not in gens:
                    raise DocumentError(f"coproduct for undeclared generator {g!r}")
            if "antipode" in self.presentation:
                raise DocumentError(
                    "presentation.antipode is not read: the antipode is solved "
                    "from the coproduct"
                )
            missing = gens - set(self.presentation.get("coproducts", {}))
            if missing:
                raise DocumentError(
                    f"missing coproducts for generators {sorted(missing)}"
                )

    # -- object construction -----------------------------------------------------

    def make_context(self, order=None, cap=None, slack=None) -> Context:
        settings = self.settings
        return Context(
            basis=Basis(self.generators),
            params=tuple(self.parameters),
            order=settings.get("order", 5) if order is None else order,
            cap=settings.get("cap", 10) if cap is None else cap,
            slack=settings.get("slack", 2) if slack is None else slack,
        )

    def composition_tensor(self, name: str, context: Context):
        comp = self.compositions.get(name)
        if comp is None:
            raise DocumentError(f"no composition named {name!r}")
        cls = BracketTensor if comp["kind"] == "bracket" else CobracketTensor
        tensor = cls(context.basis, context.params, context.order)
        index = context.basis.index
        for entry in comp.get("entries", []):
            coeff = parse_coefficient(entry["coeff"], context)
            if comp["kind"] == "bracket":
                a, b = entry["lower"]
                key = (index[a], index[b], index[entry["upper"]])
            else:
                a, b = entry["upper"]
                key = (index[entry["lower"]], index[a], index[b])
            tensor.set_entry(key, coeff)
        return tensor

    def composition_names(self, kind: str):
        return sorted(
            name for name, comp in self.compositions.items() if comp["kind"] == kind
        )

    def build_presentation(self, context: Context) -> HopfPresentation:
        if self.presentation is None:
            raise DocumentError("document has no presentation block")
        index = context.basis.index
        # one series memo for this build: each distinct series is expanded
        # once, and no expansion outlives the build
        series = {}
        entries = []
        for item in self.presentation.get("brackets", []):
            rhs = parse_expr(item["rhs"], context, _series=series)
            if isinstance(rhs, TensorNCPoly):
                raise DocumentError(
                    f"bracket [{item['left']},{item['right']}] has a tensor rhs"
                )
            entries.append((index[item["left"]], index[item["right"]], rhs))
        rel = RelationTable(context, entries)
        coproduct = {}
        for gname, text in self.presentation["coproducts"].items():
            cop = parse_expr(text, context, _series=series)
            if isinstance(cop, NCPoly):
                # primitive shorthand is not assumed; a plain expression
                # is only valid when it is already a tensor
                raise DocumentError(
                    f"coproduct of {gname} must be a tensor expression"
                )
            coproduct[index[gname]] = cop
        counit = {}
        for gname, text in self.presentation.get("counit", {}).items():
            if gname not in index:
                raise DocumentError(f"counit for undeclared generator {gname!r}")
            value = parse_coefficient(text, context)
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
    """Emit named bracket/cobracket tensors as a composition document."""
    names = context.basis.names
    compositions = {}
    for name in sorted(tensors):
        tensor = tensors[name]
        entries = []
        for key in sorted(tensor.entries):
            value = tensor.entries[key]
            if not value:
                continue
            i, j, k = key
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
