"""Hopf-axiom defect computation for a parameter-dependent presentation.

All checks work at the working truncation order and report defects
truncated back to the verification order, where coefficients are exact.
A presentation passes when every reported defect is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AntipodeError, DocumentError, InputError
from .ncpoly import Context, NCPoly, TensorNCPoly
from .params import ParamPoly
from .rewrite import RelationTable, commutator, normalize
from .scalars import ONE, Scalar, ZERO
from .sparse import accumulate


@dataclass
class DefectItem:
    check: str
    subject: str
    value: object          # NCPoly or TensorNCPoly, nonzero
    location: str = ""

    def to_dict(self):
        out = {"check": self.check, "subject": self.subject, "defect": str(self.value)}
        if self.location:
            out["location"] = self.location
        return out


@dataclass
class DefectReport:
    name: str
    checked: list = field(default_factory=list)
    items: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.items

    def add(self, check, subject, value, location=""):
        self.checked.append(subject)
        if value:
            self.items.append(DefectItem(check, subject, value, location))

    def to_dict(self):
        return {
            "name": self.name,
            "pass": self.ok,
            "checked": len(self.checked),
            "defects": [item.to_dict() for item in self.items],
        }


class HopfPresentation:
    """Generators, bracket relations, coproduct and counit tables, and an
    optional solved antipode table."""

    def __init__(self, context: Context, rel: RelationTable, coproduct: dict,
                 counit: dict, antipode: dict | None = None):
        self.context = context
        self.rel = rel
        self.coproduct = dict(coproduct)
        self.counit = dict(counit)
        self.antipode = dict(antipode) if antipode else None
        self._cop_cache = {}
        n = len(context.basis)
        for g in range(n):
            cop = self.coproduct.get(g)
            if cop is None:
                raise DocumentError(
                    f"missing coproduct for generator {context.basis.names[g]}"
                )
            unit_part = cop.terms.get(((), ()))
            if unit_part:
                raise DocumentError(
                    f"coproduct of {context.basis.names[g]} has a 1(x)1 component"
                )
            self.counit.setdefault(g, ZERO)

    def names(self):
        return self.context.basis.names

    # -- coproduct as an algebra morphism -------------------------------------

    def coproduct_word(self, word) -> TensorNCPoly:
        cached = self._cop_cache.get(word)
        if cached is not None:
            return cached
        if not word:
            out = TensorNCPoly.unit(self.context, 2)
        elif len(word) == 1:
            out = normalize(self.coproduct[word[0]], self.rel)
        else:
            out = normalize(
                self.coproduct_word(word[:-1]) * self.coproduct[word[-1]], self.rel
            )
        self._cop_cache[word] = out
        return out

    def apply_coproduct(self, a: NCPoly) -> TensorNCPoly:
        out = {}
        for word, coeff in a.terms.items():
            for key, c in self.coproduct_word(word).terms.items():
                accumulate(out, key, c * coeff)
        return TensorNCPoly(self.context, 2, out)

    # -- counit ----------------------------------------------------------------

    def counit_word(self, word) -> Scalar:
        out = ONE
        for g in word:
            out = out * self.counit[g]
            if not out:
                return ZERO
        return out


def coproduct_hom_defect(H: HopfPresentation, order: int | None = None) -> DefectReport:
    """Delta(rhs of [a, b]) - [Delta a, Delta b] for every generator pair.

    Zero everywhere certifies that the coproduct table extends to an
    algebra morphism for the presented relations.
    """
    order = H.context.order if order is None else order
    report = DefectReport("coproduct-hom")
    names = H.names()
    for i, j in H.rel.pairs():
        rhs = H.rel.bracket_poly(j, i)
        lhs = H.apply_coproduct(rhs)
        di = H.coproduct_word((i,))
        dj = H.coproduct_word((j,))
        defect = (lhs - commutator(dj, di, H.rel)).truncate(order)
        report.add(
            "hom", f"({names[j]},{names[i]})", defect,
            location=f"[{names[j]},{names[i]}] = {rhs}",
        )
    return report


def coassociativity_defect(H: HopfPresentation, order: int | None = None) -> DefectReport:
    """(Delta (x) id) Delta - (id (x) Delta) Delta on every generator."""
    order = H.context.order if order is None else order
    report = DefectReport("coassociativity")
    names = H.names()
    for g in range(len(names)):
        d = H.coproduct_word((g,))
        left = _extend_slot(H, d, 0)
        right = _extend_slot(H, d, 1)
        defect = (left - right).truncate(order)
        report.add("coassoc", names[g], defect, location=f"Delta {names[g]} = {d}")
    return report


def _extend_slot(H: HopfPresentation, t2: TensorNCPoly, slot: int) -> TensorNCPoly:
    terms = _map_slot(t2, slot, lambda w: H.coproduct_word(w).terms)
    return TensorNCPoly(H.context, 3, terms)


def _map_slot(t: TensorNCPoly, slot: int, image) -> dict:
    """Terms of t with factor `slot` replaced by a linear map's value on
    it: image(word) is a {tuple of words: coefficient} map spliced in."""
    out = {}
    for key, coeff in t.terms.items():
        head, tail = key[:slot], key[slot + 1:]
        for mid, c in image(key[slot]).items():
            s = coeff * c
            if s:
                accumulate(out, head + mid + tail, s)
    return out


def counit_defect(H: HopfPresentation, order: int | None = None) -> DefectReport:
    """(eps (x) id) Delta g - g and (id (x) eps) Delta g - g."""
    order = H.context.order if order is None else order
    report = DefectReport("counit")
    names = H.names()
    for g in range(len(names)):
        d = H.coproduct_word((g,))
        gen = NCPoly.generator(H.context, g)
        for side, label in ((0, "eps(x)id"), (1, "id(x)eps")):
            terms = _map_slot(d, side, lambda w: _counit_image(H, w))
            collapsed = NCPoly(H.context, {kept: c for (kept,), c in terms.items()})
            defect = (normalize(collapsed, H.rel) - gen).truncate(order)
            report.add("counit", f"{label} on {names[g]}", defect)
    return report


def _counit_image(H: HopfPresentation, word) -> dict:
    e = H.counit_word(word)
    return {(): e} if e else {}


# -- antipode ------------------------------------------------------------------


class _Extension:
    """Extension of a generator antipode table to all words: reversed
    (anti-multiplicative, the true antipode) or in-order (the
    homomorphic comparison map of the class-F condition)."""

    def __init__(self, H: HopfPresentation, table: dict, reverse: bool):
        self.H = H
        self.table = table
        self.reverse = reverse
        self.cache = {}

    def word(self, w) -> NCPoly:
        got = self.cache.get(w)
        if got is not None:
            return got
        out = NCPoly.unit(self.H.context)
        for g in reversed(w) if self.reverse else w:
            out = normalize(out * self.table[g], self.H.rel)
        self.cache[w] = out
        return out

    def contract(self, t2: TensorNCPoly, slot: int) -> NCPoly:
        """m((S (x) id) t2) for slot 0, m((id (x) S) t2) for slot 1."""
        out = {}
        for (w1, w2), coeff in t2.terms.items():
            if slot == 0:
                piece = self.word(w1) * NCPoly(self.H.context, {w2: coeff})
            else:
                piece = NCPoly(self.H.context, {w1: coeff}) * self.word(w2)
            for w, c in piece.terms.items():
                accumulate(out, w, c)
        return normalize(NCPoly(self.H.context, out), self.H.rel)

    def apply_slot(self, t2: TensorNCPoly, slot: int) -> TensorNCPoly:
        """(S (x) id) t2 or (id (x) S) t2, factors normalized."""
        terms = _map_slot(
            t2, slot, lambda w: {(u,): c for u, c in self.word(w).terms.items()}
        )
        return normalize(TensorNCPoly(self.H.context, 2, terms), self.H.rel)


def solve_antipode(H: HopfPresentation, order: int | None = None):
    """Order-by-order antipode solve from the seed S0 = -id.

    Returns (table, report): the generator antipode table satisfying
    m(S (x) id) Delta g = eps(g) 1 up to the requested parameter order,
    with the residual of both antipode equations in the report. The
    solve is a fixed point: coproduct corrections carry parameter
    degree >= 1, so iteration k pins degree k.
    """
    order = H.context.order if order is None else order
    context = H.context
    names = H.names()
    n = len(names)
    table = {g: -NCPoly.generator(context, g) for g in range(n)}
    corrections = {}
    for g in range(n):
        d = H.coproduct_word((g,))
        prim = TensorNCPoly(context, 2, {
            ((g,), ()): context.const_poly(ONE),
            ((), (g,)): context.const_poly(ONE),
        })
        corr = d - prim
        if corr.terms and min(
            c.min_degree() or 0 for c in corr.terms.values()
        ) == 0:
            raise AntipodeError(
                f"coproduct of {names[g]} deviates from primitive at parameter "
                "degree 0; order-by-order solve cannot start"
            )
        corrections[g] = corr
    for _ in range(order):
        ext = _Extension(H, table, reverse=True)
        new_table = {}
        for g in range(n):
            correction = ext.contract(corrections[g], 0)
            new_table[g] = (-NCPoly.generator(context, g) - correction).truncate(order)
        table = new_table

    report = DefectReport("antipode")
    ext = _Extension(H, table, reverse=True)
    for g in range(n):
        d = H.coproduct_word((g,))
        eps_unit = NCPoly.from_scalar(context, H.counit[g])
        left = (ext.contract(d, 0) - eps_unit).truncate(order)
        right = (ext.contract(d, 1) - eps_unit).truncate(order)
        report.add("antipode-left", names[g], left, location=f"S({names[g]}) = {table[g]}")
        report.add("antipode-right", names[g], right)
    return table, report


def class_f_check(H: HopfPresentation, antipode: dict, order: int | None = None) -> DefectReport:
    """Membership test for the class fixed by the antipode conditions:
    the homomorphic extension of the generator antipode must act on
    generator coproducts exactly like the anti-multiplicative one."""
    order = H.context.order if order is None else order
    report = DefectReport("class-f")
    names = H.names()
    anti = _Extension(H, antipode, reverse=True)
    homo = _Extension(H, antipode, reverse=False)
    for g in range(len(names)):
        d = H.coproduct_word((g,))
        for slot, label in ((0, "S(x)id"), (1, "id(x)S")):
            defect = (
                homo.apply_slot(d, slot) - anti.apply_slot(d, slot)
            ).truncate(order)
            report.add("class-f", f"{label} on {names[g]}", defect)
    return report


# -- specialization --------------------------------------------------------------


def specialization_targets(params, assignment: dict):
    """New parameter tuple and substitution images for an assignment
    mapping parameter -> Scalar or parameter name."""
    new_params = []
    for name in params:
        image = assignment.get(name)
        if image is None:
            if name not in new_params:
                new_params.append(name)
        elif isinstance(image, str):
            if image not in new_params:
                new_params.append(image)
        elif not isinstance(image, Scalar):
            raise InputError(f"bad specialization value for {name!r}")
    return tuple(new_params)


def specialize(H: HopfPresentation, assignment: dict) -> HopfPresentation:
    """Substitute scalars/renamings into every coefficient; the
    CONTRACTING property of the resulting table is re-checked."""
    new_params = specialization_targets(H.context.params, assignment)
    new_context = H.context.with_params(new_params)
    target = (new_params, new_context.working_order)
    images = {}
    for name, image in assignment.items():
        if name not in H.context.params:
            raise InputError(f"unknown parameter {name!r} in specialization")
        if isinstance(image, Scalar):
            images[name] = ParamPoly.const(new_params, target[1], image)
        else:
            images[name] = ParamPoly.parameter(new_params, target[1], image)
    rel = H.rel.substitute(images, new_context)
    coproduct = {
        g: cop.substitute(images, new_context) for g, cop in H.coproduct.items()
    }
    antipode = None
    if H.antipode:
        antipode = {
            g: s.substitute(images, new_context) for g, s in H.antipode.items()
        }
    return HopfPresentation(new_context, rel, coproduct, dict(H.counit), antipode)
