"""Hopf-axiom defect computation for a parameter-dependent presentation.

Every check works at the presentation's order, where truncated
arithmetic is exact, so each reported defect is exact through it.
A presentation passes when every reported defect is identically zero.

Values hold flat terms, (key, packed monomial) -> Scalar (ncpoly): a
monomial product is one int add, which cannot carry between exponent
fields, since a field of bits(order) + 1 bits holds the largest sum of
two exponents, 2*order; one int comparison is the degree test. The word
maps act once per key of what they map: a word's image, held in a
cache, is formed once however many terms its coefficient has, and is
then multiplied into that packed coefficient, term by term, through the
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AntipodeError, DocumentError, InputError
from .exprparse import check_names
from .ncpoly import Context, NCPoly, TensorNCPoly, cap_error, coefficient_product
from .params import exact_image
from .rewrite import RelationTable, commutator, normalize
from .scalars import ONE, ZERO
from .sparse import accumulate


@dataclass
class DefectItem:
    subject: str
    value: object          # NCPoly or TensorNCPoly, nonzero
    location: str = ""


@dataclass
class DefectReport:
    name: str
    checked: list = field(default_factory=list)
    items: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.items

    def add(self, subject, value, location=None):
        """Record subject as checked, and value as a defect item when it
        is nonzero. location, when given, is a zero-argument callable
        rendering where the defect sits; it is called only for a nonzero
        value, the only case that keeps it, so a passing subject renders
        nothing."""
        self.checked.append(subject)
        if value:
            self.items.append(DefectItem(subject, value, location() if location else ""))


class _WordMap:
    """A generator table extended to words, every image normalised and
    cached. A generator's image is its table entry. Forward, the image
    of a longer word w is image(w[:-1]) * table[w[-1]] (an algebra map:
    the coproduct, the counit, the in-order antipode of the class-F
    check); reversed, it is image(w[1:]) * table[w[0]] (an anti-algebra
    map: the antipode). Past order 5 the bundled table is not
    confluent, so this product order is part of every reported normal
    form.

    An image is computed through a degree budget (default: the order)
    and cached per word as (budget, image), like the normal-form cache:
    an entry serves any budget up to its own, and a larger one replaces
    it. The product and the normal form both run at the budget, so the
    image equals the full image through it (a cached image may carry
    exact terms above it). apply_slot and contract multiply a word's image
    by a coefficient of lowest degree d and ask for it at budget - d, once
    per key, and the packed product cuts off exactly what lies above."""

    def __init__(self, rel: RelationTable, table: dict, unit, reverse: bool = False):
        self.rel = rel
        self.table = table
        self.reverse = reverse
        self.arity = unit.arity
        self.cache = {(): (rel.context.order, unit)}

    def __call__(self, w, budget=None):
        if budget is None:
            budget = self.rel.context.order
        got = self.cache.get(w)
        if got is not None and got[0] >= budget:
            return got[1]
        if len(w) == 1:
            image = self.table[w[0]]
        elif self.reverse:
            image = self(w[1:], budget).times(self.table[w[0]], budget)
        else:
            image = self(w[:-1], budget).times(self.table[w[-1]], budget)
        image = normalize(image, self.rel, budget=budget)
        self.cache[w] = (budget, image)
        return image

    def apply_slot(self, t, slot: int, budget=None) -> TensorNCPoly:
        """t with factor `slot` replaced by its image, exact through
        `budget` (default: the order), with no term above it: a key whose
        coefficient lies above the budget is skipped, and each image, read
        once per key, is cut by the degree of the coefficient it
        multiplies."""
        monomials = t.context.monomials
        if budget is None:
            budget = t.context.order
        shift, limit = monomials.shift, monomials.limit(budget)
        out = {}
        for key, pairs in t.groups().items():
            room = budget - (pairs[0][0] >> shift)
            if room < 0:
                continue
            words = t._factors(key)
            head, tail = words[:slot], words[slot + 1:]
            image = self(words[slot], room)
            for mid, image_pairs in image.groups().items():
                joined = head + image._factors(mid) + tail
                for m, c in coefficient_product(pairs, image_pairs, limit):
                    accumulate(out, (joined, m), c)
        return TensorNCPoly._of(t.context, out, t.arity - 1 + self.arity)

    def contract(self, t2: TensorNCPoly, slot: int, budget=None) -> NCPoly:
        """m((F (x) id) t2) for slot 0, m((id (x) F) t2) for slot 1,
        normalised through `budget` (default: the order); F is this map,
        with word-polynomial images. The factor words of apply_slot's
        terms are concatenated, each held against the cap as a product's
        word is (NCPoly.times)."""
        context = t2.context
        out = {}
        for (left, right), pairs in self.apply_slot(t2, slot, budget).groups().items():
            w = left + right
            if len(w) > context.cap:
                raise cap_error(w, context)
            for m, c in pairs:
                accumulate(out, (w, m), c)
        return normalize(NCPoly._of(context, out), self.rel, budget=budget)


class HopfPresentation:
    """Generators, bracket relations, coproduct and counit tables."""

    def __init__(self, context: Context, rel: RelationTable, coproduct: dict,
                 counit: dict):
        self.context = context
        self.rel = rel
        self.coproduct = dict(coproduct)
        self.counit = dict(counit)
        n = len(context.basis)
        for g in range(n):
            cop = self.coproduct.get(g)
            if cop is None:
                raise DocumentError(
                    f"missing coproduct for generator {context.basis.names[g]}"
                )
            if ((), ()) in cop.groups():
                raise DocumentError(
                    f"coproduct of {context.basis.names[g]} has a 1(x)1 component"
                )
            self.counit.setdefault(g, ZERO)
        self._delta = _WordMap(rel, self.coproduct, TensorNCPoly.unit(context, 2))

    def names(self):
        return self.context.basis.names

    # -- coproduct as an algebra morphism -------------------------------------

    def coproduct_word(self, word) -> TensorNCPoly:
        return self._delta(word)

    def apply_coproduct(self, a: NCPoly) -> TensorNCPoly:
        return self._delta.apply_slot(a, 0)


def coproduct_hom_defect(H: HopfPresentation) -> DefectReport:
    """Delta(rhs of [a, b]) - [Delta a, Delta b] for every generator pair.

    Zero everywhere certifies that the coproduct table extends to an
    algebra morphism for the presented relations.
    """
    report = DefectReport("coproduct-hom")
    names = H.names()
    for i, j in H.rel.pairs():
        rhs = H.rel.bracket_poly(j, i)
        lhs = H.apply_coproduct(rhs)
        di = H.coproduct_word((i,))
        dj = H.coproduct_word((j,))
        defect = lhs - commutator(dj, di, H.rel)
        report.add(
            f"({names[j]},{names[i]})", defect,
            location=lambda: f"[{names[j]},{names[i]}] = {rhs}",
        )
    return report


def coassociativity_defect(H: HopfPresentation) -> DefectReport:
    """(Delta (x) id) Delta - (id (x) Delta) Delta on every generator."""
    report = DefectReport("coassociativity")
    names = H.names()
    for g in range(len(names)):
        d = H.coproduct_word((g,))
        defect = H._delta.apply_slot(d, 0) - H._delta.apply_slot(d, 1)
        report.add(names[g], defect, location=lambda: f"Delta {names[g]} = {d}")
    return report


def counit_defect(H: HopfPresentation) -> DefectReport:
    """(eps (x) id) Delta g - g and (id (x) eps) Delta g - g."""
    context = H.context
    report = DefectReport("counit")
    names = H.names()
    eps = _WordMap(H.rel, {
        g: NCPoly.from_scalar(context, e) for g, e in H.counit.items()
    }, NCPoly.unit(context))
    for g in range(len(names)):
        d = H.coproduct_word((g,))
        gen = NCPoly.generator(context, g)
        for side, label in ((0, "eps(x)id"), (1, "id(x)eps")):
            defect = eps.contract(d, side) - gen
            report.add(f"{label} on {names[g]}", defect)
    return report


# -- antipode ------------------------------------------------------------------


def solve_antipode(H: HopfPresentation):
    """Order-by-order antipode solve from the seed S0 = -id.

    Returns (table, report): the generator antipode table satisfying
    m(S (x) id) Delta g = eps(g) 1 through the presentation's order,
    with the residual of both antipode equations in the report. The
    solve is a fixed point: coproduct corrections carry parameter
    degree >= 1, so pass k pins degree k and reads the table only
    through degree k - 1. Pass k therefore runs at budget k, and its
    table, made by word maps at that budget, has no term above degree k;
    the last pass runs at the order, so the table returned, the report
    and every printed image are full-order.
    """
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
        if corr.terms and corr.min_param_degree() == 0:
            raise AntipodeError(
                f"coproduct of {names[g]} deviates from primitive at parameter "
                "degree 0; order-by-order solve cannot start"
            )
        corrections[g] = corr
    for k in range(1, context.order + 1):
        S = _WordMap(H.rel, table, NCPoly.unit(context), reverse=True)
        table = {
            g: -NCPoly.generator(context, g) - S.contract(corrections[g], 0, k)
            for g in range(n)
        }

    report = DefectReport("antipode")
    S = _WordMap(H.rel, table, NCPoly.unit(context), reverse=True)
    for g in range(n):
        d = H.coproduct_word((g,))
        eps_unit = NCPoly.from_scalar(context, H.counit[g])
        left = S.contract(d, 0) - eps_unit
        right = S.contract(d, 1) - eps_unit
        report.add(f"S(x)id on {names[g]}", left,
                   location=lambda: f"S({names[g]}) = {table[g]}")
        report.add(f"id(x)S on {names[g]}", right)
    return table, report


def class_f_check(H: HopfPresentation, antipode: dict) -> DefectReport:
    """Membership test for the class fixed by the antipode conditions:
    the homomorphic extension of the generator antipode must act on
    generator coproducts exactly like the anti-multiplicative one."""
    report = DefectReport("class-f")
    names = H.names()
    unit = NCPoly.unit(H.context)
    anti = _WordMap(H.rel, antipode, unit, reverse=True)
    homo = _WordMap(H.rel, antipode, unit)
    for g in range(len(names)):
        d = H.coproduct_word((g,))
        for slot, label in ((0, "S(x)id"), (1, "id(x)S")):
            defect = homo.apply_slot(d, slot) - anti.apply_slot(d, slot)
            report.add(f"{label} on {names[g]}", defect)
    return report


# -- specialization --------------------------------------------------------------


def specialize(H: HopfPresentation, assignment: dict) -> HopfPresentation:
    """Rename parameters or set them to 0 in every coefficient; the
    CONTRACTING property of the resulting table is re-checked.
    assignment maps a parameter to a parameter name or to 0; any other
    value is an input error (params.exact_image), as is a name that the
    identifier rule refuses or that names a generator
    (exprparse.check_names)."""
    new_params = []
    for name in H.context.params:
        image = exact_image(name, assignment.get(name, name))
        if image is not None and image not in new_params:
            new_params.append(image)
    for name in assignment:
        if name not in H.context.params:
            raise InputError(f"unknown parameter {name!r} in specialization")
    # each image is a parameter of the result, which a document emits
    check_names([*new_params, *H.context.basis.names])
    new_context = H.context.with_params(new_params)
    rel = H.rel.substitute(assignment, new_context)
    coproduct = {
        g: cop.substitute(assignment, new_context) for g, cop in H.coproduct.items()
    }
    return HopfPresentation(new_context, rel, coproduct, dict(H.counit))
