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

The antipode is the convolution inverse of the identity, fixed one
parameter degree at a time; solve_antipode settles each degree in one
incremental pass over one word map, whose cached images take each new
degree of the table as a change (_WordMap.extend), so each degree of
each image is normalised once. That map is the solved antipode: the
report contracts through it only the id (x) S half, the S (x) id half
being zero by the solve (less the counit), and class_f_check reads the
in-order extension off it too, so neither builds a map of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AntipodeError, DocumentError, InputError
from .exprparse import check_names
from .ncpoly import Context, NCPoly, TensorNCPoly, cap_error
from .params import coefficient_product, exact_image
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
    the coproduct, the counit); reversed, it is image(w[1:]) *
    table[w[0]] (an anti-algebra map: the antipode). Past order 5 the
    bundled table is not confluent, so this product order is part of
    every reported normal form. A map's image of a word reversed is the
    word's image under the opposite extension of the same table, formed
    through the same products and normal forms, so one map serves both
    (apply_slot's opposite).

    An image is computed through a degree budget (default: the order)
    and cached per word as (budget, image), like the normal-form cache:
    an entry serves any budget up to its own, and a larger one replaces
    it. The product and the normal form both run at the budget, so the
    image equals the full image through it (a cached image may carry
    exact terms above it). apply_slot and contract multiply a word's image
    by a coefficient of lowest degree d and ask for it at budget - d, once
    per key, and the packed product cuts off exactly what lies above.

    The table may grow after images are cached: extend adds to its
    entries terms from some degree up, and to each cached image its
    change, computed at that entry's budget, so no image is rebuilt and
    every entry stays the image of the current table through its budget.
    A normal form is linear under the leftmost strategy, so the sum of
    the changes' normal forms is the normal form of the sum, in this
    product order and whether or not the table is confluent."""

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
        rest, letter = self._split(w)
        image = self.table[letter]
        if rest:
            image = self(rest, budget).times(image, budget)
        image = normalize(image, self.rel, budget=budget)
        self.cache[w] = (budget, image)
        return image

    def _split(self, w):
        """(rest, letter) of a nonempty word: its image is image(rest) *
        table[letter]."""
        return (w[1:], w[0]) if self.reverse else (w[:-1], w[-1])

    def extend(self, extra: dict, low: int) -> dict:
        """Add extra[g] to each generator's table entry, every term of
        extra having parameter degree >= low, and bring each cached image
        up to date, shortest word first and at its own budget. Returns the
        nonzero changes {word: change of its image}; a word cached at a
        budget below low cannot change through it.

        With old entries T, new ones T + D and old images I, the change of
        a word's image is nf(change(rest) * (T + D)(letter) + I(rest) *
        D(letter)), by linearity of normal forms under the leftmost
        strategy, in this map's product order; a cached rest has a budget
        at least the word's, so both products are exact through it."""
        for g, poly in extra.items():
            self.table[g] = self.table[g] + poly
        changes = {}
        for w in sorted(self.cache, key=len):
            budget = self.cache[w][0]
            if not w or budget < low:
                continue
            rest, letter = self._split(w)
            change = self.cache[rest][1].times(extra[letter], budget)
            if rest in changes:
                change = change + changes[rest].times(self.table[letter], budget)
            change = normalize(change, self.rel, budget=budget)
            if change:
                changes[w] = change
        for w, change in changes.items():
            budget, image = self.cache[w]
            self.cache[w] = (budget, image + change)
        return changes

    def apply_slot(self, t, slot: int, budget=None, images=None,
                   opposite=False) -> TensorNCPoly:
        """t with factor `slot` replaced by its image, exact through
        `budget` (default: the order), with no term above it: a key whose
        coefficient lies above the budget is skipped, and each image, read
        once per key, is cut by the degree of the coefficient it
        multiplies. images, when given, is read instead of this map's
        images, a word it lacks having image zero (extend's changes).
        With opposite, each factor word is read reversed, which maps it
        by the opposite extension of the table."""
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
            word = words[slot][::-1] if opposite else words[slot]
            image = self(word, room) if images is None else images.get(word)
            if image is None:
                continue
            for mid, image_pairs in image.groups().items():
                joined = head + image._factors(mid) + tail
                for m, c in coefficient_product(pairs, image_pairs, limit):
                    accumulate(out, (joined, m), c)
        return TensorNCPoly._of(t.context, out, t.arity - 1 + self.arity)

    def contract(self, t2: TensorNCPoly, slot: int, budget=None, images=None) -> NCPoly:
        """m((F (x) id) t2) for slot 0, m((id (x) F) t2) for slot 1,
        normalised through `budget` (default: the order); F is this map,
        with word-polynomial images, or images (apply_slot). The factor
        words of apply_slot's terms are concatenated, each held against
        the cap as a product's word is (NCPoly.times)."""
        context = t2.context
        out = {}
        for (left, right), pairs in self.apply_slot(t2, slot, budget, images).groups().items():
            w = left + right
            if len(w) > context.cap:
                raise cap_error(w, context)
            for m, c in pairs:
                accumulate(out, (w, m), c)
        return normalize(NCPoly._of(context, out), self.rel, budget=budget)


def require_coproducts(names, given) -> None:
    """The one coproduct-coverage rule, shared by a document and
    HopfPresentation: given holds the index of every generator of names,
    or a DocumentError names, sorted, the generators it lacks."""
    missing = [name for g, name in enumerate(names) if g not in given]
    if missing:
        raise DocumentError(f"missing coproducts for generators {sorted(missing)}")


class HopfPresentation:
    """Generators, bracket relations, coproduct and counit tables."""

    def __init__(self, context: Context, rel: RelationTable, coproduct: dict,
                 counit: dict):
        self.context = context
        self.rel = rel
        self.coproduct = dict(coproduct)
        self.counit = dict(counit)
        require_coproducts(context.basis.names, self.coproduct)
        for g in range(len(context.basis)):
            if ((), ()) in self.coproduct[g].groups():
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

    Returns (S, report): S is the solved antipode as the solve's own
    reversed word map, S.table its generator table and S(word) a word's
    image, satisfying m(S (x) id) Delta g = 0 through the presentation's
    order; the report holds the residual of both antipode equations,
    m(S (x) id) Delta g - eps(g) 1 and m(id (x) S) Delta g - eps(g) 1.

    With corr g = Delta g - g (x) 1 - 1 (x) g, the table solves S(g) =
    -g - C_g, where C_g = m(S (x) id) corr g, and the solve is one pass
    over one reversed word map. C_g starts as the contraction through
    the seed, at the order, which caches every image it reads at the
    room its coefficient leaves. Step k = 1 ... order adds minus the
    degree-k part of C_g to each entry; _WordMap.extend changes each
    cached image to match, and C_g gains the contraction of corr g
    through those changes. This is exact: corr's coefficients have
    degree >= 1, so the degree-k part of C_g reads images only through
    degree k - 1, where the table is already final; and a normal form
    is linear, so C_g summed over the changes is the contraction through
    the whole table. So m(S (x) id) Delta g = S(g) + g + C_g is zero, and
    the S (x) id residual is read off the solve as -eps(g) 1 (the tests
    check it against the contraction). The id (x) S half is contracted
    through the same map, so the table, the report and every printed
    image are full-order.
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
    S = _WordMap(H.rel, table, NCPoly.unit(context), reverse=True)
    contracted = {g: S.contract(corrections[g], 0) for g in range(n)}
    limit = context.monomials.limit
    for k in range(1, context.order + 1):
        low, high = limit(k - 1), limit(k)
        changes = S.extend({
            g: NCPoly._of(context, {(w, m): -c for (w, m), c in poly.terms.items()
                                    if low <= m < high})
            for g, poly in contracted.items()
        }, k)
        if changes:
            for g in range(n):
                contracted[g] += S.contract(corrections[g], 0, images=changes)

    report = DefectReport("antipode")
    for g in range(n):
        eps_unit = NCPoly.from_scalar(context, H.counit[g])
        right = S.contract(H.coproduct_word((g,)), 1) - eps_unit
        location = lambda: f"S({names[g]}) = {table[g]}"
        report.add(f"S(x)id on {names[g]}", -eps_unit, location=location)
        report.add(f"id(x)S on {names[g]}", right, location=location)
    return S, report


def class_f_check(H: HopfPresentation, antipode: _WordMap) -> DefectReport:
    """Membership test for the class fixed by the antipode conditions:
    the homomorphic extension of the generator antipode must act on
    generator coproducts exactly like the anti-multiplicative one.

    antipode is solve_antipode's word map, the anti-multiplicative
    extension, read with the images that the solve and its report have
    cached. The homomorphic extension is its opposite: its image of a
    word is the map's image of the word reversed (apply_slot's
    opposite), so the check builds no word map."""
    report = DefectReport("class-f")
    names = H.names()
    for g in range(len(names)):
        d = H.coproduct_word((g,))
        for slot, label in ((0, "S(x)id"), (1, "id(x)S")):
            defect = (antipode.apply_slot(d, slot, opposite=True)
                      - antipode.apply_slot(d, slot))
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
