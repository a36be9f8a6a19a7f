"""First-order data of a three-parameter presentation and the tangent fields.

Both read one pair of first-order slices off the presentation
(first_order_slices): each stored relation [x_i, x_j], i < j, and the
V (x) V part of Delta - Delta^op of each generator, with every
parameter monomial sent through one exponent map.

The expansion collects those slices per role monomial t^i h^j z^k as
scalar constant tensors, the same BracketTensor and CobracketTensor that
the composition checks read. The bracket at a monomial holds the linear
part of each stored relation: the relation table keeps its right-hand
sides in normal form, so that linear part is the generator-degree-1 part
of the normal form of x_j x_i, and a sorted product x_i x_j has none. The
cobracket holds half the Delta - Delta^op slice, its wedge coefficients.
A tangent field keeps the whole slice at the direction's first power:
every stored relation, and the full difference, which is the
normalisation under which the boundary fields reproduce the cobracket
input data.

Every collected coefficient is exact: the presentation carries no
degree above its order. The compatibility identities are cocycle
defects delta([x,y]) - ad_x delta(y) + ad_y delta(x) of bracket and
cobracket coefficients (tensors.cocycle_defect): each second-order
component is that of one first-order pair, and the third-order thz
identity is the sum over four pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .exprparse import parse_expr
from .hopf import DefectReport, HopfPresentation, specialize
from .ncpoly import Context, NCPoly, TensorNCPoly
from .params import exponent_map
from .rewrite import RelationTable, normalize
from .scalars import Scalar
from .sparse import accumulate
from .tensors import Basis, BracketTensor, CobracketTensor, cocycle_defect

_HALF = Scalar(Fraction(1, 2))


@dataclass
class CoefficientTable:
    basis: Basis
    roles: tuple                      # parameter names in (t, h, z) order
    bounds: tuple                     # per-parameter exponent bounds
    order: int                        # total degree through which entries are exact
    mu: dict = field(default_factory=dict)     # multi -> scalar BracketTensor
    delta: dict = field(default_factory=dict)  # multi -> scalar CobracketTensor

    def within(self, multi) -> bool:
        """Whether multi lies within the exponent bounds."""
        return all(e <= b for e, b in zip(multi, self.bounds))

    def require(self, multis):
        """Each of multis lies within the order, through which the table
        holds every role monomial whatever its bounds; else an input
        error."""
        for multi in multis:
            if sum(multi) > self.order:
                raise InputError(
                    f"multi-index {multi} lies above order {self.order}; "
                    f"its coefficients are not exact there"
                )

    def exclusion_violations(self) -> dict:
        """Entries that the expansion shape forbids, at every role
        monomial through the order whatever the bounds: bracket
        coefficients at pure-h monomials (including the base point) and
        cobracket coefficients at pure-t monomials."""
        bad = {}
        # a pure-h monomial has no t and no z, a pure-t one no h and no z
        for kind, tensors, slot in (("mu", self.mu, 0), ("delta", self.delta, 1)):
            for multi, tensor in tensors.items():
                if multi[slot] == multi[2] == 0 and tensor.entries:
                    bad[(kind, multi)] = tensor
        return bad


def check_roles(roles, params) -> None:
    """roles must name distinct parameters of params; an input error
    names the fault."""
    if len(set(roles)) != len(roles):
        raise InputError(f"roles {roles} name one parameter twice")
    if set(roles) - set(params):
        raise InputError(f"presentation lacks parameters {roles}")


def first_order_slices(H: HopfPresentation, context: Context, exponents):
    """The first-order data of H over context, as (brackets, cobrackets):
    brackets maps each pair i < j to the stored relation [x_i, x_j] and
    cobrackets each generator g to the V (x) V part of Delta(x_g) -
    Delta^op(x_g), each with every monomial's exponent vector e sent to
    exponents(e), or dropped where that is None (NCPoly.repack). Zero
    slices are left out."""
    n = len(H.context.basis)
    brackets, cobrackets = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            sliced = H.rel.bracket_poly(i, j).repack(context, exponents)
            if sliced:
                brackets[(i, j)] = sliced
    for g in range(n):
        vv = H.coproduct_word((g,)).linear_part()
        sliced = (vv - vv.flip()).repack(context, exponents)
        if sliced:
            cobrackets[g] = sliced
    return brackets, cobrackets


def extract_coefficients(H: HopfPresentation, up_to=(2, 2, 2), roles=("t", "h", "z")) -> CoefficientTable:
    """Collect the bracket and cobracket coefficients of a 3-parameter
    presentation per role monomial, at every one through the
    presentation's order, through which each is exact. up_to bounds only
    the exponents that a report prints (within)."""
    params = H.context.params
    check_roles(roles, params)
    idx = [params.index(r) for r in roles]

    def role_exponents(exps):
        multi = tuple(exps[p] for p in idx)
        # a monomial with a parameter outside the roles is no role monomial
        return multi if sum(multi) == sum(exps) else None

    brackets, cobrackets = first_order_slices(
        H, H.context.with_params(roles), role_exponents
    )
    mu, delta = {}, {}  # multi -> [(key, coefficient)]
    for (i, j), poly in brackets.items():
        for (k,), coeff in poly.linear_part().coefficients().items():
            for multi, c in coeff.terms.items():
                mu.setdefault(multi, []).append(((i, j, k), c))
    for g, poly in cobrackets.items():
        for ((a,), (b,)), coeff in poly.coefficients().items():
            if a < b:
                for multi, c in coeff.terms.items():
                    # the difference holds a ^ b as a (x) b - b (x) a
                    delta.setdefault(multi, []).append(((g, a, b), c * _HALF))
    basis = H.context.basis
    return CoefficientTable(
        basis=basis, roles=tuple(roles), bounds=tuple(up_to), order=H.context.order,
        mu={multi: BracketTensor(basis, (), 0, pairs) for multi, pairs in mu.items()},
        delta={multi: CobracketTensor(basis, (), 0, pairs)
               for multi, pairs in delta.items()},
    )


# -- the projected compatibility identities ------------------------------------

# (mu, delta) coefficient pairs whose cocycle defects sum to the thz identity
_THZ_PAIRS = (
    ((1, 1, 0), (0, 0, 1)),
    ((1, 0, 1), (0, 1, 0)),
    ((0, 0, 1), (1, 1, 0)),
    ((1, 0, 0), (0, 1, 1)),
)


def verify_order2(table: CoefficientTable) -> DefectReport:
    """The four second-order compatibility components (z^2, th, tz, hz);
    each is the cocycle defect of one first-order bracket/cobracket pair."""
    table.require([(0, 0, 1), (1, 0, 0), (0, 1, 0)])
    report = DefectReport("order-2")
    components = {
        "z^2": ((0, 0, 1), (0, 0, 1)),
        "th": ((1, 0, 0), (0, 1, 0)),
        "tz": ((1, 0, 0), (0, 0, 1)),
        "hz": ((0, 0, 1), (0, 1, 0)),
    }
    for name, (mu_multi, delta_multi) in components.items():
        defect = order2_component_defect(table, [(mu_multi, delta_multi)])
        report.add(
            name, _DictDefect(defect, table.basis),
            location=lambda: f"mu_{''.join(map(str, mu_multi))} with "
                             f"delta_{''.join(map(str, delta_multi))}",
        )
    return report


def order2_component_defect(table, pairs) -> dict:
    """The sum of delta([x,y]) - ad_x delta(y) + ad_y delta(x) over the
    (mu multi, delta multi) pairs, each for the bracket at mu multi and
    the cobracket at delta multi (tensors.cocycle_defect), as
    {(x, y): {(a, b): Scalar}} with both orientations (a, b) -> v and
    (b, a) -> -v of each nonzero wedge entry of the sum."""
    wedges = {}
    for mu_multi, delta_multi in pairs:
        mu = table.mu.get(mu_multi, BracketTensor(table.basis, (), 0))
        delta = table.delta.get(delta_multi, CobracketTensor(table.basis, (), 0))
        for pair, wedge in cocycle_defect(mu, delta).items():
            summed = wedges.setdefault(pair, {})
            for key, value in wedge.items():
                accumulate(summed, key, value)
    out = {}
    for pair, wedge in wedges.items():
        if not wedge:
            continue
        entries = out[pair] = {}
        for (a, b), value in wedge.items():
            entries[(a, b)] = value.constant_term()
            entries[(b, a)] = -entries[(a, b)]
    return out


def verify_order3_thz(table: CoefficientTable) -> DefectReport:
    """The third-order thz compatibility identity: the sum of the cocycle
    defects of the (mu, delta) pairs (110, 001), (101, 010), (001, 110)
    and (100, 011)."""
    table.require([multi for pair in _THZ_PAIRS for multi in pair])
    report = DefectReport("order-3-thz")
    defect = order2_component_defect(table, _THZ_PAIRS)
    report.add("thz", _DictDefect(defect, table.basis))
    return report


class _DictDefect:
    """Nonzero scalar-dict defect payload with a readable rendering."""

    def __init__(self, data: dict, basis: Basis):
        self.data = data
        self.basis = basis

    def __bool__(self):
        return bool(self.data)

    def __str__(self):
        if not self.data:
            return "0"
        names = self.basis.names
        parts = []
        for (x, y), entries in sorted(self.data.items()):
            inner = " + ".join(
                f"{v}*{names[a]}(x){names[b]}" for (a, b), v in sorted(entries.items())
            )
            parts.append(f"on ({names[x]},{names[y]}): {inner}")
        return "; ".join(parts)


# -- tangent fields ---------------------------------------------------------------


@dataclass
class TangentField:
    context: Context                  # reduced context (direction eliminated)
    base_table: RelationTable
    mu: dict = field(default_factory=dict)     # (i<j) -> NCPoly
    delta: dict = field(default_factory=dict)  # generator -> TensorNCPoly


def tangent_field(H: HopfPresentation, direction: str, base: dict = None) -> TangentField:
    """First derivative of the structure maps along `direction` at
    direction = 0, with the base-point parameters set to their values
    (0, the one exact evaluation; see hopf.specialize). A base value for
    direction itself passes the same rule, so only 0 is accepted.

    mu-components are derivatives of the stored commutators, which the
    relation table keeps in normal form (full generator degree retained);
    delta-components are derivatives of the V (x) V parts of
    Delta - Delta^op (first_order_slices).
    """
    base = base or {}
    params = H.context.params
    if direction not in params:
        raise InputError(f"unknown direction parameter {direction!r}")
    dir_idx = params.index(direction)
    if not all(isinstance(value, Scalar) for value in base.values()):
        raise InputError("tangent base values must be scalars")

    images = {direction: 0, **base}
    reduced = specialize(H, images)
    rcontext = reduced.context
    to_base = exponent_map(params, images, rcontext.params)

    def slice_exponents(exps):
        # the coefficient of direction^1, at the base point
        if exps[dir_idx] != 1:
            return None
        return to_base(exps[:dir_idx] + (0,) + exps[dir_idx + 1:])

    return TangentField(rcontext, reduced.rel,
                        *first_order_slices(H, rcontext, slice_exponents))


@dataclass
class FieldDiff:
    mismatched: list = field(default_factory=list)   # (label, actual, expected)
    extra: list = field(default_factory=list)        # (label, actual); exact mode only

    @property
    def ok(self) -> bool:
        return not self.mismatched and not self.extra


def compare_field(actual: TangentField, expectation: dict) -> FieldDiff:
    """Entrywise comparison against an expectation (document.read_expectation),
    through degree order - 1: the field is a first-power coefficient of
    the direction parameter, so it is exact one degree below the order
    and carries no degree above that.

    In leading mode each entry is compared up to the highest parameter
    degree present in the corresponding expected value (at most
    order - 1), and unlisted entries are ignored; in exact mode values
    must agree through order - 1 and no unlisted entry may be nonzero
    there.
    """
    leading = expectation["mode"] == "leading"
    context = actual.context
    exact = context.order - 1
    if exact < 0:
        raise InputError(
            "a tangent field is exact through order - 1; at order 0 there "
            "is nothing to compare"
        )
    diff = FieldDiff()

    def check(label, value, text, tensor):
        want = parse_expr(text, context)
        if isinstance(want, TensorNCPoly) != tensor:
            raise InputError(f"{label} " + ("needs a tensor expression" if tensor
                                            else "given a tensor expression"))
        want = normalize(want, actual.base_table)
        cut = min(_max_degree(want), exact) if leading else exact
        value, want = value.truncate(cut), want.truncate(cut)
        if value != want:
            diff.mismatched.append((label, value, want))

    index = context.basis.index
    seen_mu, seen_delta = set(), set()
    for left, right, text in expectation["mu"]:
        a, b = index[left], index[right]
        pair = (min(a, b), max(a, b))
        value = actual.mu.get(pair, NCPoly.zero(context))
        check(f"mu({left},{right})", -value if a > b else value, text, False)
        seen_mu.add(pair)
    for gen, text in expectation["delta"]:
        g = index[gen]
        value = actual.delta.get(g, TensorNCPoly.zero(context, 2))
        check(f"delta({gen})", value, text, True)
        seen_delta.add(g)
    if not leading:
        names = context.basis.names
        for (i, j), value in sorted(actual.mu.items()):
            if (i, j) not in seen_mu and value:
                diff.extra.append((f"mu({names[i]},{names[j]})", value))
        for g, value in sorted(actual.delta.items()):
            if g not in seen_delta and value:
                diff.extra.append((f"delta({names[g]})", value))
    return diff


def _max_degree(value) -> int:
    return value.context.monomials.degree(max((m for _, m in value.terms), default=0))
