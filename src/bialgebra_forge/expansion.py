"""Taylor data of a three-parameter presentation and the tangent fields.

The multiplication is projected to the generator span: m(x_i (x) x_j) is
the generator-degree-1 part of the normal form of x_i x_j. The coproduct
is projected to V (x) V. Coefficients are collected per parameter
monomial t^i h^j z^k. The antisymmetrised bracket data uses the full
difference m(i,j) - m(j,i) (so the first-order bracket coefficients are
the structure constants themselves), while cobracket data is reported as
wedge coefficients, i.e. the antisymmetric part of the projected
coproduct. Tangent fields keep the full factor difference instead, which
is the normalisation under which the boundary fields reproduce the
cobracket input data.

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
from .hopf import DefectReport, HopfPresentation, specialize
from .ncpoly import Context, NCPoly, TensorNCPoly
from .params import ParamPoly, substitution
from .rewrite import RelationTable, normalize
from .scalars import Scalar, ZERO
from .sparse import accumulate
from .tensors import Basis, BracketTensor, CobracketTensor, cocycle_defect

_HALF = Scalar(Fraction(1, 2))


@dataclass
class CoefficientTable:
    basis: Basis
    roles: tuple                      # parameter names in (t, h, z) order
    bounds: tuple                     # per-parameter exponent bounds
    order: int                        # total degree through which entries are exact
    m: dict = field(default_factory=dict)   # multi -> {(i, j, k): Scalar}
    q: dict = field(default_factory=dict)   # multi -> {(i, a, b): Scalar}

    def _m_at(self, multi) -> dict:
        return self.m.get(multi, {})

    def _q_at(self, multi) -> dict:
        return self.q.get(multi, {})

    def require(self, multis):
        for multi in multis:
            if any(e > b for e, b in zip(multi, self.bounds)):
                raise InputError(
                    f"coefficient table missing multi-index {multi}; "
                    f"extracted bounds are {self.bounds}"
                )
            if sum(multi) > self.order:
                raise InputError(
                    f"multi-index {multi} lies above order {self.order}; "
                    f"its coefficients are not exact there"
                )

    # -- coefficient maps ------------------------------------------------------

    # m is keyed like a BracketTensor (i, j, k) and q like a
    # CobracketTensor (i, a, b); their _flipped swaps the antisymmetric pair

    def mu(self, multi) -> dict:
        """Antisymmetrised product coefficients, full difference, with
        both orientations present."""
        return _antisymmetric(self._m_at(multi), BracketTensor._flipped, None)

    def delta(self, multi) -> dict:
        """Antisymmetric part of the projected coproduct (wedge values),
        with both orientations present."""
        return _antisymmetric(self._q_at(multi), CobracketTensor._flipped, _HALF)

    # -- tensor views ------------------------------------------------------------

    def mu_tensor(self, multi) -> BracketTensor:
        return _canonical_tensor(BracketTensor, self.basis, self.mu(multi))

    def delta_tensor(self, multi) -> CobracketTensor:
        return _canonical_tensor(CobracketTensor, self.basis, self.delta(multi))

    def exclusion_violations(self) -> dict:
        """Entries that the expansion shape forbids: antisymmetrised
        product coefficients at pure-h monomials (including the base
        point) and cobracket coefficients at pure-t monomials."""
        bad = {}
        for multi in self.m:
            i, j, k = multi
            if i == 0 and k == 0:
                mu = self.mu(multi)
                if mu:
                    bad[("mu", multi)] = mu
        for multi in self.q:
            i, j, k = multi
            if j == 0 and k == 0:
                dl = self.delta(multi)
                if dl:
                    bad[("delta", multi)] = dl
        return bad


def _antisymmetric(src: dict, swap, factor) -> dict:
    """(v - v at the swapped key), times factor unless None; both
    orientations present."""
    out = {}
    for key, v in src.items():
        w = v - src.get(swap(key), ZERO)
        if factor is not None:
            w = w * factor
        if w:
            out[key] = w
            out.setdefault(swap(key), -w)
    return out


def _canonical_tensor(cls, basis, values: dict):
    """Scalar tensor holding the lower orientation of each entry pair."""
    out = cls(basis, (), 0)
    for key, v in values.items():
        if key < cls._flipped(key):
            out.set_entry(key, v)
    return out


def extract_coefficients(H: HopfPresentation, up_to=(2, 2, 2), roles=("t", "h", "z")) -> CoefficientTable:
    """Collect m/Q coefficients of a 3-parameter presentation per
    parameter monomial within the given per-parameter exponent bounds;
    every coefficient has total degree at most the presentation's order,
    through which it is exact."""
    params = H.context.params
    if len(set(roles)) != len(roles):
        raise InputError(f"roles {roles} name one parameter twice")
    if set(roles) - set(params):
        raise InputError(f"presentation lacks parameters {roles}")
    idx = [params.index(r) for r in roles]
    basis = H.context.basis
    n = len(basis)
    table = CoefficientTable(
        basis=basis, roles=tuple(roles), bounds=tuple(up_to), order=H.context.order
    )

    def collect(poly: ParamPoly, sink, key):
        for exps, coeff in poly.terms.items():
            if any(exps[p] for p in range(len(params)) if p not in idx):
                continue
            multi = tuple(exps[p] for p in idx)
            if any(e > b for e, b in zip(multi, up_to)):
                continue
            sink.setdefault(multi, {})[key] = coeff

    for i in range(n):
        gi = NCPoly.generator(H.context, i)
        for j in range(n):
            prod = normalize(gi * NCPoly.generator(H.context, j), H.rel)
            for k, coeff in prod.v_part().items():
                collect(coeff, table.m, (i, j, k))
    for i in range(n):
        d = H.coproduct_word((i,))
        for (a, b), coeff in d.vv_part().items():
            collect(coeff, table.q, (i, a, b))
    return table


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
        defect = order2_component_defect(table, mu_multi, delta_multi)
        report.add(
            "order-2", name, _DictDefect(defect, table.basis),
            location=f"mu_{''.join(map(str, mu_multi))} with "
                     f"delta_{''.join(map(str, delta_multi))}",
        )
    return report


def order2_component_defect(table, mu_multi, delta_multi) -> dict:
    """delta([x,y]) - ad_x delta(y) + ad_y delta(x) for the bracket at
    mu_multi and the cobracket at delta_multi (tensors.cocycle_defect),
    as {(x, y): {(a, b): Scalar}} with both orientations (a, b) -> v and
    (b, a) -> -v of each wedge entry."""
    wedges = cocycle_defect(table.mu_tensor(mu_multi), table.delta_tensor(delta_multi))
    out = {}
    for pair, wedge in wedges.items():
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
    out = {}
    for mu_multi, delta_multi in _THZ_PAIRS:
        for pair, entries in order2_component_defect(table, mu_multi, delta_multi).items():
            acc = out.setdefault(pair, {})
            for key, value in entries.items():
                accumulate(acc, key, value)
    out = {pair: entries for pair, entries in out.items() if entries}
    report = DefectReport("order-3-thz")
    report.add("order-3", "thz", _DictDefect(out, table.basis))
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
    direction: str
    base: dict
    context: Context                  # reduced context (direction eliminated)
    base_table: RelationTable
    mu: dict = field(default_factory=dict)     # (i<j) -> NCPoly
    delta: dict = field(default_factory=dict)  # generator -> TensorNCPoly

    def mu_component(self, a: int, b: int) -> NCPoly:
        if a == b:
            return NCPoly.zero(self.context)
        if a < b:
            got = self.mu.get((a, b))
            return got if got is not None else NCPoly.zero(self.context)
        got = self.mu.get((b, a))
        return -got if got is not None else NCPoly.zero(self.context)

    def delta_component(self, g: int) -> TensorNCPoly:
        got = self.delta.get(g)
        return got if got is not None else TensorNCPoly.zero(self.context, 2)


def tangent_field(H: HopfPresentation, direction: str, base: dict = None) -> TangentField:
    """First derivative of the structure maps along `direction` at
    direction = 0, with the base-point parameters set to their values
    (0, the one exact evaluation; see hopf.specialize).

    mu-components are derivatives of the normalised commutators (full
    generator degree retained); delta-components are derivatives of the
    factor-antisymmetrised V (x) V parts of the coproducts.
    """
    base = dict(base or {})
    base.pop(direction, None)
    params = H.context.params
    if direction not in params:
        raise InputError(f"unknown direction parameter {direction!r}")
    dir_idx = params.index(direction)
    if not all(isinstance(value, Scalar) for value in base.values()):
        raise InputError("tangent base values must be scalars")

    images = {direction: 0, **base}
    reduced = specialize(H, images)
    rcontext = reduced.context
    to_base = substitution(params, images, (rcontext.params, rcontext.order))

    def slice_coeff(poly: ParamPoly) -> ParamPoly:
        return to_base(poly.coefficient_of(dir_idx, 1))

    field_obj = TangentField(
        direction=direction, base=base, context=rcontext, base_table=reduced.rel
    )
    n = len(H.context.basis)
    for i in range(n):
        for j in range(i + 1, n):
            bracket = normalize(H.rel.bracket_poly(i, j), H.rel)
            sliced = bracket.map_coeffs(slice_coeff, rcontext)
            if sliced:
                field_obj.mu[(i, j)] = sliced
    for g in range(n):
        d = H.coproduct_word((g,))
        vv = TensorNCPoly(H.context, 2, {
            (w1, w2): c for (w1, w2), c in d.terms.items()
            if len(w1) == 1 and len(w2) == 1
        })
        sliced = (vv - vv.flip()).map_coeffs(slice_coeff, rcontext)
        if sliced:
            field_obj.delta[g] = sliced
    return field_obj


@dataclass
class ExpectedEntry:
    kind: str          # "mu" | "delta"
    key: tuple         # (left, right) names for mu, (gen,) for delta
    text: str


@dataclass
class FieldDiff:
    mode: str
    mismatched: list = field(default_factory=list)   # (entry, actual, expected)
    extra: list = field(default_factory=list)        # (label, actual)

    @property
    def ok(self) -> bool:
        return not self.mismatched and (self.mode == "leading" or not self.extra)

    def to_dict(self):
        return {
            "mode": self.mode,
            "pass": self.ok,
            "mismatched": [
                {"entry": label, "actual": str(a), "expected": str(e)}
                for label, a, e in self.mismatched
            ],
            "extra": [{"entry": label, "actual": str(a)} for label, a in self.extra],
        }


def compare_field(actual: TangentField, expected: list, mode: str = "leading") -> FieldDiff:
    """Entrywise comparison against expected entries, through degree
    order - 1: the field is a first-power coefficient of the direction
    parameter, so it is exact one degree below the order and carries no
    degree above that.

    In leading mode each entry is compared up to the highest parameter
    degree present in the corresponding expected value (at most
    order - 1), and unlisted entries are ignored; in exact mode values
    must agree through order - 1 and no unlisted entry may be nonzero
    there.
    """
    from .exprparse import parse_expr

    if mode not in ("leading", "exact"):
        raise InputError(f"unknown comparison mode {mode!r}")
    context = actual.context
    exact = context.order - 1
    if exact < 0:
        raise InputError(
            "a tangent field is exact through order - 1; at order 0 there "
            "is nothing to compare"
        )
    index = context.basis.index
    diff = FieldDiff(mode=mode)
    seen_mu = set()
    seen_delta = set()
    for entry in expected:
        if entry.kind == "mu":
            left, right = entry.key
            a, b = index[left], index[right]
            value = actual.mu_component(a, b)
            want = parse_expr(entry.text, context)
            if isinstance(want, TensorNCPoly):
                raise InputError(f"mu entry {entry.key} given a tensor expression")
            seen_mu.add((min(a, b), max(a, b)))
            label = f"mu({left},{right})"
        else:
            (gen,) = entry.key
            g = index[gen]
            value = actual.delta_component(g)
            want = parse_expr(entry.text, context)
            if isinstance(want, NCPoly):
                raise InputError(f"delta entry {entry.key} needs a tensor expression")
            seen_delta.add(g)
            label = f"delta({gen})"
        want = normalize(want, actual.base_table)
        cut = min(_max_degree(want), exact) if mode == "leading" else exact
        value = value.truncate(cut)
        want = want.truncate(cut)
        if value != want:
            diff.mismatched.append((label, value, want))
    if mode == "exact":
        names = context.basis.names
        for (i, j), value in sorted(actual.mu.items()):
            if (i, j) not in seen_mu and value:
                diff.extra.append((f"mu({names[i]},{names[j]})", value))
        for g, value in sorted(actual.delta.items()):
            if g not in seen_delta and value:
                diff.extra.append((f"delta({names[g]})", value))
    return diff


def _max_degree(value) -> int:
    degrees = [
        sum(exps)
        for coeff in value.terms.values()
        for exps in coeff.terms.keys()
    ]
    return max(degrees, default=0)
