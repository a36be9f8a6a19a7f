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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .hopf import DefectReport, HopfPresentation, specialize
from .ncpoly import Context, NCPoly, TensorNCPoly
from .params import ParamPoly
from .rewrite import RelationTable, normalize
from .scalars import Scalar, ZERO
from .sparse import accumulate
from .tensors import Basis, BracketTensor, CobracketTensor

_HALF = Scalar(Fraction(1, 2))


@dataclass
class CoefficientTable:
    basis: Basis
    roles: tuple                      # parameter names in (t, h, z) order
    bounds: tuple                     # per-parameter exponent bounds
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

    # -- coefficient maps ------------------------------------------------------

    # m is keyed like a BracketTensor (i, j, k) and q like a
    # CobracketTensor (i, a, b); their _flipped swaps the antisymmetric pair

    def mu(self, multi) -> dict:
        """Antisymmetrised product coefficients, full difference, with
        both orientations present."""
        return _antisymmetric(self._m_at(multi), BracketTensor._flipped, None)

    def msym(self, multi) -> dict:
        return _symmetric(self._m_at(multi), BracketTensor._flipped)

    def delta(self, multi) -> dict:
        """Antisymmetric part of the projected coproduct (wedge values),
        with both orientations present."""
        return _antisymmetric(self._q_at(multi), CobracketTensor._flipped, _HALF)

    def deltasym(self, multi) -> dict:
        return _symmetric(self._q_at(multi), CobracketTensor._flipped)

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


def _symmetric(src: dict, swap) -> dict:
    """Half the sum of the values at a key and at its swap."""
    out = {}
    for first in src:
        for key in (first, swap(first)):
            if key not in out:
                w = (src.get(key, ZERO) + src.get(swap(key), ZERO)) * _HALF
                if w:
                    out[key] = w
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
    parameter monomial within the given per-parameter exponent bounds."""
    params = H.context.params
    if set(roles) - set(params):
        raise InputError(f"presentation lacks parameters {roles}")
    idx = [params.index(r) for r in roles]
    basis = H.context.basis
    n = len(basis)
    table = CoefficientTable(basis=basis, roles=tuple(roles), bounds=tuple(up_to))

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


def _base_m(s1, s2):
    """Base multiplication on unit/generator slots: absorbs units,
    kills generator-generator pairs (their product has no V part)."""
    if s1 is None:
        return [(s2, Scalar(1))]
    if s2 is None:
        return [(s1, Scalar(1))]
    return []


def _coeff_m(table_values):
    def apply(s1, s2):
        if s1 is None or s2 is None:
            return []
        return [
            (k, v)
            for (i, j, k), v in table_values.items()
            if i == s1 and j == s2
        ]
    return apply


def _base_delta(s):
    if s is None:
        return []
    return [((s, None), Scalar(1)), ((None, s), Scalar(1))]


def _coeff_delta(table_values):
    def apply(s):
        if s is None:
            return []
        return [
            ((a, b), v)
            for (i, a, b), v in table_values.items()
            if i == s
        ]
    return apply


def _m_pair(values):
    """The coefficient map on either side of the base multiplication."""
    return [(_base_m, _coeff_m(values)), (_coeff_m(values), _base_m)]


def _d_pair(values):
    return [(_base_delta, _coeff_delta(values)), (_coeff_delta(values), _base_delta)]


def _compose_pair(m_pairs, d_pairs, x, y):
    """Sum of (M1 (x) M2) o (id (x) tau (x) id) o (D1 (x) D2) applied to
    x (x) y, as a dict over output slot pairs."""
    out = {}
    for d1, d2 in d_pairs:
        four = {}
        for (s1, s2), c1 in d1(x):
            for (s3, s4), c2 in d2(y):
                # middle slots swapped
                accumulate(four, (s1, s3, s2, s4), c1 * c2)
        for m1, m2 in m_pairs:
            for (s1, s2, s3, s4), c in four.items():
                for left, cl in m1(s1, s2):
                    for right, cr in m2(s3, s4):
                        accumulate(out, (left, right), c * cl * cr)
    return out


def _lhs_pair(d_values, m_values, x, y):
    out = {}
    for (i, j, k), v in m_values.items():
        if i != x or j != y:
            continue
        for (m, a, b), w in d_values.items():
            if m == k:
                accumulate(out, (a, b), v * w)
    return out


def _identity_defect(lhs_pairs, rhs_terms, basis) -> dict:
    """LHS - RHS on every generator pair; entries keyed (pair, out-slot).
    rhs_terms lists the (m_pairs, d_pairs) compositions summed on the
    right-hand side."""
    n = len(basis)
    out = {}
    for x in range(n):
        for y in range(x + 1, n):
            acc = {}
            for d_values, m_values in lhs_pairs:
                for key, v in _lhs_pair(d_values, m_values, x, y).items():
                    accumulate(acc, key, v)
            for m_pairs, d_pairs in rhs_terms:
                for key, v in _compose_pair(m_pairs, d_pairs, x, y).items():
                    accumulate(acc, key, -v)
            if acc:
                out[(x, y)] = acc
    return out


def verify_order2(table: CoefficientTable) -> DefectReport:
    """The four second-order compatibility components (z^2, th, tz, hz);
    each is the mixed-coefficient identity of one bracket/cobracket pair."""
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
    mu = table.mu(mu_multi)
    delta = table.delta(delta_multi)
    return _identity_defect([(delta, mu)], [(_m_pair(mu), _d_pair(delta))], table.basis)


def verify_order3_thz(table: CoefficientTable) -> DefectReport:
    """The third-order thz compatibility identity, including the
    symmetric-part cross terms."""
    needed = [
        (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    ]
    table.require(needed)
    mu = {multi: table.mu(multi) for multi in needed}
    delta = {multi: table.delta(multi) for multi in needed}
    msym = {multi: table.msym(multi) for multi in needed}
    dsym = {multi: table.deltasym(multi) for multi in needed}

    lhs = [
        (delta[(0, 0, 1)], mu[(1, 1, 0)]),
        (delta[(0, 1, 0)], mu[(1, 0, 1)]),
        (delta[(1, 1, 0)], mu[(0, 0, 1)]),
        (delta[(0, 1, 1)], mu[(1, 0, 0)]),
    ]

    terms = [
        (_m_pair(mu[(1, 1, 0)]), _d_pair(delta[(0, 0, 1)])),
        (
            _m_pair(mu[(1, 0, 1)])
            + [
                (_coeff_m(msym[(0, 0, 1)]), _coeff_m(mu[(1, 0, 0)])),
                (_coeff_m(mu[(0, 0, 1)]), _coeff_m(msym[(1, 0, 0)])),
                (_coeff_m(msym[(1, 0, 0)]), _coeff_m(mu[(0, 0, 1)])),
                (_coeff_m(mu[(1, 0, 0)]), _coeff_m(msym[(0, 0, 1)])),
            ],
            _d_pair(delta[(0, 1, 0)]),
        ),
        (
            _m_pair(mu[(1, 0, 0)]),
            _d_pair(delta[(0, 1, 1)])
            + [
                (_coeff_delta(dsym[(0, 0, 1)]), _coeff_delta(delta[(0, 1, 0)])),
                (_coeff_delta(delta[(0, 0, 1)]), _coeff_delta(dsym[(0, 1, 0)])),
                (_coeff_delta(dsym[(0, 1, 0)]), _coeff_delta(delta[(0, 0, 1)])),
                (_coeff_delta(delta[(0, 1, 0)]), _coeff_delta(dsym[(0, 0, 1)])),
            ],
        ),
        (_m_pair(mu[(0, 0, 1)]), _d_pair(delta[(1, 1, 0)])),
    ]
    out = _identity_defect(lhs, terms, table.basis)
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

        def slot(s):
            return "1" if s is None else names[s]

        parts = []
        for pair, entries in sorted(self.data.items()):
            inner = " + ".join(
                f"{v}*{slot(a)}(x){slot(b)}"
                for (a, b), v in sorted(
                    entries.items(),
                    key=lambda kv: tuple(-1 if s is None else s for s in kv[0][0:2]),
                )
            )
            parts.append(f"on ({names[pair[0]]},{names[pair[1]]}): {inner}")
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
    direction = 0, with further base-point values substituted.

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

    assignment = {direction: Scalar(0)}
    assignment.update(base)
    reduced = specialize(H, assignment)
    rcontext = reduced.context
    rtarget = (rcontext.params, rcontext.working_order)

    images = {direction: ParamPoly.zero(rcontext.params, rcontext.working_order)}
    for name, value in base.items():
        if not isinstance(value, Scalar):
            raise InputError("tangent base values must be scalars")
        images[name] = ParamPoly.const(rcontext.params, rcontext.working_order, value)

    def slice_coeff(poly: ParamPoly) -> ParamPoly:
        sliced = poly.coefficient_of(dir_idx, 1)
        return sliced.substitute(images, rtarget)

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
    parameter, so it is exact one degree below the order.

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
            value = value.truncate(exact)
            if (i, j) not in seen_mu and value:
                diff.extra.append((f"mu({names[i]},{names[j]})", value))
        for g, value in sorted(actual.delta.items()):
            value = value.truncate(exact)
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
