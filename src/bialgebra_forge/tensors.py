"""Structure-constant tensors and Lie/co-Lie/bialgebra defect checks.

Bracket constants C^k_ij live in a BracketTensor keyed (i, j, k); the
cobracket constants D_i^jk of the dual side are keyed (i, j, k) as well,
with (j, k) the wedge pair. A tensor keeps one value per antisymmetric
pair, under its canonical key: i < j for a bracket, j < k for a
cobracket. The constructor reads the raw (key, value) pairs once:

- repeats add up, and a key whose values sum to zero still counts as
  given;
- a pair given in one orientation is antisymmetric by convention;
- a pair given in both orientations keeps (v - v')/2 and records v + v'
  as its antisymmetry defect;
- a diagonal key reads zero and records 2v.

So antisymmetry is a reported observable, and every other check reads
the one antisymmetric tensor; `oriented()` is its plain +- view.

Every other Lie-data check comes from one Jacobi pass (`lie_checks`).
By Drinfeld's Manin-triple criterion, (g, delta) is a Lie bialgebra
exactly when the double g + g* is a Lie algebra, so Jacobi, co-Jacobi,
the mixed checks and the cocycle conditions are the parameter monomials
of the double's Jacobi identity. The pass reads three of its blocks:
e e e -> e (Jacobi), f f f -> f (co-Jacobi) and e e f -> e (the
cocycle), the last with its wedge kept as a < b; the other blocks
repeat these. It multiplies only values that share the summed index, so
for n generators it costs O(stored values) on sparse tensors rather
than O(n^5). It packs each entry once (params.Monomials), forms every
term with params.coefficient_product, and turns each defect back into
a ParamPoly once at the end, so the tensors hold ParamPoly entries only
at the edges: construction, substitution and printing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisError, InputError, MismatchedBasesError
from .params import Monomials, ParamPoly, coefficient_product, substitution
from .scalars import ONE, Scalar
from .sparse import accumulate, deduct


class Basis:
    """Fixed ordered list of generator names."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("generator names must be unique")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Basis) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Basis{self.names}"


class _ConstantTensor:
    """Common storage for bracket and cobracket constants."""

    kind = "?"

    def __init__(self, basis: Basis, params, order, entries=()):
        """entries: raw (key, value) pairs, or a dict of them."""
        self.basis = basis
        self.params = tuple(params)
        self.order = order
        given = {}  # canonical key -> [value given there, value given flipped]
        for key, value in entries.items() if isinstance(entries, dict) else entries:
            value = self._coerce(value)
            if value:
                flipped = self._flipped(key)
                sides = given.setdefault(min(key, flipped), [None, None])
                side = key > flipped
                sides[side] = value if sides[side] is None else sides[side] + value
        self.entries, self.antisymmetry = {}, {}
        for key, (v, w) in given.items():
            if key == self._flipped(key):
                value, defect = None, v + v
            elif v is None or w is None:
                value, defect = -w if v is None else v, None
            else:
                value, defect = (v - w).scale(ONE / 2), v + w
            if value:
                self.entries[key] = value
            if defect:
                self.antisymmetry[key] = defect

    def _zero(self) -> ParamPoly:
        return ParamPoly.zero(self.params, self.order)

    def _coerce(self, value) -> ParamPoly:
        if isinstance(value, ParamPoly):
            if value.params != self.params or value.order != self.order:
                raise InputError("entry context mismatch")
            return value
        if isinstance(value, (Scalar, int)):
            return ParamPoly.const(self.params, self.order, value)
        raise InputError(f"bad tensor entry {value!r}")

    def oriented(self) -> dict:
        """The nonzero constants in both orientations, keyed (i, j, k)."""
        out = dict(self.entries)
        out.update((self._flipped(key), -v) for key, v in self.entries.items())
        return out

    def value(self, i, j, k) -> ParamPoly:
        """The constant at (i, j, k), in either orientation."""
        return self.oriented().get((i, j, k), self._zero())

    def same_shape(self, other):
        if self.basis != other.basis:
            raise MismatchedBasesError("tensors defined over different bases")
        if self.params != other.params or self.order != other.order:
            raise InputError("tensors defined over different parameter contexts")

    def substitute(self, images, target=None):
        """Every canonical value and antisymmetry defect renamed or zeroed
        (params.substitution), over target = (params, order)."""
        params, order = (self.params, self.order) if target is None else target
        fn = substitution(self.params, images, (params, order))
        out = type(self)(self.basis, params, order)
        for mine, theirs in ((self.entries, out.entries),
                             (self.antisymmetry, out.antisymmetry)):
            for key, value in mine.items():
                new = fn(value)
                if new:
                    theirs[key] = new
        return out

    def __eq__(self, other):
        if type(other) is not type(self) or self.basis != other.basis:
            return NotImplemented
        return (
            (self.params, self.order) == (other.params, other.order)
            and self.entries == other.entries
        )

    def __repr__(self):
        names = self.basis.names
        body = ", ".join(
            f"{self._key_str(key, names)}: {value}"
            for key, value in sorted(self.entries.items())
        )
        return f"{type(self).__name__}({{{body}}})"


class BracketTensor(_ConstantTensor):
    """C^k_ij, antisymmetric in (i, j)."""

    kind = "bracket"

    @staticmethod
    def _flipped(key):
        i, j, k = key
        return (j, i, k)

    @staticmethod
    def _key_str(key, names):
        i, j, k = key
        return f"C^{names[k]}_{names[i]},{names[j]}"


class CobracketTensor(_ConstantTensor):
    """D_i^jk, antisymmetric in (j, k)."""

    kind = "cobracket"

    @staticmethod
    def _flipped(key):
        i, j, k = key
        return (i, k, j)

    @staticmethod
    def _key_str(key, names):
        i, j, k = key
        return f"D_{names[i]}^{names[j]},{names[k]}"


# -- Lie data: one Jacobi pass over the Drinfeld double -----------------------


def antisymmetry_defect(tensor) -> dict:
    """Canonical key -> C^k_ij + C^k_ji (D_i^jk + D_i^kj) of the input,
    nonzero only where a pair was given in both orientations or on the
    diagonal."""
    return dict(tensor.antisymmetry)


def _jacobi_to_g(brackets, cobrackets, n, limit, out):
    """Add the terms of the double's Jacobi sum with output in g to
    out[(tag, tag)], a flat map (key, packed monomial) -> Scalar, for
    brackets C (tagged values (i<j, k) -> C^k_ij) and cobrackets D
    (tagged values (a<b, m) -> D_m^ab), each value a packed coefficient;
    a term's monomials at or past limit drop (coefficient_product).

    The double's generators are e_i (index i) and f^a (index n + a), and
    its values [x, y] -> w are C^k_ij (e_i, e_j -> e_k), D_m^ab
    (e_m, f^a -> e_b) and -C^k_ij (e_i, f^k -> f^j). A Jacobi term is
    [x, y]^m [m, z]^l: the first factor is read canonical only (x < y),
    and the term counts with the sign of the permutation (x, y, z) under
    the sorted triple and l. Only the blocks e e e -> e and e e f -> e
    are formed, the latter at f^a with a < l only; the other blocks
    repeat them."""
    firsts = []   # (x, y, m, tag, negated, value): [x, y] -> m, x < y
    seconds = {}  # m -> [(z, l, tag, negated, value)]: [m, z] -> e_l
    for tag, values in brackets:
        for (i, j, k), c in values.items():
            firsts.append((i, j, k, tag, False, c))
            for a, b, negated in ((i, j, False), (j, i, True)):
                seconds.setdefault(a, []).append((b, k, tag, negated, c))
                if cobrackets:
                    firsts.append((a, n + k, n + b, tag, not negated, c))
    for tag, values in cobrackets:
        for (a, b, m), d in values.items():
            seconds.setdefault(m, []).append((n + a, b, tag, False, d))  # a < b
            for p, q, negated in ((a, b, False), (b, a, True)):
                firsts.append((m, n + p, q, tag, negated, d))
                seconds.setdefault(n + p, []).append((m, q, tag, not negated, d))
    for x, y, m, first_tag, first_negated, f in firsts:
        for z, l, tag, negated, s in seconds.get(m, ()):
            if z == x or z == y or y >= n and (z >= n or y - n >= l):
                continue  # not three generators, two duals, or a reversed wedge
            if z > y:
                key = (x, y, z, l)
            elif z > x:
                key, negated = (x, z, y, l), not negated
            else:
                key = (z, x, y, l)
            term = coefficient_product(f, s, limit)
            if term:
                acc = out.setdefault((min(first_tag, tag), max(first_tag, tag)), {})
                update = deduct if negated is not first_negated else accumulate
                for m, c in term:
                    update(acc, (key, m), c)


def lie_checks(brackets, cobrackets) -> dict:
    """Every Lie-data check of one or two brackets and one or two
    cobrackets, each given as (label, tensor), mapped to its defects in
    report order: antisymmetry of each; jacobi of each bracket, cojacobi
    of each cobracket; mixed-jacobi (mixed-cojacobi) when there are two
    brackets (cobrackets); the cocycle of each (bracket, cobracket) pair.

    By Drinfeld's Manin-triple criterion these are the parameter
    monomials of one identity: the Jacobi identity of the double g + g*
    of the pencils sum p_mu mu and sum p_delta delta. Each composition
    is tagged by its position, and a term's pencil monomial is the pair
    of tags of its two factors. The defect of e e e -> e is the Jacobi
    defect J^l_ijk (i<j<k), that of f f f -> f the co-Jacobi one, and the
    e_l coefficient of J(e_i, e_j, f^a) is the (a, l) wedge component of
    delta([x_i, x_j]) - ad_xi delta(x_j) + ad_xj delta(x_i)."""
    labelled = [*brackets, *cobrackets]
    if not labelled:
        return {}
    first = labelled[0][1]
    for _, tensor in labelled[1:]:
        first.same_shape(tensor)
    n = len(first.basis)
    monomials = Monomials(first.params, first.order)
    pack = monomials.pairs
    mu_values = [(p, {key: pack(c) for key, c in tensor.entries.items()})
                 for p, (_, tensor) in enumerate(brackets)]
    # a cobracket's values as its dual bracket's: D_m^ab keyed (a, b, m)
    delta_values = [(q, {(a, b, m): pack(d) for (m, a, b), d in tensor.entries.items()})
                    for q, (_, tensor) in enumerate(cobrackets, len(brackets))]
    limit = monomials.limit(first.order)
    by_monomial = {}
    _jacobi_to_g(mu_values, delta_values, n, limit, by_monomial)
    # f f f -> f is the e e e -> e block of the dual pair's double
    _jacobi_to_g(delta_values, [], n, limit, by_monomial)

    def read(p, q):
        """The defect of the pencil monomial p_p p_q, {key: ParamPoly}."""
        grouped = {}
        for (key, m), c in by_monomial.get((p, q), {}).items():
            grouped.setdefault(key, []).append((m, c))
        return {key: monomials.poly(pairs) for key, pairs in grouped.items()}

    names = [label for label, _ in labelled]
    mus, deltas = range(len(brackets)), range(len(brackets), len(labelled))
    checks = {f"antisymmetry {label}": antisymmetry_defect(t) for label, t in labelled}
    checks.update((f"jacobi {names[p]}", read(p, p)) for p in mus)
    checks.update((f"cojacobi {names[q]}", read(q, q)) for q in deltas)
    if len(mus) == 2:
        checks["mixed-jacobi"] = read(*mus)
    if len(deltas) == 2:
        checks["mixed-cojacobi"] = read(*deltas)
    for p in mus:
        for q in deltas:
            cocycle = {}
            for (i, j, a, b), value in read(p, q).items():
                cocycle.setdefault((i, j), {})[(a - n, b)] = value
            checks[f"cocycle ({names[p]},{names[q]})"] = cocycle
    return checks


def jacobi_defect(mu: BracketTensor) -> dict:
    """J^l_ijk = sum_m C^m_ij C^l_mk + C^m_jk C^l_mi + C^m_ki C^l_mj,
    reported for i<j<k."""
    return lie_checks([("mu", mu)], [])["jacobi mu"]


def cojacobi_defect(delta: CobracketTensor) -> dict:
    """Co-Jacobi defect: the Jacobi defect of the dual bracket."""
    return lie_checks([], [("delta", delta)])["cojacobi delta"]


def cocycle_defect(mu: BracketTensor, delta: CobracketTensor) -> dict:
    """Classical compatibility defect per generator pair (i<j):

        delta([x_i, x_j]) - ad_{x_i} delta(x_j) + ad_{x_j} delta(x_i)

    with ad acting factorwise on wedges, as canonical wedge components.
    All-zero iff (mu, delta) is a Lie bialgebra."""
    return lie_checks([("mu", mu)], [("delta", delta)])["cocycle (mu,delta)"]


# -- four-pair hypothesis and family builder -----------------------------------

# the parameters of the pencils z1*mu_001 + t*mu_100, z2*delta_001 + h*delta_010
FAMILY_PARAMS = ("z1", "t", "z2", "h")


def check_four_pairs(mu_100, mu_001, delta_010, delta_001) -> dict:
    """Hypotheses of the two-deformation construction (lie_checks): all
    four inputs antisymmetric, both brackets Lie, both cobrackets co-Lie,
    the mixed defects zero, and all four (bracket, cobracket) pairs
    compatible. The hypothesis holds iff every defect is empty."""
    return lie_checks([("mu_001", mu_001), ("mu_100", mu_100)],
                      [("delta_001", delta_001), ("delta_010", delta_010)])


@dataclass
class DeformationFamily:
    mu: BracketTensor        # z1 * mu_001 + t * mu_100
    delta: CobracketTensor   # z2 * delta_001 + h * delta_010


def build_family(mu_100, mu_001, delta_010, delta_001) -> DeformationFamily:
    """The two linear pencils of the construction, as one object, over
    the inputs' context, which must have the FAMILY_PARAMS."""
    failing = [
        label for label, defects in
        check_four_pairs(mu_100, mu_001, delta_010, delta_001).items() if defects
    ]
    if failing:
        raise HypothesisError(failing)
    params, order = mu_100.params, mu_100.order
    for name in FAMILY_PARAMS:
        if name not in params:
            raise InputError(f"family parameter {name!r} missing from context")

    def pencil(cls, terms):
        return cls(mu_100.basis, params, order, [
            (key, ParamPoly.parameter(params, order, pname) * value)
            for pname, tensor in terms for key, value in tensor.entries.items()
        ])

    terms = list(zip(FAMILY_PARAMS, (mu_001, mu_100, delta_001, delta_010)))
    return DeformationFamily(pencil(BracketTensor, terms[:2]),
                             pencil(CobracketTensor, terms[2:]))

