"""Structure-constant tensors and Lie/co-Lie/bialgebra defect checks.

Bracket constants C^k_ij live in a BracketTensor keyed (i, j, k); the
cobracket constants D_i^jk of the dual side are keyed (i, j, k) as well,
with (j, k) the wedge pair. Storage is sparse and keeps entries exactly
as supplied (both orientations are allowed), so the antisymmetry defect
is an observable rather than an enforced invariant.

Every reading goes through one orientation rule (`oriented()`): a stored
key wins, even when its duplicates summed to zero; an absent orientation
reads as its stored flip, negated. The Jacobi and mixed sums multiply
only pairs of oriented values that share the summed index, so for n
generators they cost O(stored values) on sparse tensors rather than
O(n^5); the cocycle defect reads each tensor's oriented values once,
grouped by generator pair (`brackets()`) and by generator (`wedges()`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import HypothesisError, InputError, MismatchedBasesError
from .params import ParamPoly, substitution
from .scalars import ONE, Scalar
from .sparse import accumulate


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

    def __init__(self, basis: Basis, params, order, entries=None):
        self.basis = basis
        self.params = tuple(params)
        self.order = order
        self.entries = {}
        if entries:
            for key, value in entries.items():
                self.set_entry(key, value)

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

    def set_entry(self, key, value):
        i, j, k = key
        value = self._coerce(value)
        if value:
            self.entries[(i, j, k)] = self.entries.get((i, j, k), self._zero()) + value

    def oriented(self) -> dict:
        """The nonzero constants in both orientations, keyed (i, j, k):
        the flips of the stored keys, negated, overlaid by the stored
        entries, so a stored key hides its flip even when its value is
        zero. Diagonal keys are kept."""
        out = {self._flipped(key): -v for key, v in self.entries.items()}
        out.update(self.entries)
        return {key: v for key, v in out.items() if v}

    def value(self, i, j, k) -> ParamPoly:
        """The constant at (i, j, k) under the orientation rule."""
        return self.oriented().get((i, j, k), self._zero())

    def is_zero(self) -> bool:
        return all(not v for v in self.entries.values())

    def same_shape(self, other):
        if self.basis != other.basis:
            raise MismatchedBasesError("tensors defined over different bases")
        if self.params != other.params or self.order != other.order:
            raise InputError("tensors defined over different parameter contexts")

    def map_entries(self, fn, params=None, order=None):
        out = type(self)(
            self.basis,
            self.params if params is None else params,
            self.order if order is None else order,
        )
        for key, value in self.entries.items():
            new = fn(value)
            if new:
                out.entries[key] = new
        return out

    def substitute(self, images, target=None):
        """Every entry renamed or zeroed (params.substitution)."""
        params, order = (self.params, self.order) if target is None else target
        fn = substitution(self.params, images, (params, order))
        return self.map_entries(fn, tuple(params), order)

    def __eq__(self, other):
        if type(other) is not type(self) or self.basis != other.basis:
            return NotImplemented
        return (
            (self.params, self.order) == (other.params, other.order)
            and self.oriented() == other.oriented()
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
    # a_i -> a_i / s_i multiplies C^k_ij by s_i * s_j / s_k
    inverted_slots = (False, False, True)

    @staticmethod
    def _flipped(key):
        i, j, k = key
        return (j, i, k)

    @staticmethod
    def _key_str(key, names):
        i, j, k = key
        return f"C^{names[k]}_{names[i]},{names[j]}"

    def brackets(self) -> dict:
        """Every [x_i, x_j] with i != j, keyed (i, j), as a map generator
        index -> ParamPoly; diagonal keys are skipped."""
        out = {}
        for (a, b, k), v in self.oriented().items():
            if a != b:
                out.setdefault((a, b), {})[k] = v
        return out

    def bracket(self, i, j) -> dict:
        """[x_i, x_j] as a map generator index -> ParamPoly; empty for
        i == j, whatever a diagonal key stores."""
        return self.brackets().get((i, j), {})


class CobracketTensor(_ConstantTensor):
    """D_i^jk, antisymmetric in (j, k)."""

    kind = "cobracket"
    # a_i -> a_i / s_i multiplies D_i^jk by s_i / (s_j * s_k)
    inverted_slots = (False, True, True)

    @staticmethod
    def _flipped(key):
        i, j, k = key
        return (i, k, j)

    @staticmethod
    def _key_str(key, names):
        i, j, k = key
        return f"D_{names[i]}^{names[j]},{names[k]}"

    def wedges(self) -> dict:
        """Every delta(x_i), keyed i, as canonical wedge coefficients
        {(a<b): ParamPoly}."""
        out = {}
        for (m, a, b), v in self.oriented().items():
            if a < b:
                out.setdefault(m, {})[(a, b)] = v
        return out

    def wedge_of(self, i) -> dict:
        """delta(x_i) as canonical wedge coefficients {(a<b): ParamPoly}."""
        return self.wedges().get(i, {})

    def dual_bracket(self) -> BracketTensor:
        """The bracket on the dual space: C^i_jk := D_i^jk (raw keys
        transposed, orientations preserved)."""
        out = BracketTensor(self.basis, self.params, self.order)
        for (i, j, k), value in self.entries.items():
            out.entries[(j, k, i)] = value
        return out


def rescale_basis(tensor, scales):
    """The tensor in the basis b_i = s_i * a_i, for one nonzero Q(i)
    scalar s_i (a Scalar or an int) per generator: each entry is
    multiplied by s_i*s_j/s_k (bracket) or s_i/(s_j*s_k) (cobracket),
    each key slot contributing its generator's scale, inverted where the
    tensor's inverted_slots says so."""
    if len(scales) != len(tensor.basis):
        raise InputError("one scale per generator required")
    factors = []  # per generator: (s, 1/s), indexed by "inverted"
    for s in scales:
        if not isinstance(s, (Scalar, int)) or not s:
            raise InputError(f"scale {s!r} is not a nonzero Q(i) scalar")
        s = Scalar(s) if isinstance(s, int) else s
        factors.append((s, ONE / s))
    out = type(tensor)(tensor.basis, tensor.params, tensor.order)
    for key, value in tensor.entries.items():
        a, b, c = (
            factors[g][inverted] for g, inverted in zip(key, tensor.inverted_slots)
        )
        out.entries[key] = value.scale(a * b * c)
    return out


# -- wedge helpers -----------------------------------------------------------


def _wedge_add(acc, a, b, value):
    if a == b or not value:
        return
    if a > b:
        a, b = b, a
        value = -value
    accumulate(acc, (a, b), value)


# -- defect computations -----------------------------------------------------


def antisymmetry_defect(tensor) -> dict:
    """Entry (i,j,k) -> C^k_ij + C^k_ji over the stored support."""
    out = {}
    seen = set()
    for key, a in tensor.entries.items():
        flipped = tensor._flipped(key)
        canon = min(key, flipped)
        if canon in seen:
            continue
        seen.add(canon)
        if key == flipped:
            d = a + a  # diagonal entry: antisymmetry forces it to vanish
        elif flipped in tensor.entries:
            d = a + tensor.entries[flipped]
        else:
            continue
        if d:
            out[canon] = d
    return out


def _cyclic_defect(pairs) -> dict:
    """sum over (first, second) in pairs of the cyclic sum
    sum_m F^m_ij S^l_mk + F^m_jk S^l_mi + F^m_ki S^l_mj, for i<j<k.

    Only oriented values meet: F^m_ab S^l_mc is a term exactly when
    (a, b, c) is a cyclic order of three distinct generators, and it
    counts under (i, j, k, l) = (sorted(a, b, c), l)."""
    out = {}
    for first, second in pairs:
        by_m = {}
        for (m, c, l), s in second.oriented().items():
            by_m.setdefault(m, []).append((c, l, s))
        for (a, b, m), f in first.oriented().items():
            for c, l, s in by_m.get(m, ()):
                if a < b < c or b < c < a or c < a < b:
                    term = f * s
                    if term:
                        accumulate(out, (*sorted((a, b, c)), l), term)
    return out


def jacobi_defect(mu: BracketTensor) -> dict:
    """J^l_ijk = sum_m C^m_ij C^l_mk + C^m_jk C^l_mi + C^m_ki C^l_mj,
    reported for i<j<k."""
    return _cyclic_defect(((mu, mu),))


def cojacobi_defect(delta: CobracketTensor) -> dict:
    """Co-Jacobi defect: the Jacobi defect of the dual bracket."""
    return jacobi_defect(delta.dual_bracket())


def mixed_jacobi_defect(mu_a: BracketTensor, mu_b: BracketTensor) -> dict:
    """Bilinear cross term: Jacobi(x*a + y*b) = x^2 J(a) + xy*this + y^2 J(b)."""
    mu_a.same_shape(mu_b)
    return _cyclic_defect(((mu_a, mu_b), (mu_b, mu_a)))


def mixed_cojacobi_defect(d_a: CobracketTensor, d_b: CobracketTensor) -> dict:
    return mixed_jacobi_defect(d_a.dual_bracket(), d_b.dual_bracket())


def _ad_wedge(brackets: dict, i, wedge) -> dict:
    """(ad_xi (x) id + id (x) ad_xi) applied to a wedge element, with
    brackets as read by BracketTensor.brackets."""
    out = {}
    for (a, b), w in wedge.items():
        for c, v in brackets.get((i, a), {}).items():
            _wedge_add(out, c, b, w * v)
        for c, v in brackets.get((i, b), {}).items():
            _wedge_add(out, a, c, w * v)
    return out


def cocycle_defect(mu: BracketTensor, delta: CobracketTensor) -> dict:
    """Classical compatibility defect per generator pair (i<j):

        delta([x_i, x_j]) - ad_{x_i} delta(x_j) + ad_{x_j} delta(x_i)

    with ad acting factorwise on wedges. All-zero iff (mu, delta) is a
    Lie bialgebra.
    """
    mu.same_shape(delta)
    brackets, wedges = mu.brackets(), delta.wedges()
    n = len(mu.basis)
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc = {}
            for m, c in brackets.get((i, j), {}).items():
                for (a, b), w in wedges.get(m, {}).items():
                    _wedge_add(acc, a, b, w * c)
            for (a, b), w in _ad_wedge(brackets, i, wedges.get(j, {})).items():
                _wedge_add(acc, a, b, -w)
            for (a, b), w in _ad_wedge(brackets, j, wedges.get(i, {})).items():
                _wedge_add(acc, a, b, w)
            if acc:
                out[(i, j)] = acc
    return out


# -- four-pair hypothesis report and family builder ---------------------------


@dataclass
class FourPairsReport:
    basis: Basis
    jacobi: dict = field(default_factory=dict)
    cojacobi: dict = field(default_factory=dict)
    mixed_mu: dict = field(default_factory=dict)
    mixed_delta: dict = field(default_factory=dict)
    cocycle: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failing_checks()

    def failing_checks(self):
        out = []
        for name, defects in self.jacobi.items():
            if defects:
                out.append(("jacobi", name))
        for name, defects in self.cojacobi.items():
            if defects:
                out.append(("cojacobi", name))
        if self.mixed_mu:
            out.append(("mixed-jacobi", "mu_100,mu_001"))
        if self.mixed_delta:
            out.append(("mixed-cojacobi", "delta_010,delta_001"))
        for name, defects in self.cocycle.items():
            if defects:
                out.append(("cocycle", name))
        return out


def check_four_pairs(mu_100, mu_001, delta_010, delta_001) -> FourPairsReport:
    """Hypotheses of the two-deformation construction: both brackets Lie,
    both cobrackets co-Lie, the mixed defects zero, and all four
    (bracket, cobracket) pairs compatible."""
    mu_100.same_shape(mu_001)
    delta_010.same_shape(delta_001)
    mu_100.same_shape(delta_010)
    report = FourPairsReport(basis=mu_100.basis)
    report.jacobi["mu_100"] = jacobi_defect(mu_100)
    report.jacobi["mu_001"] = jacobi_defect(mu_001)
    report.cojacobi["delta_010"] = cojacobi_defect(delta_010)
    report.cojacobi["delta_001"] = cojacobi_defect(delta_001)
    report.mixed_mu = mixed_jacobi_defect(mu_100, mu_001)
    report.mixed_delta = mixed_cojacobi_defect(delta_010, delta_001)
    for name, mu, delta in (
        ("mu_100,delta_010", mu_100, delta_010),
        ("mu_001,delta_010", mu_001, delta_010),
        ("mu_100,delta_001", mu_100, delta_001),
        ("mu_001,delta_001", mu_001, delta_001),
    ):
        report.cocycle[name] = cocycle_defect(mu, delta)
    return report


@dataclass
class DeformationFamily:
    mu: BracketTensor        # z' * mu_001 + t * mu_100
    delta: CobracketTensor   # z'' * delta_001 + h * delta_010
    param_names: tuple       # (z', t, z'', h)
    report: FourPairsReport


def build_family(
    mu_100, mu_001, delta_010, delta_001,
    param_names=("z1", "t", "z2", "h"),
) -> DeformationFamily:
    """The two linear pencils of the construction, as one object.

    param_names gives (z', t, z'', h), all four among the inputs'
    parameters; the returned tensors live over the inputs' context.
    """
    report = check_four_pairs(mu_100, mu_001, delta_010, delta_001)
    if not report.ok:
        raise HypothesisError("four-pair hypothesis fails", report)
    zp, t, zpp, h = param_names
    params, order = mu_100.params, mu_100.order
    for name in param_names:
        if name not in params:
            raise InputError(f"family parameter {name!r} missing from context")

    def lift(tensor, cls, pname):
        p = ParamPoly.parameter(params, order, pname)
        out = cls(tensor.basis, params, order)
        for key, value in tensor.entries.items():
            out.entries[key] = p * value
        return out

    mu = lift(mu_001, BracketTensor, zp)
    for key, value in lift(mu_100, BracketTensor, t).entries.items():
        mu.set_entry(key, value)
    delta = lift(delta_001, CobracketTensor, zpp)
    for key, value in lift(delta_010, CobracketTensor, h).entries.items():
        delta.set_entry(key, value)
    return DeformationFamily(mu=mu, delta=delta, param_names=param_names, report=report)


def cocycle_monomial_split(family: DeformationFamily) -> dict:
    """Collect the family's cocycle defect by parameter monomial in the
    four family parameters; the four slots are the pairwise defects."""
    defect = cocycle_defect(family.mu, family.delta)
    zp, t, zpp, h = family.param_names
    params = family.mu.params
    idx = {name: params.index(name) for name in family.param_names}
    split = {}
    for pair, wedge in defect.items():
        for key, poly in wedge.items():
            for exps, coeff in poly.terms.items():
                mono = tuple(exps[idx[name]] for name in family.param_names)
                split.setdefault(mono, {}).setdefault(pair, {})[key] = coeff
    return split
