import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from bialgebra_forge.errors import HypothesisError
from bialgebra_forge.params import ParamPoly
from bialgebra_forge.scalars import I, ONE, Scalar
from bialgebra_forge.tensors import (
    Basis, BracketTensor, CobracketTensor, DeformationFamily, antisymmetry_defect,
    build_family, check_four_pairs, cocycle_defect, cocycle_monomial_split,
    cojacobi_defect, jacobi_defect, mixed_cojacobi_defect, mixed_jacobi_defect,
    rescale_basis,
)

P_X, P_Y, P_Z, L_X, L_Y, L_Z = range(6)


# -- independent oracles -------------------------------------------------------


def brute_jacobi(mu):
    """Cyclic Jacobi sum over every ordered triple, straight from the
    definition; no canonical-orientation shortcuts."""
    n = len(mu.basis)
    out = {}
    for i, j, k, l in product(range(n), repeat=4):
        acc = mu._zero()
        for m in range(n):
            acc = acc + mu.value(i, j, m) * mu.value(m, k, l)
            acc = acc + mu.value(j, k, m) * mu.value(m, i, l)
            acc = acc + mu.value(k, i, m) * mu.value(m, j, l)
        if acc:
            out[(i, j, k, l)] = acc
    return out


def brute_cojacobi(delta):
    return brute_jacobi(delta.dual_bracket())


# -- antisymmetry ---------------------------------------------------------------


def test_antisymmetry_single_orientation_storage(comps):
    assert antisymmetry_defect(comps["mu_100"]) == {}


def test_antisymmetry_both_orientations_consistent(ctx):
    mu = BracketTensor(ctx.basis, ctx.params, ctx.order, {
        (L_Y, L_X, L_Y): ONE, (L_X, L_Y, L_Y): -ONE,
    })
    assert antisymmetry_defect(mu) == {}


def test_antisymmetry_violation_reported(ctx):
    mu = BracketTensor(ctx.basis, ctx.params, ctx.order, {
        (P_Z, P_X, P_Y): I, (P_X, P_Z, P_Y): I,
    })
    defect = antisymmetry_defect(mu)
    zero = ParamPoly.const(ctx.params, ctx.order, 2 * I)
    assert defect == {(P_X, P_Z, P_Y): zero}


def test_antisymmetry_zero_tensor(ctx):
    mu = BracketTensor(ctx.basis, ctx.params, ctx.order)
    assert antisymmetry_defect(mu) == {}


# -- Jacobi / co-Jacobi ------------------------------------------------------------


def test_jacobi_zero_for_both_brackets(comps):
    assert jacobi_defect(comps["mu_100"]) == {}
    assert jacobi_defect(comps["mu_001"]) == {}


def test_cojacobi_zero_for_both_cobrackets(comps):
    assert cojacobi_defect(comps["delta_010"]) == {}
    assert cojacobi_defect(comps["delta_001"]) == {}


def _corrupted_mu001(ctx):
    # [p_z, p_y] = p_z alongside [p_z, p_x] = i p_y breaks Jacobi on
    # (p_x, p_y, p_z): the cyclic sum leaves -i p_y. (Adding the
    # spec-suggested [p_y, p_z] = p_x instead still yields a Lie
    # bracket; the brute-force oracle confirms its defect is zero.)
    return BracketTensor(ctx.basis, ctx.params, ctx.order, {
        (P_Z, P_X, P_Y): I, (P_Z, P_Y, P_Z): ONE,
    })


def test_jacobi_detects_corruption(ctx, comps):
    mu = _corrupted_mu001(ctx)
    engine = jacobi_defect(mu)
    oracle = brute_jacobi(mu)
    assert engine
    assert oracle
    for key, value in engine.items():
        assert oracle[key] == value


def test_cojacobi_detects_corruption(ctx):
    delta = CobracketTensor(ctx.basis, ctx.params, ctx.order, {
        (P_Y, P_X, P_Y): Scalar(Fraction(-1, 2)),
        (P_Z, P_X, P_Z): Scalar(Fraction(-1, 2)),
        (P_X, P_Y, P_Z): ONE,
    })
    engine = cojacobi_defect(delta)
    oracle = brute_cojacobi(delta)
    assert engine
    for key, value in engine.items():
        assert oracle[key] == value


# -- mixed defects -------------------------------------------------------------------


def test_mixed_of_equal_arguments_is_twice_jacobi(ctx, comps):
    mu = _corrupted_mu001(ctx)
    mixed = mixed_jacobi_defect(mu, mu)
    single = jacobi_defect(mu)
    assert set(mixed) == set(single)
    for key, value in mixed.items():
        assert value == single[key] + single[key]


def test_initial_pair_of_brackets_is_compatible(comps):
    assert mixed_jacobi_defect(comps["mu_100"], comps["mu_001"]) == {}


def test_mixed_jacobi_matches_symbolic_pencil(ctx, comps):
    """Oracle: expand the Jacobi defect of x*mu_a + y*mu_b over a fresh
    (x, y) ring and read off the x*y coefficient; the corrupted second
    argument makes every slot substantive."""
    mu_a, mu_b = comps["mu_100"], _corrupted_mu001(ctx)
    ring = ("x", "y")
    pencil = BracketTensor(mu_a.basis, ring, 4)
    for source, name in ((mu_a, "x"), (mu_b, "y")):
        p = ParamPoly.parameter(ring, 4, name)
        for key, value in source.entries.items():
            lifted = value.substitute({}, (ring, 4))
            pencil.set_entry(key, p * lifted)
    full = jacobi_defect(pencil)
    cross = {}
    square_y = {}
    for key, value in full.items():
        xy = value.coefficient_of(0, 1).coefficient_of(1, 1)
        if xy:
            cross[key] = xy.constant_term()
        yy = value.coefficient_of(0, 0).coefficient_of(1, 2)
        if yy:
            square_y[key] = yy.constant_term()
    mixed = {
        key: value.constant_term()
        for key, value in mixed_jacobi_defect(mu_a, mu_b).items()
    }
    single = {
        key: value.constant_term() for key, value in jacobi_defect(mu_b).items()
    }
    assert cross and cross == mixed
    assert square_y == single


def test_mixed_jacobi_detects_corruption(ctx, comps):
    mixed = mixed_jacobi_defect(comps["mu_100"], _corrupted_mu001(ctx))
    assert mixed


# -- cocycle compatibility --------------------------------------------------------------


def test_cocycle_worked_example(comps):
    """(mu_001, delta_001) on the pair (p_z, p_x): both sides equal
    -(i/2) p_x^p_y, so the defect vanishes."""
    mu, delta = comps["mu_001"], comps["delta_001"]
    lhs = {}
    for m, c in mu.bracket(P_Z, P_X).items():
        for (a, b), w in delta.wedge_of(m).items():
            lhs[(a, b)] = lhs.get((a, b), mu._zero()) + w * c
    half_i = ParamPoly.const(mu.params, mu.order, Scalar(0, Fraction(-1, 2)))
    assert lhs == {(P_X, P_Y): half_i}
    assert cocycle_defect(mu, delta) == {}


def test_cocycle_all_pairs_zero_for_initial_pair(comps):
    assert cocycle_defect(comps["mu_100"], comps["delta_010"]) == {}


def test_cocycle_detects_corruption(ctx, comps):
    delta = CobracketTensor(ctx.basis, ctx.params, ctx.order, {
        (L_X, L_Z, L_Y): I, (P_Y, L_Y, L_Z): ONE,
    })
    assert cocycle_defect(comps["mu_100"], delta)


def test_both_orientations_count_once(ctx, comps):
    """A bracket stored in both orientations gives the same [x_i, x_j]
    and cocycle defect as the one orientation alone."""
    small = BracketTensor(ctx.basis, (), 0, {(0, 1, 2): 1, (1, 0, 2): -1})
    assert small.bracket(0, 1) == {2: small.value(0, 1, 2)}
    mu = comps["mu_100"]
    both = BracketTensor(ctx.basis, ctx.params, ctx.order, mu.entries)
    for (i, j, k), value in mu.entries.items():
        if (j, i, k) not in mu.entries:
            both.set_entry((j, i, k), -value)
    assert len(both.entries) == 2 * len(mu.entries)
    n = len(ctx.basis)
    for i, j in product(range(n), repeat=2):
        assert both.bracket(i, j) == mu.bracket(i, j), (i, j)
    delta = CobracketTensor(ctx.basis, ctx.params, ctx.order, {
        (L_X, L_Z, L_Y): I, (P_Y, L_Y, L_Z): ONE,
    })
    assert cocycle_defect(mu, delta)
    assert cocycle_defect(both, delta) == cocycle_defect(mu, delta)


# -- four pairs ------------------------------------------------------------------------------


def test_four_pairs_pass(comps):
    report = check_four_pairs(
        comps["mu_100"], comps["mu_001"], comps["delta_010"], comps["delta_001"]
    )
    assert report.ok
    assert report.failing_checks() == []


def test_four_pairs_all_zero_tensors_pass(ctx):
    zero_mu = BracketTensor(ctx.basis, ctx.params, ctx.order)
    zero_delta = CobracketTensor(ctx.basis, ctx.params, ctx.order)
    assert check_four_pairs(zero_mu, zero_mu, zero_delta, zero_delta).ok


def test_four_pairs_sign_flip_localizes_to_delta001_pairs(ctx, comps):
    flipped = CobracketTensor(ctx.basis, ctx.params, ctx.order, {
        (P_Y, P_X, P_Y): Scalar(Fraction(1, 2)),
        (P_Z, P_X, P_Z): Scalar(Fraction(-1, 2)),
    })
    report = check_four_pairs(
        comps["mu_100"], comps["mu_001"], comps["delta_010"], flipped
    )
    assert not report.ok
    failing = report.failing_checks()
    assert failing
    for check, name in failing:
        assert "delta_001" in name
    assert not report.cocycle["mu_100,delta_010"]
    assert not report.cocycle["mu_001,delta_010"]


# -- family builder -----------------------------------------------------------------------------


def test_family_entries(comps, ctx):
    family = build_family(
        comps["mu_100"], comps["mu_001"], comps["delta_010"], comps["delta_001"],
        param_names=("z1", "t", "z2", "h"),
    )
    z1 = ParamPoly.parameter(ctx.params, ctx.order, "z1")
    t = ParamPoly.parameter(ctx.params, ctx.order, "t")
    assert family.mu.value(P_Z, P_X, P_Y) == z1.scale(I)
    assert family.mu.value(L_Y, L_X, L_Y) == t
    assert cocycle_defect(family.mu, family.delta) == {}


def test_family_specializes_to_pencil_ends(comps, ctx):
    family = build_family(
        comps["mu_100"], comps["mu_001"], comps["delta_010"], comps["delta_001"],
        param_names=("z1", "t", "z2", "h"),
    )
    images = {"z1": 0, "z2": Scalar(0)}
    mu_end = family.mu.substitute(images)
    t = ParamPoly.parameter(ctx.params, ctx.order, "t")
    for (i, j, k), value in comps["mu_100"].entries.items():
        assert mu_end.value(i, j, k) == value * t
    delta_end = family.delta.substitute(images)
    h = ParamPoly.parameter(ctx.params, ctx.order, "h")
    for (i, j, k), value in comps["delta_010"].entries.items():
        assert delta_end.value(i, j, k) == value * h


def test_family_refuses_bad_hypotheses(ctx, comps):
    with pytest.raises(HypothesisError):
        build_family(
            comps["mu_100"], _corrupted_mu001(ctx),
            comps["delta_010"], comps["delta_001"],
            param_names=("z1", "t", "z2", "h"),
        )


def test_family_monomial_split_reproduces_pairwise_defects(ctx, comps):
    """Oracle: the cocycle defect of the two pencils, collected per
    monomial in (z', t, z'', h), must equal the four pairwise defects.
    Checked on a corrupted input where the slots are nonzero; the pencil
    is lifted by hand so the hypothesis guard does not interfere."""
    mu001c = _corrupted_mu001(ctx)
    names = ("z1", "t", "z2", "h")

    def lift(tensor, cls, pname):
        p = ParamPoly.parameter(ctx.params, ctx.order, pname)
        out = cls(ctx.basis, ctx.params, ctx.order)
        for key, value in tensor.entries.items():
            out.set_entry(key, p * value)
        return out

    mu_fam = lift(mu001c, BracketTensor, "z1")
    for key, value in lift(comps["mu_100"], BracketTensor, "t").entries.items():
        mu_fam.set_entry(key, value)
    delta_fam = lift(comps["delta_001"], CobracketTensor, "z2")
    for key, value in lift(comps["delta_010"], CobracketTensor, "h").entries.items():
        delta_fam.set_entry(key, value)
    family = DeformationFamily(mu_fam, delta_fam, names, report=None)

    split = cocycle_monomial_split(family)
    pairwise = {
        (1, 0, 1, 0): cocycle_defect(mu001c, comps["delta_001"]),
        (1, 0, 0, 1): cocycle_defect(mu001c, comps["delta_010"]),
        (0, 1, 1, 0): cocycle_defect(comps["mu_100"], comps["delta_001"]),
        (0, 1, 0, 1): cocycle_defect(comps["mu_100"], comps["delta_010"]),
    }
    expected_slots = {m for m, d in pairwise.items() if d}
    assert expected_slots
    assert set(split) == expected_slots
    for mono_key, per_pair in split.items():
        want = pairwise[mono_key]
        got_pairs = set(per_pair)
        assert got_pairs == set(want)
        for pair, wedge in per_pair.items():
            for key, coeff in wedge.items():
                assert want[pair][key].constant_term() == coeff


# -- rescaling ----------------------------------------------------------------------------------


def test_identity_rescale(comps, ctx):
    scaled = rescale_basis(comps["mu_100"], [1] * 6)
    assert scaled == comps["mu_100"]
    # a stored key whose duplicates summed to zero still hides its flip
    mu = BracketTensor(ctx.basis, ctx.params, ctx.order)
    for key, value in (((L_X, L_Y, L_Z), 1), ((L_X, L_Y, L_Z), -1), ((L_Y, L_X, L_Z), 5)):
        mu.set_entry(key, value)
    scaled = rescale_basis(mu, [1] * 6)
    assert scaled == mu and not scaled.value(L_X, L_Y, L_Z)


def test_rescale_round_trip(comps, ctx):
    scales = [Scalar(2), Scalar(3), Scalar(1, 2), I, Scalar(5), Scalar(-7)]
    inverse = [ONE / s for s in scales]
    scaled = rescale_basis(comps["mu_100"], scales)
    back = rescale_basis(scaled, inverse)
    assert back == comps["mu_100"]


def test_rescale_cocycle_covariance(comps, ctx):
    """cocycle_defect(rescaled pair) equals the rescaled defect with the
    per-entry factor s_i s_j / (s_a s_b)."""
    scales = [Scalar(2), Scalar(3), Scalar(5), Scalar(7), Scalar(11), Scalar(13)]
    mu = comps["mu_100"]
    delta = CobracketTensor(ctx.basis, ctx.params, ctx.order, {
        (L_X, L_Z, L_Y): I, (P_Y, L_Y, L_Z): ONE,
    })
    base = cocycle_defect(mu, delta)
    assert base
    scaled = cocycle_defect(rescale_basis(mu, scales), rescale_basis(delta, scales))
    assert set(scaled) == set(base)
    for (i, j), wedge in base.items():
        for (a, b), value in wedge.items():
            factor = scales[i] * scales[j] / (scales[a] * scales[b])
            assert scaled[(i, j)][(a, b)] == value.scale(factor)


# -- substitution commutes with the defect ops ----------------------------------------------------


def test_substitution_commutes_with_defects(comps, ctx):
    family = build_family(
        comps["mu_100"], _safe_mu001(ctx), comps["delta_010"], comps["delta_001"],
        param_names=("z1", "t", "z2", "h"),
    )
    target = (("t", "h", "z"), ctx.order)
    images = {"z1": "z", "z2": "z"}
    mu_sub = family.mu.substitute(images, target)
    direct = jacobi_defect(mu_sub)
    routed = {
        key: value.substitute(images, target)
        for key, value in jacobi_defect(family.mu).items()
    }
    routed = {key: value for key, value in routed.items() if value}
    assert direct == routed
    delta_sub = family.delta.substitute(images, target)
    direct_c = cocycle_defect(mu_sub, delta_sub)
    assert direct_c == {}


def _safe_mu001(ctx):
    return BracketTensor(ctx.basis, ctx.params, ctx.order, {
        (P_Z, P_X, P_Y): I,
    })


# -- sparse sums against dense references ------------------------------------------------------
#
# The references below read `entries` through their own copy of the
# orientation rule (a stored key wins, even when its value is zero; an
# absent orientation reads as its stored flip, negated) and loop over
# every index tuple, so they share no code with the sums they check.

_RANDOM_PARAMS = ("t", "h")
_RANDOM_ORDER = 2


def _random_poly(rng):
    terms = {
        (rng.randint(0, 2), rng.randint(0, 1)): Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
        for _ in range(rng.randint(1, 2))
    }
    poly = ParamPoly(_RANDOM_PARAMS, _RANDOM_ORDER, terms)
    return poly or ParamPoly.const(_RANDOM_PARAMS, _RANDOM_ORDER, ONE)


def _random_tensor(rng, cls, basis):
    """Random constants stored through set_entry: both orientations,
    consistent or not, diagonal keys, and duplicates that sum to zero
    next to a stored flip."""
    n = len(basis)
    tensor = cls(basis, _RANDOM_PARAMS, _RANDOM_ORDER)

    def key(a, b, single):   # (a, b) is the antisymmetric pair
        return (a, b, single) if cls is BracketTensor else (single, a, b)

    for _ in range(rng.randint(1, 2 * n)):
        a, b, single = (rng.randrange(n) for _ in range(3))
        if rng.random() < 0.2:
            b = a
        value = _random_poly(rng)
        tensor.set_entry(key(a, b, single), value)
        roll = rng.random()
        if roll < 0.3:
            flip = -value if rng.random() < 0.5 else _random_poly(rng)
            tensor.set_entry(key(b, a, single), flip)
        elif roll < 0.55:
            tensor.set_entry(key(a, b, single), -value)
            tensor.set_entry(key(b, a, single), _random_poly(rng))
    return tensor


def _rule(tensor, key):
    i, j, k = key
    flipped = (j, i, k) if isinstance(tensor, BracketTensor) else (i, k, j)
    if key in tensor.entries:
        return tensor.entries[key]
    if flipped in tensor.entries:
        return -tensor.entries[flipped]
    return ParamPoly.zero(tensor.params, tensor.order)


def _dense_cyclic(pairs):
    n = len(pairs[0][0].basis)
    out = {}
    for i, j, k in combinations(range(n), 3):
        for l in range(n):
            acc = ParamPoly.zero(pairs[0][0].params, pairs[0][0].order)
            for m, (first, second) in product(range(n), pairs):
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    acc = acc + _rule(first, (a, b, m)) * _rule(second, (m, c, l))
            if acc:
                out[(i, j, k, l)] = acc
    return out


def _dense_bracket(mu, i, j):
    if i == j:
        return {}
    n = len(mu.basis)
    return {k: _rule(mu, (i, j, k)) for k in range(n) if _rule(mu, (i, j, k))}


def _dense_wedge(delta, i):
    n = len(delta.basis)
    return {
        (a, b): _rule(delta, (i, a, b))
        for a, b in combinations(range(n), 2) if _rule(delta, (i, a, b))
    }


def _dense_cocycle(mu, delta):
    """delta([x_i, x_j]) - ad_xi delta(x_j) + ad_xj delta(x_i) per i<j."""
    n = len(mu.basis)
    out = {}
    for i, j in combinations(range(n), 2):
        acc = {}

        def add(a, b, value):
            if a != b:
                if a > b:
                    a, b, value = b, a, -value
                acc[(a, b)] = acc.get((a, b), mu._zero()) + value

        for m, c in _dense_bracket(mu, i, j).items():
            for (a, b), w in _dense_wedge(delta, m).items():
                add(a, b, w * c)
        for x, y, sign in ((i, j, -1), (j, i, 1)):
            for (a, b), w in _dense_wedge(delta, y).items():
                for c, v in _dense_bracket(mu, x, a).items():
                    add(c, b, (w * v).scale(Scalar(sign)))
                for c, v in _dense_bracket(mu, x, b).items():
                    add(a, c, (w * v).scale(Scalar(sign)))
        acc = {key: value for key, value in acc.items() if value}
        if acc:
            out[(i, j)] = acc
    return out


def _dense_equal(x, y):
    n = len(x.basis)
    return all(_rule(x, key) == _rule(y, key) for key in product(range(n), repeat=3))


def _restored(tensor):
    """The same constants stored the other way round wherever only one
    orientation is stored (a stored zero is dropped by set_entry)."""
    out = type(tensor)(tensor.basis, tensor.params, tensor.order)
    for key, value in tensor.entries.items():
        flipped = tensor._flipped(key)
        if flipped in tensor.entries:
            out.set_entry(key, value)
        else:
            out.set_entry(flipped, -value)
    return out


@pytest.mark.parametrize("seed", range(24))
def test_sparse_sums_match_dense_references(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    basis = Basis(f"x{i}" for i in range(n))
    mu_a, mu_b = (_random_tensor(rng, BracketTensor, basis) for _ in range(2))
    d_a, d_b = (_random_tensor(rng, CobracketTensor, basis) for _ in range(2))
    keys = list(product(range(n), repeat=3))
    for tensor in (mu_a, mu_b, d_a, d_b):
        values = {key: tensor.value(*key) for key in keys}
        assert tensor.oriented() == {key: v for key, v in values.items() if v}
    assert jacobi_defect(mu_a) == _dense_cyclic(((mu_a, mu_a),))
    assert cojacobi_defect(d_a) == _dense_cyclic(((d_a.dual_bracket(),) * 2,))
    assert mixed_jacobi_defect(mu_a, mu_b) == _dense_cyclic(((mu_a, mu_b), (mu_b, mu_a)))
    dual_a, dual_b = d_a.dual_bracket(), d_b.dual_bracket()
    assert mixed_cojacobi_defect(d_a, d_b) == _dense_cyclic(
        ((dual_a, dual_b), (dual_b, dual_a))
    )
    for mu, delta in ((mu_a, d_a), (mu_b, d_b)):
        assert cocycle_defect(mu, delta) == _dense_cocycle(mu, delta)
        for i, j in product(range(n), repeat=2):
            assert mu.bracket(i, j) == _dense_bracket(mu, i, j), (i, j)
        for i in range(n):
            assert delta.wedge_of(i) == _dense_wedge(delta, i), i
    for x, y in ((mu_a, mu_b), (mu_a, _restored(mu_a)), (d_a, _restored(d_a)),
                 (d_b, _restored(d_b)), (mu_b, mu_b)):
        assert (x == y) is _dense_equal(x, y)


def test_equality_compares_parameter_contexts():
    basis = Basis(("a", "b", "c"))
    assert BracketTensor(basis, ("t",), 2) == BracketTensor(basis, ("t",), 2)
    assert BracketTensor(basis, ("t",), 2) != BracketTensor(basis, ("h",), 2)
    assert BracketTensor(basis, ("t",), 2) != BracketTensor(basis, ("t",), 3)
