import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from bialgebra_forge.errors import HypothesisError
from bialgebra_forge.params import ParamPoly
from bialgebra_forge.scalars import I, ONE, Scalar
from bialgebra_forge.tensors import (
    FAMILY_PARAMS, Basis, BracketTensor, CobracketTensor, DeformationFamily,
    antisymmetry_defect, build_family, check_four_pairs, cocycle_defect,
    cojacobi_defect, jacobi_defect, lie_checks,
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


def dual_bracket(delta):
    """The bracket on the dual space, C^i_jk := D_i^jk."""
    return BracketTensor(delta.basis, delta.params, delta.order,
                         {(j, k, i): v for (i, j, k), v in delta.entries.items()})


def brute_cojacobi(delta):
    return brute_jacobi(dual_bracket(delta))


def bracket(mu, i, j) -> dict:
    """[x_i, x_j] as a map generator index -> value."""
    return {k: v for (a, b, k), v in mu.oriented().items() if (a, b) == (i, j)}


def wedge(delta, i) -> dict:
    """delta(x_i) as canonical wedge coefficients {(a<b): value}."""
    return {(a, b): v for (m, a, b), v in delta.entries.items() if m == i}


def mixed_jacobi(mu_a, mu_b) -> dict:
    return lie_checks([("a", mu_a), ("b", mu_b)], [])["mixed-jacobi"]


def mixed_cojacobi(d_a, d_b) -> dict:
    return lie_checks([], [("a", d_a), ("b", d_b)])["mixed-cojacobi"]


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


def test_identity_rescale(ctx):
    """A key whose duplicates summed to zero still counts as given next to
    its flip: the pair reads half the difference and reports the sum."""
    mu = BracketTensor(ctx.basis, ctx.params, ctx.order, [
        ((L_X, L_Y, L_Z), 1), ((L_X, L_Y, L_Z), -1), ((L_Y, L_X, L_Z), 5)])
    five = ParamPoly.const(ctx.params, ctx.order, 5)
    assert antisymmetry_defect(mu) == {(L_X, L_Y, L_Z): five}
    assert mu.value(L_X, L_Y, L_Z) == five.scale(Scalar(Fraction(-1, 2)))


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
    mixed = mixed_jacobi(mu, mu)
    single = jacobi_defect(mu)
    assert set(mixed) == set(single)
    for key, value in mixed.items():
        assert value == single[key] + single[key]


def test_initial_pair_of_brackets_is_compatible(comps):
    assert mixed_jacobi(comps["mu_100"], comps["mu_001"]) == {}


def test_mixed_jacobi_matches_symbolic_pencil(ctx, comps):
    """Oracle: expand the Jacobi defect of x*mu_a + y*mu_b over a fresh
    (x, y) ring and read off the x*y coefficient; the corrupted second
    argument makes every slot substantive."""
    mu_a, mu_b = comps["mu_100"], _corrupted_mu001(ctx)
    ring = ("x", "y")
    pencil = BracketTensor(mu_a.basis, ring, 4, [
        (key, ParamPoly.parameter(ring, 4, name) * value.substitute({}, (ring, 4)))
        for source, name in ((mu_a, "x"), (mu_b, "y"))
        for key, value in source.entries.items()
    ])
    full = jacobi_defect(pencil)
    cross = {}
    square_y = {}
    for key, value in full.items():
        # the x*y and y^2 coefficients, by (x, y) exponents
        if (1, 1) in value.terms:
            cross[key] = value.terms[(1, 1)]
        if (0, 2) in value.terms:
            square_y[key] = value.terms[(0, 2)]
    mixed = {
        key: value.constant_term()
        for key, value in mixed_jacobi(mu_a, mu_b).items()
    }
    single = {
        key: value.constant_term() for key, value in jacobi_defect(mu_b).items()
    }
    assert cross and cross == mixed
    assert square_y == single


def test_mixed_jacobi_detects_corruption(ctx, comps):
    mixed = mixed_jacobi(comps["mu_100"], _corrupted_mu001(ctx))
    assert mixed


# -- cocycle compatibility --------------------------------------------------------------


def test_cocycle_worked_example(comps):
    """(mu_001, delta_001) on the pair (p_z, p_x): both sides equal
    -(i/2) p_x^p_y, so the defect vanishes."""
    mu, delta = comps["mu_001"], comps["delta_001"]
    lhs = {}
    for m, c in bracket(mu, P_Z, P_X).items():
        for (a, b), w in wedge(delta, m).items():
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
    """A bracket given in both orientations consistently is stored once,
    as the one orientation alone, with the same [x_i, x_j] and cocycle
    defect; given inconsistently, it reads half the difference and
    reports the sum."""
    small = BracketTensor(ctx.basis, (), 0, {(0, 1, 2): 1, (1, 0, 2): -1})
    assert bracket(small, 0, 1) == {2: small.value(0, 1, 2)}
    assert small.entries == BracketTensor(ctx.basis, (), 0, {(1, 0, 2): -1}).entries
    skew = BracketTensor(ctx.basis, (), 0, {(0, 1, 2): 1, (1, 0, 2): 3})
    assert bracket(skew, 0, 1) == {2: ParamPoly.const((), 0, -1)}
    assert antisymmetry_defect(skew) == {(0, 1, 2): ParamPoly.const((), 0, 4)}
    mu = comps["mu_100"]
    both = BracketTensor(ctx.basis, ctx.params, ctx.order, [
        *mu.entries.items(), *(((j, i, k), -v) for (i, j, k), v in mu.entries.items())
    ])
    assert both.entries == mu.entries and antisymmetry_defect(both) == {}
    n = len(ctx.basis)
    for i, j in product(range(n), repeat=2):
        assert bracket(both, i, j) == bracket(mu, i, j), (i, j)
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
    assert not any(report.values())
    assert [label for label, defects in report.items() if defects] == []


def test_four_pairs_all_zero_tensors_pass(ctx):
    zero_mu = BracketTensor(ctx.basis, ctx.params, ctx.order)
    zero_delta = CobracketTensor(ctx.basis, ctx.params, ctx.order)
    assert not any(check_four_pairs(zero_mu, zero_mu, zero_delta, zero_delta).values())


def test_four_pairs_sign_flip_localizes_to_delta001_pairs(ctx, comps):
    flipped = CobracketTensor(ctx.basis, ctx.params, ctx.order, {
        (P_Y, P_X, P_Y): Scalar(Fraction(1, 2)),
        (P_Z, P_X, P_Z): Scalar(Fraction(-1, 2)),
    })
    report = check_four_pairs(
        comps["mu_100"], comps["mu_001"], comps["delta_010"], flipped
    )
    assert any(report.values())
    failing = [label for label, defects in report.items() if defects]
    assert failing
    for label in failing:
        assert "delta_001" in label
    assert not report["cocycle (mu_100,delta_010)"]
    assert not report["cocycle (mu_001,delta_010)"]


def test_lie_checks_reports_in_order(comps):
    """Antisymmetry of each composition, then jacobi of each bracket,
    cojacobi of each cobracket, the mixed checks of two of a kind and
    the cocycle of each (bracket, cobracket) pair."""
    mu, delta = comps["mu_100"], comps["delta_010"]
    assert lie_checks([], []) == {}
    assert list(lie_checks([("m", mu)], [])) == ["antisymmetry m", "jacobi m"]
    assert list(lie_checks([], [("d", delta)])) == ["antisymmetry d", "cojacobi d"]
    assert list(lie_checks([("m", mu)], [("d", delta)])) == [
        "antisymmetry m", "antisymmetry d", "jacobi m", "cojacobi d", "cocycle (m,d)"]
    assert list(check_four_pairs(
        comps["mu_100"], comps["mu_001"], comps["delta_010"], comps["delta_001"])) == [
        "antisymmetry mu_001", "antisymmetry mu_100", "antisymmetry delta_001",
        "antisymmetry delta_010", "jacobi mu_001", "jacobi mu_100", "cojacobi delta_001",
        "cojacobi delta_010", "mixed-jacobi", "mixed-cojacobi",
        "cocycle (mu_001,delta_001)", "cocycle (mu_001,delta_010)",
        "cocycle (mu_100,delta_001)", "cocycle (mu_100,delta_010)"]


# -- family builder -----------------------------------------------------------------------------


def test_family_entries(comps, ctx):
    family = build_family(
        comps["mu_100"], comps["mu_001"], comps["delta_010"], comps["delta_001"],
    )
    z1 = ParamPoly.parameter(ctx.params, ctx.order, "z1")
    t = ParamPoly.parameter(ctx.params, ctx.order, "t")
    assert family.mu.value(P_Z, P_X, P_Y) == z1.scale(I)
    assert family.mu.value(L_Y, L_X, L_Y) == t
    assert cocycle_defect(family.mu, family.delta) == {}


def test_family_specializes_to_pencil_ends(comps, ctx):
    family = build_family(
        comps["mu_100"], comps["mu_001"], comps["delta_010"], comps["delta_001"],
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
    with pytest.raises(HypothesisError) as info:
        build_family(
            comps["mu_100"], _corrupted_mu001(ctx),
            comps["delta_010"], comps["delta_001"],
        )
    report = check_four_pairs(
        comps["mu_100"], _corrupted_mu001(ctx), comps["delta_010"], comps["delta_001"]
    )
    assert info.value.failing
    assert info.value.failing == [label for label, defects in report.items() if defects]


def test_family_keeps_stored_keys_of_both_pencils(ctx):
    """A key of mu_100 whose duplicates sum to zero still counts as
    given: next to its flip it makes mu_100 fail antisymmetry, and the
    family is refused. Given consistently, both orientations read as one
    value, and the family reads z1*mu_001 + t*mu_100 on it."""
    zero_mu = BracketTensor(ctx.basis, ctx.params, ctx.order)
    zero_delta = CobracketTensor(ctx.basis, ctx.params, ctx.order)
    zero_sum = [((L_X, L_Y, L_Z), 1), ((L_X, L_Y, L_Z), -1), ((L_Y, L_X, L_Z), 1)]
    mu_100 = BracketTensor(ctx.basis, ctx.params, ctx.order, zero_sum)
    half = ParamPoly.const(ctx.params, ctx.order, Scalar(Fraction(-1, 2)))
    assert mu_100.value(L_X, L_Y, L_Z) == half
    with pytest.raises(HypothesisError) as info:
        build_family(mu_100, zero_mu, zero_delta, zero_delta)
    assert info.value.failing == ["antisymmetry mu_100"]
    mu_100 = BracketTensor(ctx.basis, ctx.params, ctx.order,
                           zero_sum + [((L_X, L_Y, L_Z), -1)])
    family = build_family(mu_100, zero_mu, zero_delta, zero_delta)
    t = ParamPoly.parameter(ctx.params, ctx.order, "t")
    assert family.mu.value(L_Y, L_X, L_Z) == t and family.mu.value(L_X, L_Y, L_Z) == -t


def test_family_of_flipped_pencils_reads_their_sum(ctx):
    """mu_001 = {[l_x,l_y] = l_z} and mu_100 = {[l_y,l_x] = l_z} give
    the family z1*mu_001 + t*mu_100, which is z1 - t at [l_x,l_y]."""
    mu_001 = BracketTensor(ctx.basis, ctx.params, ctx.order, {(L_X, L_Y, L_Z): 1})
    mu_100 = BracketTensor(ctx.basis, ctx.params, ctx.order, {(L_Y, L_X, L_Z): 1})
    zero_delta = CobracketTensor(ctx.basis, ctx.params, ctx.order)
    assert not any(check_four_pairs(mu_100, mu_001, zero_delta, zero_delta).values())
    family = build_family(mu_100, mu_001, zero_delta, zero_delta)
    z1 = ParamPoly.parameter(ctx.params, ctx.order, "z1")
    t = ParamPoly.parameter(ctx.params, ctx.order, "t")
    assert family.mu.value(L_X, L_Y, L_Z) == z1 - t
    assert family.mu.value(L_Y, L_X, L_Z) == t - z1


def test_two_orientation_cobracket_fails_antisymmetry_and_reads_one_cobracket(ctx, comps):
    """D_c^ab = D_c^ba = 1 reports 2 as its antisymmetry defect and reads
    as the zero cobracket in co-Jacobi and in the cocycle alike."""
    delta = CobracketTensor(ctx.basis, ctx.params, ctx.order,
                            {(L_Z, P_X, P_Y): 1, (L_Z, P_Y, P_X): 1})
    two = ParamPoly.const(ctx.params, ctx.order, 2)
    assert antisymmetry_defect(delta) == {(L_Z, P_X, P_Y): two}
    assert delta == CobracketTensor(ctx.basis, ctx.params, ctx.order)
    assert cojacobi_defect(delta) == {} and delta.entries == {}
    for name in ("mu_100", "mu_001"):
        assert cocycle_defect(comps[name], delta) == {}
    report = check_four_pairs(comps["mu_100"], comps["mu_001"], comps["delta_010"], delta)
    assert [label for label, defects in report.items() if defects] == [
        "antisymmetry delta_001"]


def test_family_monomial_split_reproduces_pairwise_defects(ctx, comps):
    """Oracle: the cocycle defect of the two pencils, collected per
    monomial in (z', t, z'', h), must equal the four pairwise defects.
    Checked on a corrupted input where the slots are nonzero; the pencil
    is lifted by hand so the hypothesis guard does not interfere."""
    mu001c = _corrupted_mu001(ctx)

    def pencil(cls, *terms):
        return cls(ctx.basis, ctx.params, ctx.order, [
            (key, ParamPoly.parameter(ctx.params, ctx.order, pname) * value)
            for pname, tensor in terms for key, value in tensor.entries.items()
        ])

    family = DeformationFamily(
        pencil(BracketTensor, ("z1", mu001c), ("t", comps["mu_100"])),
        pencil(CobracketTensor, ("z2", comps["delta_001"]), ("h", comps["delta_010"])),
    )

    slots = [ctx.params.index(name) for name in FAMILY_PARAMS]
    split = {}
    for pair, wedge in cocycle_defect(family.mu, family.delta).items():
        for key, poly in wedge.items():
            for exps, coeff in poly.terms.items():
                mono = tuple(exps[i] for i in slots)
                split.setdefault(mono, {}).setdefault(pair, {})[key] = coeff
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


# -- substitution commutes with the defect ops ----------------------------------------------------


def test_substitution_commutes_with_defects(comps, ctx):
    family = build_family(
        comps["mu_100"], _safe_mu001(ctx), comps["delta_010"], comps["delta_001"],
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
# The references below read the raw input pairs through their own copy of
# the reading rule (repeats add up; a pair given in one orientation is
# antisymmetric; one given in both keeps half the difference and reports
# the sum; a diagonal key reads zero and reports twice its value) into a
# dense table over every index tuple, and loop over every index tuple, so
# they share no code with the sums they check.

_RANDOM_PARAMS = ("t", "h")
_RANDOM_ORDER = 2
_HALF = Scalar(Fraction(1, 2))


def _random_poly(rng):
    terms = {
        (rng.randint(0, 2), rng.randint(0, 1)): Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
        for _ in range(rng.randint(1, 2))
    }
    poly = ParamPoly(_RANDOM_PARAMS, _RANDOM_ORDER, terms)
    return poly or ParamPoly.const(_RANDOM_PARAMS, _RANDOM_ORDER, ONE)


def _flip(cls, key):
    i, j, k = key
    return (j, i, k) if cls is BracketTensor else (i, k, j)


def _random_pairs(rng, cls, n) -> list:
    """Random raw (key, value) pairs: both orientations, consistent or
    not, diagonal keys, and duplicates that sum to zero next to a given
    flip."""
    pairs = []

    def key(a, b, single):   # (a, b) is the antisymmetric pair
        return (a, b, single) if cls is BracketTensor else (single, a, b)

    for _ in range(rng.randint(1, 2 * n)):
        a, b, single = (rng.randrange(n) for _ in range(3))
        if rng.random() < 0.2:
            b = a
        value = _random_poly(rng)
        pairs.append((key(a, b, single), value))
        roll = rng.random()
        if roll < 0.3:
            flip = -value if rng.random() < 0.5 else _random_poly(rng)
            pairs.append((key(b, a, single), flip))
        elif roll < 0.55:
            pairs.append((key(a, b, single), -value))
            pairs.append((key(b, a, single), _random_poly(rng)))
    return pairs


def _dense(cls, n, pairs) -> tuple:
    """(reading, antisymmetry defect) of raw pairs: full tables keyed by
    every index tuple, the defect at the lower orientation only."""
    zero = ParamPoly.zero(_RANDOM_PARAMS, _RANDOM_ORDER)

    def given(key):
        values = [v for k, v in pairs if k == key and v]
        return (sum(values, zero),) if values else ()

    reading, defect = {}, {}
    for key in product(range(n), repeat=3):
        flipped = _flip(cls, key)
        here, there = given(key), given(flipped)
        if key == flipped:
            reading[key] = zero
            defect[key] = here[0] + here[0] if here else zero
        elif here and there:
            reading[key] = (here[0] - there[0]).scale(_HALF)
            defect[key] = here[0] + there[0] if key < flipped else zero
        else:
            reading[key] = here[0] if here else -there[0] if there else zero
            defect[key] = zero
    return reading, {key: v for key, v in defect.items() if v}


def _dual(table):
    """C^i_jk := D_i^jk on a dense table."""
    return {(j, k, i): v for (i, j, k), v in table.items()}


def _dense_cyclic(n, pairs):
    zero = ParamPoly.zero(_RANDOM_PARAMS, _RANDOM_ORDER)
    out = {}
    for i, j, k in combinations(range(n), 3):
        for l in range(n):
            acc = zero
            for m, (first, second) in product(range(n), pairs):
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    acc = acc + first[(a, b, m)] * second[(m, c, l)]
            if acc:
                out[(i, j, k, l)] = acc
    return out


def _dense_bracket(n, mu, i, j):
    return {k: mu[(i, j, k)] for k in range(n) if mu[(i, j, k)]}


def _dense_wedge(n, delta, i):
    return {(a, b): delta[(i, a, b)] for a, b in combinations(range(n), 2)
            if delta[(i, a, b)]}


def _dense_cocycle(n, mu, delta):
    """delta([x_i, x_j]) - ad_xi delta(x_j) + ad_xj delta(x_i) per i<j."""
    out = {}
    for i, j in combinations(range(n), 2):
        acc = {}

        def add(a, b, value):
            if a != b:
                if a > b:
                    a, b, value = b, a, -value
                acc[(a, b)] = acc.get((a, b), ParamPoly.zero(value.params, value.order)) + value

        for m, c in _dense_bracket(n, mu, i, j).items():
            for (a, b), w in _dense_wedge(n, delta, m).items():
                add(a, b, w * c)
        for x, y, sign in ((i, j, -1), (j, i, 1)):
            for (a, b), w in _dense_wedge(n, delta, y).items():
                for c, v in _dense_bracket(n, mu, x, a).items():
                    add(c, b, (w * v).scale(Scalar(sign)))
                for c, v in _dense_bracket(n, mu, x, b).items():
                    add(a, c, (w * v).scale(Scalar(sign)))
        acc = {key: value for key, value in acc.items() if value}
        if acc:
            out[(i, j)] = acc
    return out


def _restored(cls, pairs) -> list:
    """The same input with each pair given in one orientation given the
    other way round, negated; pairs given in both orientations and
    diagonal keys stay as they are."""
    keys = {key for key, _ in pairs}
    return [
        (key, value) if key == _flip(cls, key) or _flip(cls, key) in keys
        else (_flip(cls, key), -value)
        for key, value in pairs
    ]


@pytest.mark.parametrize("seed", range(24))
def test_sparse_sums_match_dense_references(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    basis = Basis(f"x{i}" for i in range(n))
    raw = {name: (cls, _random_pairs(rng, cls, n)) for name, cls in (
        ("mu_a", BracketTensor), ("mu_b", BracketTensor),
        ("d_a", CobracketTensor), ("d_b", CobracketTensor))}
    tensors, dense = {}, {}
    for name, (cls, pairs) in raw.items():
        tensors[name] = cls(basis, _RANDOM_PARAMS, _RANDOM_ORDER, pairs)
        dense[name], defect = _dense(cls, n, pairs)
        assert antisymmetry_defect(tensors[name]) == defect, name
        values = {key: tensors[name].value(*key) for key in dense[name]}
        assert values == dense[name], name
        assert tensors[name].oriented() == {key: v for key, v in values.items() if v}
    mu_a, mu_b, d_a, d_b = (tensors[name] for name in ("mu_a", "mu_b", "d_a", "d_b"))
    dmu_a, dmu_b, dd_a, dd_b = (dense[name] for name in ("mu_a", "mu_b", "d_a", "d_b"))
    assert jacobi_defect(mu_a) == _dense_cyclic(n, ((dmu_a, dmu_a),))
    assert cojacobi_defect(d_a) == _dense_cyclic(n, ((_dual(dd_a),) * 2,))
    assert mixed_jacobi(mu_a, mu_b) == _dense_cyclic(
        n, ((dmu_a, dmu_b), (dmu_b, dmu_a)))
    dual_a, dual_b = _dual(dd_a), _dual(dd_b)
    assert mixed_cojacobi(d_a, d_b) == _dense_cyclic(
        n, ((dual_a, dual_b), (dual_b, dual_a)))
    for (mu, dmu), (delta, ddelta) in (((mu_a, dmu_a), (d_a, dd_a)),
                                       ((mu_b, dmu_b), (d_b, dd_b))):
        assert cocycle_defect(mu, delta) == _dense_cocycle(n, dmu, ddelta)
        for i, j in product(range(n), repeat=2):
            assert bracket(mu, i, j) == _dense_bracket(n, dmu, i, j), (i, j)
        for i in range(n):
            assert wedge(delta, i) == _dense_wedge(n, ddelta, i), i
    for x, y in (("mu_a", "mu_b"), ("mu_b", "mu_b"), ("d_a", "d_b")):
        assert (tensors[x] == tensors[y]) is (dense[x] == dense[y])
    for name, (cls, pairs) in raw.items():
        again = cls(basis, _RANDOM_PARAMS, _RANDOM_ORDER, _restored(cls, pairs))
        assert again == tensors[name]
        assert _dense(cls, n, _restored(cls, pairs))[0] == dense[name]


def test_equality_compares_parameter_contexts():
    basis = Basis(("a", "b", "c"))
    assert BracketTensor(basis, ("t",), 2) == BracketTensor(basis, ("t",), 2)
    assert BracketTensor(basis, ("t",), 2) != BracketTensor(basis, ("h",), 2)
    assert BracketTensor(basis, ("t",), 2) != BracketTensor(basis, ("t",), 3)
