"""The flat term map of word and tensor polynomials, against ParamPoly.

A word or tensor polynomial stores one map (key, m) -> Scalar, where m
is a parameter monomial packed into one int (params.Monomials). Here the
packing round-trips, adds without carry and tests degrees by one
comparison, at orders on both sides of each field-width boundary; and
the flat times, outer, normalize, commutator and substitute equal a
reference that does the same arithmetic on ParamPoly coefficients, on
random multi-term Gaussian coefficients over one to five parameters.
"""

import random
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from bialgebra_forge.ncpoly import Context, NCPoly, TensorNCPoly, outer
from bialgebra_forge.params import Monomials, ParamPoly
from bialgebra_forge.rewrite import RelationTable, commutator, normalize
from bialgebra_forge.scalars import Scalar
from bialgebra_forge.sparse import accumulate
from bialgebra_forge.tensors import Basis

import hopfref

PARAMS = ("p", "q", "r", "s", "u")


# -- the packing -----------------------------------------------------------------


def _vectors(rng, n, order, count):
    """Exponent vectors of n entries and degree at most order: the
    extremes (all the degree in one entry, or spread evenly) and count
    random ones."""
    out = [(0,) * n]
    for j in range(n):
        out.append(tuple(order if k == j else 0 for k in range(n)))
    out.append(tuple(order // n + (k < order % n) for k in range(n)))
    for _ in range(count):
        left, exps = order, []
        for _ in range(n):
            e = rng.randint(0, left)
            exps.append(e)
            left -= e
        rng.shuffle(exps)
        out.append(tuple(exps))
    return out


@pytest.mark.parametrize("order", [0, 1, 3, 4, 7, 8, 15, 16])
def test_packing_round_trips_and_adds_with_no_carry(order):
    rng = random.Random(order)
    for n in range(1, len(PARAMS) + 1):
        monomials = Monomials(PARAMS[:n], order)
        assert monomials.width == order.bit_length() + 1
        # a sum of two exponents fits its field
        assert 2 * order < 1 << monomials.width
        vectors = _vectors(rng, n, order, 40)
        assert monomials.pack((0,) * n) == 0
        for e in vectors:
            m = monomials.pack(e)
            assert monomials.unpack(m) == e
            assert monomials.degree(m) == sum(e)
        for e1, e2 in product(vectors[:n + 2], vectors):
            m = monomials.pack(e1) + monomials.pack(e2)
            assert monomials.unpack(m) == tuple(map(add, e1, e2))
            assert monomials.degree(m) == sum(e1) + sum(e2)


@pytest.mark.parametrize("order", [0, 1, 3, 4, 7, 8, 15, 16])
def test_the_limit_is_the_degree_test(order):
    rng = random.Random(-order)
    for n in range(1, len(PARAMS) + 1):
        monomials = Monomials(PARAMS[:n], order)
        vectors = _vectors(rng, n, order, 20)
        # products reach degree 2 * order, past every budget asked for
        for e1, e2 in product(vectors, repeat=2):
            m = monomials.pack(e1) + monomials.pack(e2)
            degree = sum(e1) + sum(e2)
            for budget in range(2 * order + 1):
                assert (m < monomials.limit(budget)) == (degree <= budget)


# -- the reference: the same arithmetic on ParamPoly coefficients ------------------


def _value(context, arity, coefficients):
    coefficients = {k: c for k, c in coefficients.items() if c}
    if arity == 1:
        return NCPoly(context, coefficients)
    return TensorNCPoly(context, arity, coefficients)


def ref_times(a, b, budget):
    out = {}
    for (k1, c1), (k2, c2) in product(a.coefficients().items(), b.coefficients().items()):
        words = tuple(map(add, a._factors(k1), b._factors(k2)))
        accumulate(out, a._key(words), (c1 * c2).truncate(budget))
    return _value(a.context, a.arity, out)


def ref_normalize(a, rhs, budget, rng=None):
    """Each factor word's normal form under the brackets rhs = {(j, i):
    {word: ParamPoly}} (hopfref.normal_form: leftmost, or by rng), times
    the coefficient."""
    one = a.context.const_poly(1)
    out = {}
    for key, coeff in a.coefficients().items():
        forms = [hopfref.normal_form(rhs, {w: one}, rng).items() for w in a._factors(key)]
        for line in product(*forms):
            c = coeff
            for _, cw in line:
                c = c * cw
            accumulate(out, a._key(tuple(w for w, _ in line)), c.truncate(budget))
    return _value(a.context, a.arity, out)


# -- random values ------------------------------------------------------------------


@st.composite
def contexts(draw):
    n = draw(st.integers(1, len(PARAMS)))
    return Context(Basis(("a", "b", "c")), PARAMS[:n], order=draw(st.integers(1, 4)),
                   cap=12, slack=0)


def coefficients(draw, ctx, low=0):
    """A ParamPoly of one to four Gaussian terms of degree low to the
    order, over ctx's params."""
    n = len(ctx.params)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        if low <= sum(exps) <= ctx.order:
            terms[exps] = Scalar(draw(st.integers(-3, 3)), draw(st.integers(-2, 2)))
    return ParamPoly(ctx.params, ctx.order, terms)


def values(draw, ctx, arity):
    word = st.lists(st.integers(0, 2), max_size=2).map(tuple)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key = draw(word) if arity == 1 else tuple(draw(word) for _ in range(arity))
        terms[key] = coefficients(draw, ctx)
    return _value(ctx, arity, terms)


def tables(draw, ctx):
    """A random contracting table and its brackets {(j, i): {word:
    ParamPoly}}: each bracket [x_j, x_i], j > i, of 0 to 2 sorted words of
    length 1 or 2, which the table keeps as they are, with coefficients
    of degree at least 1."""
    entries, rhs = [], {}
    for j, i in ((1, 0), (2, 0), (2, 1)):
        terms = rhs[(j, i)] = {}
        for _ in range(draw(st.integers(0, 2))):
            w = tuple(sorted(draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))))
            terms[w] = coefficients(draw, ctx, low=1)
        entries.append((j, i, _value(ctx, 1, terms)))
    return RelationTable(ctx, entries), rhs


# -- the oracle ----------------------------------------------------------------------


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_flat_times_is_the_param_poly_product(data):
    ctx = data.draw(contexts())
    arity = data.draw(st.integers(1, 2))
    a, b = values(data.draw, ctx, arity), values(data.draw, ctx, arity)
    budget = data.draw(st.integers(0, ctx.order))
    assert a.times(b, budget) == ref_times(a, b, budget)
    assert a * b == ref_times(a, b, ctx.order)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_flat_outer_is_the_param_poly_tensor_product(data):
    ctx = data.draw(contexts())
    a, b = values(data.draw, ctx, 1), values(data.draw, ctx, 1)
    coeff = coefficients(data.draw, ctx)
    budget = data.draw(st.integers(0, ctx.order))
    monomials = ctx.monomials
    got = TensorNCPoly._of(
        ctx, outer([a, b], monomials.limit(budget), monomials.pairs(coeff)), 2)
    want = {}
    for (w1, c1), (w2, c2) in product(a.coefficients().items(), b.coefficients().items()):
        accumulate(want, (w1, w2), (coeff * c1 * c2).truncate(budget))
    assert got == _value(ctx, 2, want)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_flat_normalize_is_the_param_poly_normal_form(data):
    ctx = data.draw(contexts())
    table, rhs = tables(data.draw, ctx)
    a = values(data.draw, ctx, data.draw(st.integers(1, 2)))
    budget = data.draw(st.integers(0, ctx.order))
    assert normalize(a, table, budget=budget) == ref_normalize(a, rhs, budget)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_flat_commutator_is_the_param_poly_normal_form_of_ab_minus_ba(data):
    ctx = data.draw(contexts())
    table, rhs = tables(data.draw, ctx)
    arity = data.draw(st.integers(1, 2))
    a, b = values(data.draw, ctx, arity), values(data.draw, ctx, arity)
    order = ctx.order
    want = ref_normalize(ref_times(a, b, order) - ref_times(b, a, order), rhs, order)
    assert commutator(a, b, table) == want


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_flat_substitute_is_the_param_poly_substitution(data):
    # renames that merge two or more fields into one, and zeroing
    ctx = data.draw(contexts())
    a = values(data.draw, ctx, data.draw(st.integers(1, 2)))
    images = {}
    for name in ctx.params:
        images[name] = data.draw(st.sampled_from(("m", "n", name, 0)))
    kept = []
    for name in ctx.params:
        image = images[name]
        if image != 0 and image not in kept:
            kept.append(image)
    target = ctx.with_params(data.draw(st.permutations(kept)))
    want = {}
    for key, coeff in a.coefficients().items():
        terms = {}
        for exps, c in coeff.terms.items():
            if any(power and images[name] == 0 for name, power in zip(ctx.params, exps)):
                continue
            new = [0] * len(target.params)
            for name, power in zip(ctx.params, exps):
                if power:
                    new[target.params.index(images[name])] += power
            accumulate(terms, tuple(new), c)
        want[key] = ParamPoly(target.params, target.order, terms)
    assert a.substitute(images, target) == _value(target, a.arity, want)
