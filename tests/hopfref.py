"""A plain reference rewriter for relation tables, to test the kernel
(bialgebra_forge.rewrite) against.

Polynomials are {word: ParamPoly}, a word a tuple of generator indices.
A table enters only through its brackets (`rules`): the rhs [x_j, x_i]
stored for each pair j > i. Rewriting replaces an out-of-order adjacent
pair x_j x_i by x_i x_j + [x_j, x_i] until no word has one. There is no
cache, no degree budget and no cap: products are formed in full, and
ParamPoly cuts each coefficient at the order, so a branch ends when its
coefficient does. The leftmost out-of-order pair is rewritten first, or
one drawn at random when an rng is given; where the presentation Jacobi
defects vanish, every strategy reaches the same normal form (Bergman's
diamond lemma). On the same terms it solves the antipode (`antipode`)
and recomputes the class-F defects from a solved one (`class_f`),
sharing no code with bialgebra_forge.hopf or bialgebra_forge.ncpoly.
"""

from bialgebra_forge.sparse import accumulate


def rules(table) -> dict:
    """{(j, i): {word: ParamPoly}}, the bracket [x_j, x_i] that table
    stores for each pair j > i."""
    return {key: poly.coefficients() for key, poly in table.rhs.items()}


def normal_form(brackets, poly, rng=None) -> dict:
    """The normal form of poly under brackets, {(j, i): {word: ParamPoly}}
    as `rules` reads them: the leftmost out-of-order pair is rewritten
    first, or one that rng.choice draws when rng is given."""
    out = {}
    work = list(poly.items())
    while work:
        word, coeff = work.pop()
        if not coeff:
            continue
        descents = [p for p in range(len(word) - 1) if word[p] > word[p + 1]]
        if not descents:
            accumulate(out, word, coeff)
            continue
        pos = descents[0] if rng is None else rng.choice(descents)
        head, tail = word[:pos], word[pos + 2:]
        j, i = word[pos], word[pos + 1]
        work.append((head + (i, j) + tail, coeff))
        for w, c in brackets.get((j, i), {}).items():
            work.append((head + w + tail, coeff * c))
    return out


def product(a, b) -> dict:
    out = {}
    for u, c in a.items():
        for v, d in b.items():
            accumulate(out, u + v, c * d)
    return out


def commutator(a, b) -> dict:
    """ab - ba, formed in full."""
    out = product(a, b)
    for w, c in product(b, a).items():
        accumulate(out, w, -c)
    return out


def jacobi_defect(table) -> dict:
    """{(i, j, k): normal form} over i < j < k of the cyclic sum
    [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j], nonzero
    ones only. Each commutator is formed in full from the stored brackets
    ([x_a, x_b] = -rhs[b, a] for a < b) and normalised leftmost, so past
    the degree where the table is confluent the forms are the leftmost
    ones."""
    rhs = rules(table)
    context = table.context
    one = context.const_poly(1)

    def bracket(a, b):
        if a > b:
            return rhs.get((a, b), {})
        return {w: -c for w, c in rhs.get((b, a), {}).items()}

    out = {}
    n = len(context.basis)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for w, coeff in commutator(bracket(a, b), {(c,): one}).items():
                        accumulate(total, w, coeff)
                form = normal_form(rhs, total)
                if form:
                    out[(i, j, k)] = form
    return out


def coproduct(brackets, cop, one) -> dict:
    """{(u, v): ParamPoly}, a stored coproduct read only through
    coefficients() with each factor normalised under brackets; one is
    the coefficient 1."""
    out = {}
    for (u, v), c in cop.coefficients().items():
        for x, cx in normal_form(brackets, {u: c}).items():
            for y, cy in normal_form(brackets, {v: one}).items():
                accumulate(out, (x, y), cx * cy)
    return out


def antipode(table, coproducts) -> dict:
    """{g: {word: ParamPoly}}, the antipode solved order by order from
    S = -id. coproducts maps each generator g to its coproduct, read only
    through coefficients() as {(u, v): ParamPoly}; Delta g is that with
    each factor normalised, as the stored coproduct need not be. With
    corr g = Delta g - g (x) 1 - 1 (x) g, pass k sets S(g) = -g - nf(sum of
    c S(u) v over corr g's terms c u (x) v); every such c has degree >= 1,
    so pass k fixes degree k, and the last pass is at the order. S extends
    to words in reverse, S(u) = nf(S(u[1:]) S(u[0])), each product formed
    in full and normalised leftmost, so past the degree where the table
    is confluent the forms are the leftmost ones in that product order."""
    rhs = rules(table)
    context = table.context
    one = context.const_poly(1)
    corrections = {}
    for g, cop in coproducts.items():
        corr = coproduct(rhs, cop, one)
        for key in (((g,), ()), ((), (g,))):
            accumulate(corr, key, -one)
        corrections[g] = corr
    solved = {g: {(g,): -one} for g in coproducts}
    for _ in range(context.order):
        images = {(): {(): one}}

        def image(w):
            if w not in images:
                images[w] = normal_form(rhs, product(image(w[1:]), solved[w[0]]))
            return images[w]

        contracted = {g: {} for g in coproducts}
        for g, corr in corrections.items():
            for (u, v), c in corr.items():
                for w, d in product(image(u), {v: c}).items():
                    accumulate(contracted[g], w, d)
        solved = {}
        for g, total in contracted.items():
            entry = {(g,): -one}
            for w, c in normal_form(rhs, total).items():
                accumulate(entry, w, -c)
            solved[g] = entry
    return solved


def class_f(table, coproducts, solved) -> dict:
    """{(g, slot): {(u, v): ParamPoly}}, the nonzero class-F defects: for
    each generator g and slot 0 (S (x) id) or 1 (id (x) S), the in-order
    extension of the solved antipode applied to that factor of Delta g,
    less the reversed extension applied to it. solved is {g: {word:
    ParamPoly}}, as `antipode` returns it, and Delta g is read as there,
    each factor normalised. In order, S(u) = nf(S(u[:-1]) S(u[-1])); in
    reverse, S(u) = nf(S(u[1:]) S(u[0])); each product is formed in full
    and normalised leftmost, so past the degree where the table is
    confluent the forms are the leftmost ones in that product order."""
    rhs = rules(table)
    one = table.context.const_poly(1)
    images = {False: {(): {(): one}}, True: {(): {(): one}}}

    def image(w, reverse):
        done = images[reverse]
        if w not in done:
            rest, letter = (w[1:], w[0]) if reverse else (w[:-1], w[-1])
            done[w] = normal_form(rhs, product(image(rest, reverse), solved[letter]))
        return done[w]

    out = {}
    for g, cop in coproducts.items():
        delta = coproduct(rhs, cop, one)
        for slot in (0, 1):
            defect = {}
            for key, c in delta.items():
                for reverse in (False, True):
                    for w, d in image(key[slot], reverse).items():
                        joined = (w, key[1]) if slot == 0 else (key[0], w)
                        accumulate(defect, joined, -(c * d) if reverse else c * d)
            defect = {key: c for key, c in defect.items() if c}
            if defect:
                out[(g, slot)] = defect
    return out
