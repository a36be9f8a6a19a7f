"""Normal ordering of words via bracket-table rewriting.

The relation table stores, for every generator pair, the commutator
[x_j, x_i] of the later generator past the earlier one; rewriting
replaces an out-of-order adjacent pair x_j x_i by x_i x_j + [x_j, x_i].
Every right-hand-side term must carry at least one power of a
deformation parameter (the CONTRACTING condition), so each correction
strictly raises parameter degree. A word is rewritten only through its
degree budget, the order less its coefficient's lowest degree, since
the product cuts off whatever lies above; so the worklist dies at the
budget, not at the order. A sorted word has no out-of-order pair, so it
is its own normal form: normalize passes it through untouched.

The same rule serves callers that need a whole polynomial only through
a budget below the order (the Hopf word maps and antipode passes): normalize
takes a budget and gives each term the room budget - lowest degree. This is
exact: over Q(i) the lowest part of a product is the product of the lowest
parts, no rewrite lowers degree and a normal form is linear, so a form
computed through a budget equals the full one through it under the leftmost
strategy, whether or not the table is confluent.

A commutator forms each term pair's coefficient product once, for both
orders of the words, and normalises the sum once. It skips a pair whose
words commute as they stand, or are sorted and commute letter by letter:
rewriting either product then only swaps letters of the two words past
each other, so both reach the same sorted word and cancel exactly, at
any order.
"""

from __future__ import annotations

from operator import add

from .errors import CapExceededError, DocumentError, NonContractingError
from .ncpoly import Context, NCPoly, outer, word_str
from .params import substitution
from .sparse import accumulate, deduct


class RelationTable:
    def __init__(self, context: Context, entries):
        """entries: iterable of (left index, right index, NCPoly rhs)
        declaring [x_left, x_right] = rhs. Each unordered pair may be
        declared once; the canonical orientation kept is [later, earlier].
        """
        self.context = context
        self.rhs = {}
        for left, right, poly in entries:
            if left == right:
                raise DocumentError(
                    f"bracket [{self._name(left)},{self._name(right)}] of a "
                    "generator with itself"
                )
            j, i = (left, right) if left > right else (right, left)
            if (j, i) in self.rhs:
                raise DocumentError(
                    f"duplicate bracket key for pair "
                    f"({self._name(i)},{self._name(j)})"
                )
            self.rhs[(j, i)] = poly if left > right else -poly
        self._check_contracting()
        self._store(self.rhs)
        self._canonicalise_rhs()

    def _store(self, rhs):
        # the rewriting kernel reads each rhs term's lowest parameter
        # degree, and the commutator the bitmask of the letters each
        # generator commutes with (itself included); the normal-form cache
        # holds only forms under this rhs
        self.rhs = rhs
        self._low = {
            key: {w: c.min_degree() for w, c in poly.terms.items()}
            for key, poly in rhs.items()
        }
        n = len(self.context.basis)
        self._commuting = [(1 << n) - 1] * n
        for (j, i), poly in rhs.items():
            if poly:
                self._commuting[j] &= ~(1 << i)
                self._commuting[i] &= ~(1 << j)
        self._nf_cache = {}

    def _name(self, idx):
        return self.context.basis.names[idx]

    def _check_contracting(self):
        for (j, i), poly in self.rhs.items():
            for word, coeff in poly.terms.items():
                if coeff.min_degree() == 0:
                    raise NonContractingError(
                        f"relation [{self._name(j)},{self._name(i)}] has a "
                        f"parameter-free term on word {word_str(word, self.context.basis)}"
                    )

    def _canonicalise_rhs(self):
        # Right-hand sides written with unsorted words (products like
        # l_x * exp(..p_x..)) are normalised against the table itself;
        # this keeps every stored rhs in normal form without changing
        # the two-sided ideal.
        self._store({
            key: normalize(poly, self) for key, poly in self.rhs.items()
        })

    def bracket_poly(self, a: int, b: int) -> NCPoly:
        """[x_a, x_b] as an NCPoly (zero when the pair is undeclared)."""
        if a == b:
            return NCPoly.zero(self.context)
        if a > b:
            got = self.rhs.get((a, b))
            return got if got is not None else NCPoly.zero(self.context)
        got = self.rhs.get((b, a))
        return -got if got is not None else NCPoly.zero(self.context)

    def substitute(self, images, target: Context = None) -> "RelationTable":
        ctx = self.context if target is None else target
        fn = substitution(self.context.params, images, (ctx.params, ctx.order))
        return RelationTable(ctx, [
            (j, i, poly.map_coeffs(fn, ctx)) for (j, i), poly in self.rhs.items()
        ])

    def pairs(self):
        """All unordered generator pairs (i<j) of the basis."""
        n = len(self.context.basis)
        return [(i, j) for i in range(n) for j in range(i + 1, n)]

    def __repr__(self):
        body = ", ".join(
            f"[{self._name(j)},{self._name(i)}]={poly}"
            for (j, i), poly in sorted(self.rhs.items())
        )
        return f"RelationTable({body})"


def _first_descent(word):
    for pos in range(len(word) - 1):
        if word[pos] > word[pos + 1]:
            return pos
    return None


def _descents(word):
    return [pos for pos in range(len(word) - 1) if word[pos] > word[pos + 1]]


def normal_form_word(table: RelationTable, word, choose=None, budget=None) -> NCPoly:
    """Normal form of a single word as an NCPoly, exact through parameter
    degree `budget` (default: the order).

    The result equals the full-order normal form through degree budget;
    it may carry terms above the budget, but only exact ones (a cached
    entry computed for a larger budget serves a smaller one as it is).
    A call with the default budget returns the full normal form, whatever
    budgets were requested before. Each branch of the worklist carries
    its room: the budget less its coefficient's lowest degree. Over a
    field the lowest part of a product is the product of the lowest parts,
    so a rewrite takes the lowest degree of the rhs term it inserts off
    the room, and a branch whose room would go negative is dropped before
    its coefficient is formed.

    choose, when given, picks which out-of-order adjacent pair to
    rewrite first (position index into the descent list); the default
    always takes the leftmost. Results for any choice agree whenever
    the presentation Jacobi defects vanish. Only the default strategy
    is cached, keyed by word, as (budget, normal form).
    """
    context = table.context
    order = context.order
    if budget is None:
        budget = order
    use_cache = choose is None
    cache = table._nf_cache
    if use_cache:
        entry = cache.get(word)
        if entry is not None and entry[0] >= budget:
            return entry[1]

    result = {}
    low = table._low
    work = [(tuple(word), context.const_poly(1), budget)]
    while work:
        w, coeff, room = work.pop()
        if use_cache and w != word:
            entry = cache.get(w)
            if entry is not None and entry[0] >= room:
                for u, c in entry[1].terms.items():
                    s = coeff * c
                    if s:
                        accumulate(result, u, s)
                continue
        if choose is None:
            pos = _first_descent(w)
        else:
            ds = _descents(w)
            pos = ds[choose(w, ds)] if ds else None
        if pos is None:
            accumulate(result, w, coeff)
            continue
        a, b = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        work.append((head + (b, a) + tail, coeff, room))
        lows = low.get((a, b))
        for rw, rc in table.bracket_poly(a, b).terms.items():
            left = room - lows[rw]
            if left < 0:
                continue
            c = coeff * rc
            if not c:
                continue
            nw = head + rw + tail
            if len(nw) > context.cap:
                raise CapExceededError(
                    f"rewriting [{table._name(a)},{table._name(b)}] produced "
                    f"word {word_str(nw, context.basis)} beyond cap {context.cap}"
                )
            work.append((nw, c, left))
    if budget < order:
        result = _cut(result, budget)
    nf = NCPoly(context, result)
    if use_cache:
        cache[word] = (budget, nf)
    return nf


def _cut(result, budget):
    """result without its terms above parameter degree budget; only the
    coefficients that lose a term are rebuilt."""
    out = {}
    for w, coeff in result.items():
        terms = coeff.terms
        kept = {e: c for e, c in terms.items() if sum(e) <= budget}
        if len(kept) == len(terms):
            out[w] = coeff
        elif kept:
            out[w] = coeff._like(kept)
    return out


def normalize(a, table: RelationTable, choose=None, budget=None):
    """Normal form of an NCPoly, or of each factor of a TensorNCPoly,
    exact through parameter degree `budget` (default: the order).

    A term whose factor words are all sorted is irreducible, so it passes
    through as it is, with no rewriting and no coefficient product,
    whatever `choose` is. Any other term gets the room its coefficient
    leaves below the budget, budget - lowest degree, and each unsorted
    factor is rewritten only through that room: what lies above is cut
    off by the product with the coefficient. A term with no room adds
    nothing through the budget and is dropped. A normal form is linear
    and no rewrite lowers degree, so the result equals the full normal
    form through the budget under the leftmost strategy, whether or not
    the table is confluent; above the budget it may be partial."""
    if budget is None:
        budget = table.context.order
    out = {}
    for key, coeff in a.terms.items():
        factors = a._factors(key)
        unsorted = [p for p, w in enumerate(factors) if _first_descent(w) is not None]
        if not unsorted:
            accumulate(out, key, coeff)
            continue
        room = budget - coeff.min_degree()
        if room < 0:
            continue
        factors = list(factors)
        for p in unsorted:
            factors[p] = normal_form_word(table, factors[p], choose, room)
        for words, c in outer(factors, coeff, budget).items():
            accumulate(out, a._key(words), c)
    return a._like(out)


def _shape(table, factors):
    """(letters, commuting, lengths) of a term with the given factor words.
    Factor p owns bits p*n to p*n+n-1 of both masks: `letters` marks the
    letters of its word, `commuting` the generators that commute with each
    of them. An unsorted word sets letters to -1 and commuting to 0, so
    a pair with such a term passes the pure-swap test only against a term
    of empty words, which commutes with it as it is."""
    n = len(table._commuting)
    lengths = tuple(map(len, factors))
    letters = commuting = 0
    for p, w in enumerate(factors):
        if _first_descent(w) is not None:
            return -1, 0, lengths
        mine, common = 0, (1 << n) - 1
        for g in w:
            mine |= 1 << g
            common &= table._commuting[g]
        letters |= mine << p * n
        commuting |= common << p * n
    return letters, commuting, lengths


def commutator(a, b, table: RelationTable):
    """Normal form of a*b - b*a, in one pass over the term pairs of a and b.

    Coefficients commute, so each pair (f1, f2) forms its coefficient
    product c once and adds +c at the factorwise product f1*f2 and -c at
    f2*f1; the sum is normalised once. A pair that adds exactly 0 to the
    normal form is skipped, with no coefficient product and no rewriting:
    (i) f1*f2 == f2*f1 in every factor, or
    (ii) in every factor both words are sorted and every letter of one has
    an empty bracket with every letter of the other.
    Under (ii) every word on the way is a shuffle of f1 and f2 in which
    adjacent letters of one word stand in order, so every out-of-order
    adjacent pair joins a letter of f1 to one of f2, and its rewrite is a
    pure swap that adds no term. Both products thus reach the same sorted
    word with coefficient 1, at any order and whether or not the table is
    confluent.

    A pair whose coefficients' lowest degrees sum above the order is
    skipped first, as a*b skips it. Any other pair whose product word
    passes the cap raises the CapExceededError that a*b raises, at the
    same pair, whether it is skipped or not."""
    a._same_arity(b)
    cap, order = a.context.cap, a.context.order
    split, join = a._factors, a._key
    right = []
    for k2, c2 in b.terms.items():
        f2 = split(k2)
        _, commuting, lengths = _shape(table, f2)
        right.append((k2, c2, c2.min_degree(), f2, commuting, lengths, max(lengths)))
    out = {}
    for k1, c1 in a.terms.items():
        f1 = split(k1)
        letters, _, lengths1 = _shape(table, f1)
        top1 = max(lengths1)
        room = order - c1.min_degree()
        for k2, c2, low2, f2, commuting, lengths2, top2 in right:
            if low2 > room:
                # the coefficient product vanishes; a*b skips the pair too
                continue
            if top1 + top2 > cap and any(x + y > cap for x, y in zip(lengths1, lengths2)):
                # a*b stops here unless the product vanishes, and then
                # the pair adds nothing
                a._like({k1: c1}) * b._like({k2: c2})
                continue
            if not letters & ~commuting:
                continue
            ab, ba = tuple(map(add, f1, f2)), tuple(map(add, f2, f1))
            if ab == ba:
                continue
            c = c1 * c2
            if c:
                accumulate(out, join(ab), c)
                deduct(out, join(ba), c)
    return normalize(a._like(out), table)


normalize_tensor = normalize


def presentation_jacobi_defect(table: RelationTable) -> dict:
    """Normal form of the Jacobi cyclic sum for every generator triple;
    nonzero entries only. An empty result certifies local confluence of
    the rewriting through the table's order."""
    context = table.context
    n = len(context.basis)
    out = {}
    for i in range(n):
        gi = NCPoly.generator(context, i)
        for j in range(i + 1, n):
            gj = NCPoly.generator(context, j)
            for k in range(j + 1, n):
                gk = NCPoly.generator(context, k)
                total = (
                    commutator(table.bracket_poly(i, j), gk, table)
                    + commutator(table.bracket_poly(j, k), gi, table)
                    + commutator(table.bracket_poly(k, i), gj, table)
                )
                if total:
                    out[(i, j, k)] = total
    return out
