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
a budget below the order (the Hopf word maps and the antipode solve): normalize
takes a budget and gives each key the room budget - lowest degree of its
coefficient. This is exact: over Q(i) the lowest part of a product is the
product of the lowest parts, no rewrite lowers degree and a normal form is
linear, so a form computed through a budget equals the full one through it
under the leftmost strategy, whether or not the table is confluent.

There is one rewriting strategy: the leftmost out-of-order pair of a
word is rewritten first, and every normal form goes through
normal_form_word's cached, budgeted worklist. Where the presentation
Jacobi defects vanish, every strategy reaches the same normal form
(Bergman's diamond lemma); past that degree the leftmost strategy is
part of each reported normal form.

Terms are flat (ncpoly): a term's parameter monomial is one int m, in
fields wide enough that a sum of two exponents, at most 2*order, cannot
carry into the next, so a product of monomials is m1 + m2, and
m < limit(budget) is the degree test; no result carries a term above its
budget and none needs a cut.
Work that depends only on the words (a normal form, a word bracket, a
term shape, a pure-swap test) is done once per key, whatever the number
of terms in its coefficient.

A commutator follows the Leibniz rule in each tensor factor,
[a1 (x) a2, b1 (x) b2] = [a1, b1] (x) a2 b2 + b1 a1 (x) [a2, b2], with the
word bracket [u, v] = nf(uv) - nf(vu) computed once per word pair and
budget and cached on the table beside the normal forms, under the same
budget rule. A factor whose words are sorted and commute letter by letter
pure-swaps: both orders reach the same sorted word by swaps alone, so it
adds no bracket term. A term pair forms its coefficient product only when
some factor's bracket is nonzero through the room the coefficients leave.
This regroups the same leftmost normal forms that normalising a*b - b*a
sums, so it is exact whether or not the table is confluent.

The pure-swap rule also holds for whole operands: when every letter of
one commutes with every letter of the other, all their words are sorted
and their longest words fit the cap together, every term pair would be
skipped and none would raise, so the commutator is zero before its pair
loop. The presentation Jacobi sum forms no commutator of an undeclared
bracket, and the rule makes each of a bracket with a generator of a
commuting copy zero at once. What the rule reads of an operand depends
only on its keys, so it is cached on the table by them (_reach).
"""

from __future__ import annotations

from operator import add

from .errors import CapExceededError, DocumentError, NonContractingError
from .ncpoly import Context, NCPoly, cap_error, outer, word_str
from .params import PACKED_ONE, coefficient_product
from .sparse import accumulate


def bracket_keys(pairs, names) -> list:
    """The canonical (later, earlier) key of each (left, right) index pair
    of pairs, in order: the one bracket-key rule, shared by a document and
    RelationTable. A generator bracketed with itself, or a pair given twice
    in either orientation, is a DocumentError naming it by names, a
    duplicate in index order."""
    keys = {}
    for left, right in pairs:
        if left == right:
            raise DocumentError(
                f"bracket [{names[left]},{names[right]}] of a generator with itself"
            )
        key = (left, right) if left > right else (right, left)
        if key in keys:
            raise DocumentError(
                f"duplicate bracket key for pair ({names[key[1]]},{names[key[0]]})"
            )
        keys[key] = None
    return list(keys)


class RelationTable:
    def __init__(self, context: Context, entries):
        """entries: iterable of (left index, right index, NCPoly rhs)
        declaring [x_left, x_right] = rhs. Each unordered pair may be
        declared once (bracket_keys); the canonical orientation kept is
        [later, earlier].
        """
        self.context = context
        entries = list(entries)
        keys = bracket_keys([entry[:2] for entry in entries], context.basis.names)
        self.rhs = {key: poly if key[0] == left else -poly
                    for key, (left, _, poly) in zip(keys, entries)}
        self._check_contracting()
        self._store(self.rhs)
        self._canonicalise_rhs()

    def _store(self, rhs):
        # the commutator reads the bitmask of the letters each generator
        # commutes with (itself included); the normal-form, word-bracket,
        # term-shape and operand-reach caches hold only values under this
        # rhs
        self.rhs = rhs
        n = len(self.context.basis)
        self._everything = (1 << n) - 1
        self._commuting = [self._everything] * n
        for (j, i), poly in rhs.items():
            if poly:
                self._commuting[j] &= ~(1 << i)
                self._commuting[i] &= ~(1 << j)
        self._nf_cache = {}
        self._bracket_cache = {}
        self._shapes = {}
        self._reaches = {}

    def _name(self, idx):
        return self.context.basis.names[idx]

    def _check_contracting(self):
        constant = self.context.monomials.limit(0)
        for (j, i), poly in self.rhs.items():
            for word, pairs in poly.groups().items():
                if pairs[0][0] < constant:
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
        return RelationTable(ctx, [
            (j, i, poly.substitute(images, ctx)) for (j, i), poly in self.rhs.items()
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


def normal_form_word(table: RelationTable, word, *, budget=None) -> NCPoly:
    """Normal form of a single word as an NCPoly under the leftmost
    strategy, exact through parameter degree `budget` (default: the
    order).

    A form computed here has no term above the budget, but a cached entry
    computed for a larger budget serves a smaller one as it is, so a
    result may carry exact terms above the budget asked for. A call with
    the default budget returns the full normal form, whatever budgets
    were requested before. Each branch of the worklist carries its packed
    coefficient and its room: the budget less the coefficient's lowest
    degree. Over a field the lowest part of a product is the product of
    the lowest parts, so a rewrite takes the lowest degree of the rhs
    coefficient it inserts off the room, and a branch whose room would go
    negative is dropped before its coefficient is formed. Forms are cached
    on the table, keyed by word, as (budget, normal form).
    """
    context = table.context
    if budget is None:
        budget = context.order
    cache = table._nf_cache
    entry = cache.get(word)
    if entry is not None and entry[0] >= budget:
        return entry[1]

    shift = context.monomials.shift
    limit = context.monomials.limit(budget)
    result = {}
    work = [(tuple(word), PACKED_ONE, budget)]
    while work:
        w, coeff, room = work.pop()
        if w != word:
            entry = cache.get(w)
            if entry is not None and entry[0] >= room:
                for u, pairs in entry[1].groups().items():
                    for m, c in coefficient_product(coeff, pairs, limit):
                        accumulate(result, (u, m), c)
                continue
        pos = _first_descent(w)
        if pos is None:
            for m, c in coeff:
                accumulate(result, (w, m), c)
            continue
        a, b = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        work.append((head + (b, a) + tail, coeff, room))
        for rw, pairs in table.bracket_poly(a, b).groups().items():
            left = room - (pairs[0][0] >> shift)
            if left < 0:
                continue
            nw = head + rw + tail
            if len(nw) > context.cap:
                raise CapExceededError(
                    f"rewriting [{table._name(a)},{table._name(b)}] produced "
                    f"word {word_str(nw, context.basis)} beyond cap {context.cap}"
                )
            work.append((nw, coefficient_product(coeff, pairs, limit), left))
    nf = NCPoly._of(context, result)
    cache[word] = (budget, nf)
    return nf


def normalize(a, table: RelationTable, *, budget=None):
    """Normal form of an NCPoly, or of each factor of a TensorNCPoly,
    exact through parameter degree `budget` (default: the order), with no
    term above it.

    A key whose factor words are all sorted is irreducible, so its terms
    through the budget pass through as they are, with no rewriting and no
    coefficient product. Any other key gets the room its coefficient
    leaves below the budget, budget - lowest degree, and each unsorted
    factor is rewritten once, only through that room: what lies above is
    cut off by the product with the coefficient. A key with no room adds
    nothing through the budget and is dropped. A normal form is linear
    and no rewrite lowers degree, so the result equals the full normal
    form through the budget under the leftmost strategy, whether or not
    the table is confluent."""
    monomials = table.context.monomials
    if budget is None:
        budget = table.context.order
    shift, limit = monomials.shift, monomials.limit(budget)
    split, join = a._factors, a._key
    out = {}
    for key, pairs in a.groups().items():
        factors = split(key)
        unsorted = [p for p, w in enumerate(factors) if _first_descent(w) is not None]
        if not unsorted:
            for m, c in pairs:
                if m < limit:
                    accumulate(out, (key, m), c)
            continue
        room = budget - (pairs[0][0] >> shift)
        if room < 0:
            continue
        factors = list(factors)
        for p in unsorted:
            factors[p] = normal_form_word(table, factors[p], budget=room)
        for (words, m), c in outer(factors, limit, pairs).items():
            accumulate(out, (join(words), m), c)
    return a._like(out)


def _shape(table, key, words):
    """(factors, letters, commuting, lengths, longest) of a term with
    these factor words, cached on the table by its key. factors holds
    (word, letters, commuting) per factor: bitmasks of the generators in
    the word and of those that commute with each of them (an empty
    bracket, or the same generator); an unsorted word has (-1, 0), so no
    factor holding one pure-swaps. The term's letters and commuting masks
    give factor p the bits from p*n up, n the number of generators; an
    unsorted factor sets every letter bit from its own up."""
    shape = table._shapes.get(key)
    if shape is not None:
        return shape
    n = len(table._commuting)
    factors = []
    letters = commuting = 0
    for p, w in enumerate(words):
        lw, cw = -1, 0
        if _first_descent(w) is None:
            lw, cw = 0, table._everything
            for g in w:
                lw |= 1 << g
                cw &= table._commuting[g]
        factors.append((w, lw, cw))
        letters |= lw << p * n
        commuting |= cw << p * n
    lengths = tuple(map(len, words))
    shape = table._shapes[key] = (factors, letters, commuting, lengths, max(lengths))
    return shape


def word_bracket(table: RelationTable, u, v, budget=None):
    """(nf(uv) - nf(vu), its lowest parameter degree or None when it is
    zero), exact through parameter degree `budget` (default: the order).

    Both normal forms come from normal_form_word at the budget, so the
    bracket equals the full-order one through it; terms above the budget
    may be partial. It is cached on the table per (u, v) as (budget,
    bracket, lowest degree), under the rule of the normal-form cache: an
    entry serves any budget up to its own, and a larger one replaces it."""
    if budget is None:
        budget = table.context.order
    entry = table._bracket_cache.get((u, v))
    if entry is not None and entry[0] >= budget:
        return entry[1], entry[2]
    bracket = (normal_form_word(table, u + v, budget=budget)
               - normal_form_word(table, v + u, budget=budget))
    low = bracket.min_param_degree()
    table._bracket_cache[(u, v)] = (budget, bracket, low)
    return bracket, low


def commutator(a, b, table: RelationTable):
    """Normal form of a*b - b*a, by the Leibniz rule in each tensor factor.

    Coefficients commute, so a term pair (f1, f2) with coefficient product
    c adds c * (nf(f1*f2) - nf(f2*f1)), f1*f2 taken factorwise. A normal
    form acts factor by factor, so with u_p and v_p the factor words of f1
    and f2 the difference telescopes into one term per factor p:
        nf(v_1 u_1) (x) ... (x) [u_p, v_p] (x) nf(u_p+1 v_p+1) (x) ...,
    where [u, v] = nf(uv) - nf(vu) is the word bracket (word_bracket,
    cached per word pair on the table); for arity 2 this is
    [a1 (x) a2, b1 (x) b2] = [a1, b1] (x) a2 b2 + b1 a1 (x) [a2, b2].
    This only regroups the leftmost normal forms that normalize(a*b - b*a)
    sums, so the result is the same exact one, whether or not the table
    is confluent.

    A factor pure-swaps when both its words are sorted and every letter of
    one has an empty bracket with every letter of the other. Every word on
    the way from uv or vu is then a shuffle that keeps each word's letters
    in order, so every out-of-order adjacent pair joins a letter of u to
    one of v, and its rewrite adds no term: both orders reach the sorted
    merge of u and v with coefficient 1. Such a factor adds no bracket
    term and stands as that merged word beside the others' brackets. A
    pair adds its coefficient product only at the factors whose bracket is
    nonzero through the room the coefficients leave, order - their lowest
    degrees, and a pair with no such factor is skipped before the product
    is formed. The other factors of a term are normalised through the
    room that its bracket leaves in turn.

    A pair whose coefficients' lowest degrees sum above the order is
    skipped first, as a*b skips it. Any other pair whose product word
    passes the cap raises the CapExceededError that a*b raises, at the
    same pair, whether it is skipped or not. So whole operands that
    pure-swap give zero before any pair is formed, and operands whose
    longest words pass the cap together go through the pair loop, which
    raises where a*b does."""
    a._same_arity(b)
    context = a.context
    cap, order = context.cap, context.order
    shift, limit = context.monomials.shift, context.monomials.limit(order)
    a_letters, _, a_top = _reach(table, a)
    _, b_commuting, b_top = _reach(table, b)
    if not a_letters & ~b_commuting and a_top + b_top <= cap:
        # every letter of a commutes with every letter of b and all words
        # are sorted (an unsorted word sets every letter bit), so every
        # pair would be skipped below, and none would raise
        return a._like({})
    split, join = a._factors, a._key
    right = [(k, pairs, pairs[0][0] >> shift, *_shape(table, k, split(k)))
             for k, pairs in b.groups().items()]
    out = {}
    for k1, pairs1 in a.groups().items():
        f1, letters, _, lengths1, top1 = _shape(table, k1, split(k1))
        room1 = order - (pairs1[0][0] >> shift)
        for k2, pairs2, low2, f2, _, commuting, lengths2, top2 in right:
            room = room1 - low2
            if room < 0:
                # the coefficient product vanishes; a*b skips the pair too
                continue
            if top1 + top2 > cap and any(x + y > cap for x, y in zip(lengths1, lengths2)):
                # a*b raises here, at its first factor word past the cap
                for w in map(add, split(k1), split(k2)):
                    if len(w) > cap:
                        raise cap_error(w, context)
            if not letters & ~commuting:
                # every factor's bracket is zero: each pure-swaps, or pairs
                # an empty word of a with any word
                continue
            factors = [(u, v, lu & ~cv or lv & ~cu)
                       for (u, lu, cu), (v, lv, cv) in zip(f1, f2)]
            brackets = []
            for p, (u, v, moves) in enumerate(factors):
                if moves:
                    bracket, low = word_bracket(table, u, v, room)
                    if low is not None and low <= room:
                        brackets.append((p, bracket, room - low))
            if not brackets:
                continue
            c = coefficient_product(pairs1, pairs2, limit)
            for p, bracket, rest in brackets:
                line = [_beside(table, v + u, moves, rest) for u, v, moves in factors[:p]]
                line.append(bracket)
                line += [_beside(table, u + v, moves, rest) for u, v, moves in factors[p + 1:]]
                for (words, m), s in outer(line, limit, c).items():
                    accumulate(out, (join(words), m), s)
    return a._like(out)


def _reach(table, a):
    """(letters, commuting, longest) of an operand: its term shapes'
    letter masks OR-ed, their commuting masks AND-ed and its longest word
    (_shape); a zero operand reaches (0, -1, 0). It depends only on the
    operand's keys, so it is cached on the table by them, and the keys of
    an operand met again are scanned only to be hashed."""
    keys = tuple(a.groups())
    reach = table._reaches.get(keys)
    if reach is None:
        letters, commuting, longest = 0, -1, 0
        for key in keys:
            _, lw, cw, _, top = _shape(table, key, a._factors(key))
            letters |= lw
            commuting &= cw
            longest = max(longest, top)
        reach = table._reaches[keys] = (letters, commuting, longest)
    return reach


def _beside(table, word, moves, budget):
    """The normal form of a factor's product word beside a bracket,
    through budget: the sorted merge when the factor pure-swaps, the word
    itself when it is sorted."""
    if not moves:
        return tuple(sorted(word))
    if _first_descent(word) is None:
        return word
    return normal_form_word(table, word, budget=budget)


normalize_tensor = normalize


def presentation_jacobi_defect(table: RelationTable) -> dict:
    """Normal form of the Jacobi cyclic sum for every generator triple;
    nonzero entries only. An empty result certifies local confluence of
    the rewriting through the table's order.

    The stored brackets are read as they are: for i < j, [x_i, x_j] is
    rhs[j, i] negated, so its commutator is subtracted instead, and an
    undeclared (zero) bracket forms no commutator."""
    context = table.context
    n = len(context.basis)
    rhs = table.rhs
    gens = [NCPoly.generator(context, g) for g in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j]
                total = NCPoly.zero(context)
                for key, g, sign in (((j, i), k, -1), ((k, j), i, -1), ((k, i), j, 1)):
                    if key in rhs:
                        term = commutator(rhs[key], gens[g], table)
                        total = total + term if sign > 0 else total - term
                if total:
                    out[(i, j, k)] = total
    return out
