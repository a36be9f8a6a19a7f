"""Parser for the relation/coproduct expression grammar.

    expr   := tterm (('+'|'-') tterm)*
    tterm  := term ('(x)' term)?          -- tensor join, coproducts only
    term   := factor ('*' factor)*        -- juxtaposition is not allowed
    factor := scalar | param | generator | fn '(' expr ')' | '(' expr ')'
              | factor '/' divisor | '-' factor | factor '^' natural
    divisor := number ('^' natural)? | parameter monomial
    fn     := 'exp' | 'sinh' | 'cosh'

An identifier (a parameter, generator or function name, or i) is an
ASCII letter or underscore followed by ASCII letters, digits and
underscores (IDENTIFIER). A declared or substituted parameter or
generator name is neither i nor a function name (RESERVED, check_names).
A number is a run of the ASCII digits 0-9; any other character, a
superscript or fraction digit included, is an unexpected character. One
compiled pattern lexes the whole text, and one pass over its tokens
converts the numbers and pairs each '(' with its ')' (_lex).

Scalars are rationals with an optional i factor ('1/2', 'i', '-3*i/4',
'-3i/4'). A divisor is either a number with an optional natural power
(exact scalar division: t/2^3 is t/8) or a parameter monomial such as
z2 or (z2*h); parameter divisions are kept pending for the enclosing
additive term and applied only after the term has been fully expanded,
so removable prefactor singularities like t/(z2*h) never require stored
negative exponents. The one earlier point
is the base of a power: a divisor that divides it exactly is applied
there, so its degree is lost once rather than once per factor. A
quotient by a degree-d monomial is exact only through d degrees below
the order the parse works at. parse_expr is the one place that works above the
context's order: it parses at order + slack, parses again at order + the
summed divisor degrees when those exceed the slack, and cuts the result
to the context's order, through which it is exact, repacking each
monomial once into the context's packing (ncpoly). Both parses read one
token list and one memo, keyed by parse order and source text, of each
identifier, parenthesised group and exp/sinh/cosh call read, and of each
power: a factor's text through its '^' natural, such as t^2, p_x^3 or
(t/z2)^2. The memo also holds the one working Context of each parse
order, so a build makes one per order, not one per expression. A build
shares one memo (Document.build_presentation), as do the entries of one
composition (Document.composition_tensor). A
repeated group or call skips to its ')' and a repeated power is not
raised again; each adds to the loss the divisor degrees its first parse
added, so the decision to parse again is unchanged. No error is stored,
and a repeat nested too deep for its height is parsed again.

A value is worked on as its flat term map (ncpoly), and an emitted
document is mostly single-term products such as -1/2*t*h^2*z*l_z^2. So
the product of two single-term values (a number, i, a parameter, a
generator, a power of one, a memo hit holding one term) is formed
directly as one term by ncpoly.term_product: the packed monomials add,
the term drops when its degree passes the parse order, and only a term
that stays has its word held to the word-length limit. NCPoly.times
forms a product of two single terms by the same rule, so each factor of a power
or series of a single term is one term too. Any other product with a
word-free factor scales the other factor's coefficients, and the rest
multiply word by word. A sum
adds each term into one map in place, and a pending divisor is shared,
never copied, while none is added to it. An error at the end of the
text names the end of expression.
'(x)' is always read as the tensor-join token, never as a parenthesised
identifier.
Parentheses, function calls and unary minus nest at most MAX_NESTING
levels deep; deeper input is a syntax error. A power whose constant term
would outgrow the digits a coefficient may print is an input error,
raised before the power is computed (scalars.check_power).

The parser bounds each value before it forms it, against two numbers:
the word-length limit (word_limit: the cap when one is given, else
MAX_WORD_LENGTH) and the term limit MAX_TERMS. A product or tensor join
of an a-term and a b-term operand is refused when a*b passes MAX_TERMS,
and a product word that survives truncation and passes the word-length
limit is refused. A power or series whose base has T terms and a
longest word of l letters can multiply at most k word factors, k the
most whose degrees fit under the parse order (Parser._check_growth); it
is refused when k*l passes the word-length limit, or when T^k (for a
series, which sums every power through k, T^0 + ... + T^k) passes
MAX_TERMS. So p_x^200 and (p_x+p_y)^40 stop before any product is
formed. Neither number reads the order or the slack.

word_bound is the one check of word length after the parse: it derives
from a presentation's tables the longest word its checks can form and
holds that to the same word-length limit.
"""

from __future__ import annotations

import re
from dataclasses import replace
from operator import attrgetter, sub
from types import MappingProxyType

from .errors import (
    CapExceededError, DocumentError, ExprSyntaxError, InexactDivisionError,
    UnknownIdentifierError,
)
from .ncpoly import (
    SERIES_TERMS, Context, NCPoly, TensorNCPoly, series_apply, tensor, term_product,
    word_str,
)
from .params import coefficient_product, coefficient_text, monomial_text
from .scalars import I, ONE, ZERO, Scalar, check_power
from .sparse import accumulate, deduct
from .tensors import Basis

# deepest nesting of parentheses, function calls and unary minus; deeper
# input would exhaust the interpreter stack of this recursive parser
MAX_NESTING = 100
# the longest word a parse may form and the largest word bound
# (word_bound) a build may derive when no cap is given (word_limit): a
# resource guard, like MAX_NESTING, and not a setting
MAX_WORD_LENGTH = 64
# the most terms a product, tensor join, power or series of the parser
# may form: a resource guard, like MAX_NESTING, and not a setting. The
# largest value a bundled or tested presentation forms holds 21,845 terms
MAX_TERMS = 2 ** 18
# the generator units a check multiplies at most: presentation-Jacobi
# forms a relation term (two units) times a generator (word_bound)
_UNITS = 3


def word_limit(context: Context) -> int:
    """The longest word a parse over context may form and the largest
    word bound its build may derive: the cap when one is given, else
    MAX_WORD_LENGTH."""
    return MAX_WORD_LENGTH if context.cap is None else context.cap


# the one identifier rule: the lexer reads it, and check_names holds
# every declared or substituted name to it
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the identifiers the grammar gives a meaning: i and the series functions
RESERVED = frozenset(("i", *SERIES_TERMS))


def check_names(names) -> None:
    """Raise DocumentError naming the first of names (the parameters and
    generators of one document) that is not an IDENTIFIER, is RESERVED
    or repeats an earlier one."""
    seen = set()
    for name in names:
        if not IDENTIFIER.fullmatch(name):
            raise DocumentError(f"bad identifier {name!r}")
        if name in RESERVED:
            raise DocumentError(f"identifier {name!r} is reserved")
        if name in seen:
            raise DocumentError(f"identifier {name!r} declared twice")
        seen.add(name)


# one named alternative per token kind, so a match's lastgroup is its
# kind; finditer skips whitespace, which no alternative matches, and any
# other character is one token of no kind. '(x)' is tried before '('
_TOKEN = re.compile(
    rf"(?P<IDENT>{IDENTIFIER.pattern})|(?P<NUMBER>[0-9]+)|(?P<STAR>\*)"
    r"|(?P<TENSOR>\(\s*x\s*\))|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<PLUS>\+)"
    r"|(?P<MINUS>-)|(?P<SLASH>/)|(?P<CARET>\^)|\S"
)
# the token kinds that _lex leaves as they are
_PLAIN = frozenset(("IDENT", "STAR", "PLUS", "MINUS", "SLASH", "CARET"))
# the pending divisor of a value with none, shared by every such value
_NO_DIVISOR = MappingProxyType({})


def _lex(text: str):
    """The tokens of text as three lists, kinds, values and positions,
    ending with END, and the index of the ')' closing each closed '('.
    The scan runs in C; one pass over the kinds rewrites each NUMBER and
    TENSOR value to the value its kind carries and pairs the
    parentheses."""
    matches = list(_TOKEN.finditer(text))
    values = list(map(re.Match.group, matches))
    kinds = list(map(attrgetter("lastgroup"), matches))
    positions = list(map(re.Match.start, matches))
    closing, opened = {}, []
    for at, kind in enumerate(kinds):
        if kind in _PLAIN:
            continue
        if kind == "LPAREN":
            opened.append(at)
        elif kind == "RPAREN":
            if opened:
                closing[opened.pop()] = at
        elif kind == "NUMBER":
            try:
                values[at] = int(values[at])
            except ValueError:  # past the interpreter's digit limit
                raise ExprSyntaxError(
                    f"numeric literal of {len(values[at])} digits is too long",
                    positions[at],
                ) from None
        elif kind == "TENSOR":
            values[at] = "(x)"
        else:
            raise ExprSyntaxError(f"unexpected character {values[at]!r}", positions[at])
    kinds.append("END")
    values.append(None)
    positions.append(len(text))
    return kinds, values, positions, closing


def _divide(value, den: dict):
    """value (an NCPoly or TensorNCPoly) with every coefficient divided by
    the parameter monomial den = {name: power}, term by term. The only
    division by a parameter in the package: a term the monomial does not
    divide raises InexactDivisionError, naming the divisor."""
    params, monomials = value.context.params, value.context.monomials
    exps = tuple(den.get(name, 0) for name in params)
    out = {}
    for (key, m), c in value.terms.items():
        e = monomials.unpack(m)
        shifted = tuple(map(sub, e, exps))
        if min(shifted) < 0:
            raise InexactDivisionError(
                f"division by {monomial_text(den.items())} is inexact: it does not "
                f"divide {coefficient_text(params, [(e, c)])}"
            )
        out[(key, monomials.pack(shifted))] = c
    return value._like(out)


def _monomial_product(left, right):
    """The product of two parameter monomials {name: power}, left's
    names first: the one merge of pending divisors. A side with no
    divisor returns the other as it is; divisors are never altered."""
    if not left:
        return right
    out = dict(left)
    for name, power in right.items():
        out[name] = out.get(name, 0) + power
    return out


class Parser:
    """One parse of a lexed expression at context's order. source is the
    text and the token lists and closing table of _lex. memo, which the
    caller owns for one context, maps (order, text) of an identifier to
    its value and of a group, call or power to (value, loss, nesting
    height) (_memoised), and a parse order to its working context
    (_working).

    A value is a tuple (terms, arity, den): a flat term map {(key, m):
    Scalar} over context, never altered once made, so the memo may share
    it; the arity, 1 for a word polynomial and 2 for a tensor square; and
    the pending parameter-monomial divisor {name: power}."""

    def __init__(self, context: Context, source, memo: dict):
        self.context = context
        self.limit = context.monomials.limit(context.order)
        self.longest = word_limit(context)  # the longest word a product may form
        self.text, self.kinds, self.values, self.positions, self.closing = source
        self.memo = memo
        self.at = 0
        self.depth = 0
        self.peak = 0  # deepest depth reached, for the heights in memo
        self.loss = 0  # sum of the degrees of every applied divisor

    # -- token plumbing -------------------------------------------------------

    def _expect(self, kind):
        """Consume the next token, which must be of kind; its index."""
        at = self.at
        self.at = at + 1
        if self.kinds[at] != kind:
            found = ("end of expression" if self.kinds[at] == "END"
                     else repr(self.values[at]))
            self._fail(f"expected {kind}, found {found}", at)
        return at

    def _fail(self, message, at=None):
        """Raise a syntax error at token at (default: the next one)."""
        raise ExprSyntaxError(message, self.positions[self.at if at is None else at])

    def _check_terms(self, what, a, b):
        """Refuse a product or tensor join of an a-term and a b-term
        operand when it can form more than MAX_TERMS terms."""
        if a * b > MAX_TERMS:
            raise CapExceededError(f"{what} of {a} and {b} terms exceeds the "
                                   f"term limit {MAX_TERMS}")

    def _check_growth(self, start, terms, n=None):
        """Refuse the power (n factors) or series (n None) of the base
        terms, read from token start through the last token read, before
        it is formed, when it can form a word past the word-length limit
        or more than MAX_TERMS terms. Each factor from the word part has
        at least its lowest degree d, so a product keeps at most k =
        order // d of them, and a power takes at most n (any number when
        d = 0). So no word formed has more than k*l letters, l the
        base's longest word, no power more than T^k terms, T the base's
        terms, and no series, which sums the powers 0 through k, more
        than T^0 + ... + T^k. A base with no word forms none, and
        series_apply refuses a series of a degree-0 argument."""
        degrees = [m for w, m in terms if w]
        if not degrees:
            return
        low = self.context.monomials.degree(min(degrees))
        k = self.context.order // low if low else n
        if k is None:
            return
        if n is not None:
            k = min(k, n)
        letters = k * max(len(w) for w, _ in terms)
        # T^i for i from 0 through k: past MAX_TERMS' bit length, k
        # factors of any T > 1 pass it already
        powers = [len(terms) ** i for i in range(min(k, MAX_TERMS.bit_length()) + 1)]
        if letters > self.longest:
            past = f"words of {letters} letters, past the word-length limit {self.longest}"
        elif (sum(powers) if n is None else powers[-1]) > MAX_TERMS:
            formed = f"{len(terms)}^0+...+{len(terms)}^{k}" if n is None else f"{len(terms)}^{k}"
            past = f"{formed} terms, past the term limit {MAX_TERMS}"
        else:
            return
        raise CapExceededError(f"{self._text_key(start, self.at - 1)[1]!r} can form {past}")

    def _poly(self, terms, arity):
        """The NCPoly (arity 1) or TensorNCPoly holding terms."""
        return (NCPoly if arity == 1 else TensorNCPoly)._of(self.context, terms, arity)

    def _resolve(self, value):
        """The terms of value divided by its pending divisor. Every product
        was truncated at the parser's order, so a quotient by a degree-d
        monomial is exact only through d degrees less."""
        terms, arity, den = value
        if not den:
            return terms
        terms = _divide(self._poly(terms, arity), den).terms
        self.loss += sum(den.values())
        return terms

    def _text_key(self, start, end):
        """The memo key of the text from token start through token end:
        the parse order and that text, without the blanks after it."""
        return (self.context.order,
                self.text[self.positions[start]:self.positions[end + 1]].rstrip())

    def _memoised(self, start, end, parse, *args):
        """parse(*args), which reads from token start through token end,
        or the memo's value for that text. end is the ')' closing a group
        or call (None when unclosed: parse raises) or the exponent of a
        power, whose parse only raises its base, read already. An entry
        is (value, loss, nesting height), height 0 for a power; a repeat
        adds the loss its first parse added."""
        if end is None:
            return parse(*args)
        key = self._text_key(start, end)
        entry = self.memo.get(key)
        if entry is not None and self.depth + entry[2] <= MAX_NESTING:
            value, loss, height = entry
            self.at = end + 1
            self.loss += loss
            self.peak = max(self.peak, self.depth + height)
            return value
        loss, peak = self.loss, self.peak
        self.peak = self.depth
        value = parse(*args)
        self.memo[key] = (value, self.loss - loss, self.peak - self.depth)
        self.peak = max(peak, self.peak)
        return value

    # -- grammar --------------------------------------------------------------

    def parse(self):
        value = self._expr()
        if self.kinds[self.at] != "END":
            self._fail(f"trailing input starting at {self.values[self.at]!r}")
        return self._poly(self._resolve(value), value[1])

    def _expr(self):
        value = self._tterm()
        kinds = self.kinds
        kind = kinds[self.at]
        if kind != "PLUS" and kind != "MINUS":
            # single term: keep any pending division for the caller, so
            # prefactors like (t/(z2*h)) stay unresolved until the full
            # product is expanded
            return value
        arity = value[1]
        total = dict(self._resolve(value))
        while kind == "PLUS" or kind == "MINUS":
            op = self.at
            self.at = op + 1
            rhs = self._tterm()
            terms = self._resolve(rhs)
            if rhs[1] != arity:
                self._fail("cannot add tensor and non-tensor terms", op)
            update = accumulate if kind == "PLUS" else deduct
            for term, c in terms.items():
                update(total, term, c)
            kind = kinds[self.at]
        return total, arity, _NO_DIVISOR

    def _tterm(self):
        left = self._term()
        if self.kinds[self.at] != "TENSOR":
            return left
        self.at += 1
        right = self._term()
        if self.kinds[self.at] == "TENSOR":
            self._fail("tensor products beyond a square are not supported")
        (lterms, larity, lden), (rterms, rarity, rden) = left, right
        if larity != 1 or rarity != 1:
            self._fail("nested tensor join")
        self._check_terms("tensor join", len(lterms), len(rterms))
        if len(lterms) == 1 == len(rterms):
            [((w1, m1), c1)] = lterms.items()
            [((w2, m2), c2)] = rterms.items()
            product = coefficient_product(((m1, c1),), ((m2, c2),), self.limit)
            terms = {((w1, w2), m): c for m, c in product}
        else:
            terms = tensor(self._poly(lterms, 1), self._poly(rterms, 1)).terms
        return terms, 2, _monomial_product(lden, rden)

    def _term(self):
        terms, arity, den = self._factor()
        kinds = self.kinds
        while kinds[self.at] == "STAR":
            self.at += 1
            rterms, rarity, rden = self._factor()
            if arity != 1 or rarity != 1:
                self._fail("'*' cannot multiply tensor expressions")
            terms = self._times(terms, rterms)
            if rden:
                den = _monomial_product(den, rden)
        return terms, arity, den

    def _times(self, left, right):
        """The terms of left * right for two word term maps, each operand
        pair counted against MAX_TERMS and every kept word held to the
        word-length limit. Two single terms make at most one
        (ncpoly.term_product, under the rules of NCPoly.times). Otherwise
        a word-free side multiplies the other's coefficients, and no word
        changes length."""
        if len(left) == 1 == len(right):
            [term] = left.items()
            [other] = right.items()
            term = term_product(term, other, self.limit)
            if term is None:
                return {}
            word, terms = term[0][0], {term[0]: term[1]}
        else:
            self._check_terms("product", len(left), len(right))
            left, right = self._poly(left, 1), self._poly(right, 1)
            for side, other in ((left, right), (right, left)):
                groups = side.groups()
                if len(groups) == 1 and () in groups:
                    return other.scaled(groups[()]).terms
            terms = left.times(right).terms
            word = max((w for w, _ in terms), key=len, default=())
        if len(word) > self.longest:
            raise CapExceededError(f"word {word_str(word, self.context.basis)} exceeds "
                                   f"word-length limit {self.longest}")
        return terms

    def _factor(self):
        start = self.at
        kind = self.kinds[start]
        depth = self.depth
        if depth == MAX_NESTING:
            self._fail(f"expression nested more than {MAX_NESTING} levels deep")
        self.depth = depth + 1
        if depth >= self.peak:
            self.peak = depth + 1
        if kind == "IDENT":
            value = self._identifier()
        elif kind == "NUMBER":
            value = self._scalar_literal()
        elif kind == "LPAREN":
            value = self._memoised(start, self.closing.get(start), self._group)
        elif kind == "MINUS":
            self.at = start + 1
            terms, arity, den = self._factor()
            value = {term: -c for term, c in terms.items()}, arity, den
        elif kind == "END":
            self._fail("unexpected end of expression")
        else:
            self._fail(f"unexpected token {self.values[start]!r}")
        self.depth = depth
        kind = self.kinds[self.at]
        if kind == "CARET" or kind == "SLASH":
            return self._postfix(start, value)
        return value

    def _group(self):
        self._expect("LPAREN")
        value = self._expr()
        self._expect("RPAREN")
        return value

    def _scalar_literal(self):
        at = self.at
        value = Scalar(self.values[at])
        at += 1
        if self.kinds[at] == "IDENT" and self.values[at] == "i":
            at += 1
            value = value * I
        self.at = at
        return ({((), 0): value} if value else {}), 1, _NO_DIVISOR

    def _identifier(self):
        at = self.at
        self.at = at + 1
        name = self.values[at]
        if name in SERIES_TERMS:
            return self._memoised(at, self.closing.get(at + 1), self._series, name, at)
        key = (self.context.order, name)
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = (self._atom(name, at), 1, _NO_DIVISOR)
        return value

    def _series(self, name, at):
        value = self._group()
        terms = self._resolve(value)
        if value[1] != 1:
            self._fail("series functions take non-tensor arguments", at)
        self._check_growth(at, terms)
        return series_apply(name, self._poly(terms, 1)).terms, 1, _NO_DIVISOR

    def _atom(self, name, at):
        """The terms of the identifier name, read at token at: i, a
        parameter or a generator."""
        context = self.context
        if name == "i":
            return NCPoly.from_scalar(context, I).terms
        if name in context.params:
            return NCPoly(context, {(): context.param_poly(name)}).terms
        index = context.basis.index.get(name)
        if index is None:
            raise UnknownIdentifierError(
                f"unknown identifier {name!r} (at position {self.positions[at]})"
            )
        return NCPoly.generator(context, index).terms

    def _postfix(self, start, value):
        """value, the factor read from token start, with each '^' natural
        and '/' divisor that follows applied in turn."""
        while True:
            kind = self.kinds[self.at]
            if kind == "CARET":
                self.at += 1
                at = self._expect("NUMBER")
                value = self._memoised(start, at, self._power, value, start, at)
            elif kind == "SLASH":
                self.at += 1
                value = self._division(value)
            else:
                return value

    def _power(self, value, start, at):
        """value, a factor read from token start already (identifier or
        group memo hit and all), raised to the natural at token at, its
        growth checked first (_check_growth). _postfix reads it through
        _memoised, keyed by the factor's text through its exponent, so
        each distinct power is raised once per order."""
        n = self.values[at]
        terms, arity, den = value
        if arity != 1:
            self._fail("'^' cannot raise tensor expressions", at)
        # a divisor that divides exactly costs its degree once, not once
        # per factor of the power
        if den:
            try:
                terms, den = self._resolve(value), _NO_DIVISOR
            except InexactDivisionError:
                pass
        # the constant term, with any pending division applied: the term
        # of the empty word at the divisor's monomial, if its degree is
        # within the order
        context = self.context
        exps = tuple(den.get(name, 0) for name in context.params)
        constant = ZERO
        if sum(exps) <= context.order:
            constant = terms.get(((), context.monomials.pack(exps)), ZERO)
        check_power(constant, n)
        self._check_growth(start, terms, n)
        if den:
            den = {name: power * n for name, power in den.items()}
        return self._poly(terms, 1).raised(n).terms, 1, den

    def _division(self, value):
        terms, arity, den = value
        if self.kinds[self.at] == "NUMBER":
            at = self.at
            self.at = at + 1
            number, power = Scalar(self.values[at]), self._opt_power()
            if not number and power:
                self._fail("division by zero", at)
            if power != 1:
                check_power(number, power)
                number = number ** power
            inverse = ONE / number
            return {term: c * inverse for term, c in terms.items()}, arity, den
        return terms, arity, _monomial_product(den, self._divisor_monomial())

    def _divisor_monomial(self) -> dict:
        at = self.at
        self.at = at + 1
        if self.kinds[at] == "IDENT":
            return {self._require_param(at): self._opt_power()}
        if self.kinds[at] == "LPAREN":
            out = {}
            while True:
                name = self._require_param(self._expect("IDENT"))
                out[name] = out.get(name, 0) + self._opt_power()
                at = self.at
                self.at = at + 1
                if self.kinds[at] == "RPAREN":
                    return out
                if self.kinds[at] != "STAR":
                    self._fail("divisor must be a parameter monomial", at)
        self._fail("divisor must be a parameter monomial", at)

    def _require_param(self, at) -> str:
        name = self.values[at]
        if name not in self.context.params:
            self._fail(f"divisor {name!r} is not a parameter", at)
        return name

    def _opt_power(self) -> int:
        if self.kinds[self.at] == "CARET":
            self.at += 1
            return self.values[self._expect("NUMBER")]
        return 1


def _working(context: Context, order: int, memo: dict) -> Context:
    """context at the parse order order: context itself at its own order,
    else the one copy the memo keeps for that order."""
    if order == context.order:
        return context
    working = memo.get(order)
    if working is None:
        working = memo[order] = replace(context, order=order)
    return working


def parse_expr(text: str, context: Context, *, _memo=None):
    """Parse an expression into an NCPoly or (with '(x)') a TensorNCPoly
    over context, exact through and cut at context.order. _memo is the
    memo of Parser; a caller parsing many expressions over one context
    may share one (Document.build_presentation does, for one build)."""
    order, slack = context.order, context.slack
    source = (text, *_lex(text))
    memo = {} if _memo is None else _memo
    parser = Parser(_working(context, order + slack, memo), source, memo)
    poly = parser.parse()
    if parser.loss > slack:
        poly = Parser(_working(context, order + parser.loss, memo), source, memo).parse()
    return poly.repack(context)


def parse_coefficient(text: str, context: Context, *, _memo=None):
    """Parse an expression that must reduce to a commuting coefficient;
    _memo is parse_expr's."""
    poly = parse_expr(text, context, _memo=_memo)
    if isinstance(poly, TensorNCPoly):
        raise ExprSyntaxError("expected a coefficient, found a tensor expression")
    for word in poly.groups():
        if word:
            raise ExprSyntaxError(
                f"expected a coefficient, found generator word in {text!r}"
            )
    return poly.coefficient(())


def parse_scalar_text(text: str) -> Scalar:
    """Parse a bare scalar literal such as '-3i/4' or '1/2'."""
    context = Context(Basis(()), (), order=0, slack=0)
    return parse_coefficient(text, context).constant_term()


def word_bound(context: Context, relations, coproducts) -> int:
    """B, the longest word that the checks of a presentation over context
    can form, from its relation right-hand sides and its coproducts
    (NCPoly and TensorNCPoly values). B is held to word_limit(context): a
    larger B is a CapExceededError that names it.

    The rate rho is the largest (letters - base) / degree over the terms
    of these values, a term's letters summed over its tensor factors and
    its degree its parameter degree. The base is 2 for a relation term,
    which takes the place of two letters, and 1 for a coproduct term, the
    image of one. No term below its base counts, so rho >= 0. Call a
    term's letters less rho times its parameter degree its excess; every
    relation term has excess at most 2 and every coproduct term at most
    1. Then:
    - a rewrite never raises the excess: it puts two letters in sorted
      order, or puts a relation term of degree d, at most 2 + rho*d
      letters, in the place of two letters at d degrees more;
    - a product adds the excesses of its factors;
    - a word map keeps it: each generator's image has excess at most 1
      (its coproduct, its counit, 0, or its antipode), so the image of a
      term has excess at most the term's. For the antipode this holds by
      induction on degree: the degree-k part of S(g) is minus that of
      m(S (x) id) applied to Delta g less its primitive part, whose terms
      have degree >= 1 and excess at most 1, through the parts of the
      table below degree k.
    So a term that a check forms has excess at most the generator units
    that the check multiplies, _UNITS: presentation-Jacobi multiplies the
    most, a relation term by a generator. No term is kept past the order,
    so no word that a check forms has more than 3 + rho * order letters:
    B = 3 + floor(rho * order), the largest 3 + floor(extra * order /
    degree) over the terms.

    A coproduct term of degree 0 with more than one letter has no rate
    (a relation term of degree 0 is refused by RelationTable): each
    product of coproducts would lengthen words at no cost in degree, so
    it is refused."""
    shift, order, bound = context.monomials.shift, context.order, _UNITS
    for base, values in ((2, relations), (1, coproducts)):
        for value in values:
            split = value._factors
            for key, m in value.terms:
                extra = sum(map(len, split(key))) - base
                if extra > 0:
                    if m >> shift == 0:
                        term = " (x) ".join(word_str(w, context.basis) for w in split(key))
                        raise CapExceededError(f"coproduct term {term} has parameter degree 0 "
                                               "and more than one letter: no bound on word length")
                    bound = max(bound, _UNITS + extra * order // (m >> shift))
    limit = word_limit(context)
    if bound > limit:
        raise CapExceededError(f"word-length bound {bound} at order {context.order} exceeds "
                               + (f"the limit {limit}" if context.cap is None else f"cap {limit}"))
    return bound
