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
underscores (IDENTIFIER, which document validation also uses). A number
is a run of the ASCII digits 0-9; any other character, a superscript or
fraction digit included, is an unexpected character. One compiled
pattern lexes the whole text (_lex).

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
(t/z2)^2. A build shares one memo (Document.build_presentation). A
repeated group or call skips to its ')' and a repeated power is not
raised again; each adds to the loss the divisor degrees its first parse
added, so the decision to parse again is unchanged. No error is stored,
and a repeat nested too deep for its height is parsed again.
A product with a word-free factor scales the other factor's
coefficients rather than multiplying word by word.
'(x)' is always read as the tensor-join token, never as a parenthesised
identifier.
Parentheses, function calls and unary minus nest at most MAX_NESTING
levels deep; deeper input is a syntax error. A power whose constant term
would outgrow the digits a coefficient may print is an input error,
raised before the power is computed (scalars.check_power).
"""

from __future__ import annotations

import re
from dataclasses import replace
from operator import attrgetter, sub
from types import MappingProxyType

from .errors import ExprSyntaxError, InexactDivisionError, UnknownIdentifierError
from .ncpoly import Context, NCPoly, TensorNCPoly, cap_error, series_apply, tensor
from .params import ParamPoly
from .scalars import I, ONE, ZERO, Scalar, check_power

_FUNCTIONS = ("exp", "sinh", "cosh")
# deepest nesting of parentheses, function calls and unary minus; deeper
# input would exhaust the interpreter stack of this recursive parser
MAX_NESTING = 100


# the one identifier rule: document validation and the lexer both use it
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# one alternative per token kind; finditer skips whitespace, which no
# alternative matches, and a symbol (any other character) is one token
_TOKEN = re.compile(
    rf"(?P<TENSOR>\(\s*x\s*\))|(?P<NUMBER>[0-9]+)|(?P<IDENT>{IDENTIFIER.pattern})|\S"
)
_SYMBOLS = MappingProxyType({
    "+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
    "^": "CARET", "(": "LPAREN", ")": "RPAREN",
})


def _closing(kinds) -> dict:
    """The index of the ')' closing each closed '(' of a token list."""
    closing, opened = {}, []
    for at, kind in enumerate(kinds):
        if kind == "LPAREN":
            opened.append(at)
        elif kind == "RPAREN" and opened:
            closing[opened.pop()] = at
    return closing


def _lex(text: str):
    """The tokens of text as three lists, kinds, values and positions,
    ending with END. The scan runs in C; only NUMBER and TENSOR values
    are rewritten here, each to the value its kind carries."""
    matches = list(_TOKEN.finditer(text))
    values = list(map(re.Match.group, matches))
    # a symbol's kind is named by its text, any other token's by its group
    kinds = list(map(_SYMBOLS.get, values, map(attrgetter("lastgroup"), matches)))
    positions = list(map(re.Match.start, matches))
    for at, kind in enumerate(kinds):
        if kind == "NUMBER":
            try:
                values[at] = int(values[at])
            except ValueError:  # past the interpreter's digit limit
                raise ExprSyntaxError(
                    f"numeric literal of {len(values[at])} digits is too long",
                    positions[at],
                ) from None
        elif kind == "TENSOR":
            values[at] = "(x)"
        elif kind is None:
            raise ExprSyntaxError(f"unexpected character {values[at]!r}", positions[at])
    kinds.append("END")
    values.append(None)
    positions.append(len(text))
    return kinds, values, positions


class _Value:
    """A pending fraction: poly numerator and parameter-monomial denominator."""

    __slots__ = ("poly", "den")

    def __init__(self, poly, den=None):
        self.poly = poly
        self.den = dict(den) if den else {}

    def is_tensor(self):
        return isinstance(self.poly, TensorNCPoly)


def _divide(value, den: dict):
    """value (an NCPoly or TensorNCPoly) with every coefficient divided by
    the parameter monomial den = {name: power}, term by term. The only
    division by a parameter in the package: a term the monomial does not
    divide raises InexactDivisionError, naming the divisor."""
    context = value.context
    params, monomials = context.params, context.monomials
    exps = tuple(den.get(name, 0) for name in params)
    out = {}
    for (key, m), c in value.terms.items():
        e = monomials.unpack(m)
        shifted = tuple(map(sub, e, exps))
        if min(shifted) < 0:
            divisor = "*".join(
                name if p == 1 else f"{name}^{p}" for name, p in den.items() if p
            )
            term = ParamPoly(params, context.order, {e: c})
            raise InexactDivisionError(
                f"division by {divisor} is inexact: it does not divide {term}"
            )
        out[(key, monomials.pack(shifted))] = c
    return value._like(out)


def _monomial_product(left: dict, right: dict) -> dict:
    """The product of two parameter monomials {name: power}, left's
    names first: the one merge of pending divisors."""
    out = dict(left)
    for name, power in right.items():
        out[name] = out.get(name, 0) + power
    return out


def _product(left, right):
    """left * right for two NCPoly values. A word-free side multiplies
    the other's coefficients; no word changes length, and every word read
    was checked against the cap (Parser._atom) or made by a product that
    checked it."""
    for side, other in ((left, right), (right, left)):
        groups = side.groups()
        if len(groups) == 1 and () in groups:
            return other.scaled(groups[()])
    return left * right


class Parser:
    """One parse of a lexed expression at context's order. source is the
    text, its token lists and their _closing table. memo, which the
    caller owns for one context, maps (order, text) of an identifier to
    its value and of a group, call or power to (numerator, pending
    divisor, loss, nesting height) (_memoised)."""

    def __init__(self, context: Context, source, memo: dict):
        self.context = context
        self.text, self.kinds, self.values, self.positions, self.closing = source
        self.memo = memo
        self.at = 0
        self.depth = 0
        self.peak = 0  # deepest depth reached, for the heights in memo
        self.loss = 0  # sum of the degrees of every applied divisor

    # -- token plumbing -------------------------------------------------------

    def _peek(self):
        """The kind of the next token."""
        return self.kinds[self.at]

    def _next(self):
        """Consume the next token; its index."""
        self.at += 1
        return self.at - 1

    def _expect(self, kind):
        """Consume the next token, which must be of kind; its index."""
        at = self._next()
        if self.kinds[at] != kind:
            self._fail(f"expected {kind}, found {self.values[at]!r}", at)
        return at

    def _fail(self, message, at=None):
        """Raise a syntax error at token at (default: the next one)."""
        raise ExprSyntaxError(message, self.positions[self.at if at is None else at])

    def _resolve(self, value: _Value):
        """The numerator divided by the pending denominator. Every product
        was truncated at the parser's order, so a quotient by a degree-d
        monomial is exact only through d degrees less."""
        if not value.den:
            return value.poly
        poly = _divide(value.poly, value.den)
        self.loss += sum(value.den.values())
        return poly

    def _text_key(self, start, end):
        """The memo key of the text from token start through token end:
        the parse order and that text, without the blanks after it."""
        return (self.context.order,
                self.text[self.positions[start]:self.positions[end + 1]].rstrip())

    def _memoised(self, start, end, parse, *args) -> _Value:
        """parse(*args), which reads from token start through token end,
        or the memo's value for that text. end is the ')' closing a group
        or call (None when unclosed: parse raises) or the exponent of a
        power, whose parse only raises its base, read already. An entry
        is (numerator, pending divisor, loss, nesting height), height 0
        for a power; a repeat adds the loss its first parse added."""
        if end is None:
            return parse(*args)
        key = self._text_key(start, end)
        entry = self.memo.get(key)
        if entry is not None and self.depth + entry[3] <= MAX_NESTING:
            poly, den, loss, height = entry
            self.at = end + 1
            self.loss += loss
            self.peak = max(self.peak, self.depth + height)
            return _Value(poly, den)
        loss, peak = self.loss, self.peak
        self.peak = self.depth
        value = parse(*args)
        self.memo[key] = (value.poly, value.den, self.loss - loss, self.peak - self.depth)
        self.peak = max(peak, self.peak)
        return value

    # -- grammar --------------------------------------------------------------

    def parse(self):
        value = self._expr()
        if self._peek() != "END":
            self._fail(f"trailing input starting at {self.values[self.at]!r}")
        return self._resolve(value)

    def _expr(self) -> _Value:
        value = self._tterm()
        if self._peek() not in ("PLUS", "MINUS"):
            # single term: keep any pending division for the caller, so
            # prefactors like (t/(z2*h)) stay unresolved until the full
            # product is expanded
            return value
        total = self._resolve(value)
        while (kind := self._peek()) in ("PLUS", "MINUS"):
            op = self._next()
            rhs = self._resolve(self._tterm())
            if isinstance(total, TensorNCPoly) != isinstance(rhs, TensorNCPoly):
                self._fail("cannot add tensor and non-tensor terms", op)
            total = total + rhs if kind == "PLUS" else total - rhs
        return _Value(total)

    def _tterm(self) -> _Value:
        left = self._term()
        if self._peek() != "TENSOR":
            return left
        self._next()
        right = self._term()
        if self._peek() == "TENSOR":
            self._fail("tensor products beyond a square are not supported")
        if left.is_tensor() or right.is_tensor():
            self._fail("nested tensor join")
        return _Value(tensor(left.poly, right.poly),
                      _monomial_product(left.den, right.den))

    def _term(self) -> _Value:
        value = self._factor()
        while self._peek() == "STAR":
            self._next()
            rhs = self._factor()
            if value.is_tensor() or rhs.is_tensor():
                self._fail("'*' cannot multiply tensor expressions")
            value = _Value(_product(value.poly, rhs.poly),
                           _monomial_product(value.den, rhs.den))
        return value

    def _factor(self) -> _Value:
        start = self.at
        kind = self._peek()
        if self.depth == MAX_NESTING:
            self._fail(f"expression nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        if self.depth > self.peak:
            self.peak = self.depth
        if kind == "MINUS":
            self._next()
            inner = self._factor()
            value = _Value(-inner.poly, inner.den)
        elif kind == "NUMBER":
            value = self._scalar_literal()
        elif kind == "LPAREN":
            value = self._memoised(self.at, self.closing.get(self.at), self._group)
        elif kind == "IDENT":
            value = self._identifier()
        else:
            self._fail(f"unexpected token {self.values[self.at]!r}")
        self.depth -= 1
        return self._postfix(start, value)

    def _group(self) -> _Value:
        self._expect("LPAREN")
        value = self._expr()
        self._expect("RPAREN")
        return value

    def _scalar_literal(self) -> _Value:
        value = Scalar(self.values[self._expect("NUMBER")])
        if self._peek() == "IDENT" and self.values[self.at] == "i":
            self._next()
            value = value * I
        return _Value(NCPoly.from_scalar(self.context, value))

    def _identifier(self) -> _Value:
        at = self._expect("IDENT")
        name = self.values[at]
        if name in _FUNCTIONS:
            return self._memoised(at, self.closing.get(at + 1), self._series, name, at)
        key = (self.context.order, name)
        atom = self.memo.get(key)
        if atom is None:
            atom = self.memo[key] = self._atom(name, at)
        return _Value(atom)

    def _series(self, name, at) -> _Value:
        poly = self._resolve(self._group())
        if isinstance(poly, TensorNCPoly):
            self._fail("series functions take non-tensor arguments", at)
        return _Value(series_apply(name, poly))

    def _atom(self, name, at):
        """The value of the identifier name, read at token at: i, a
        parameter or a generator. Values are immutable, so the memo
        shares each. A generator is a word of length 1, checked against
        the cap here, as _product checks no word."""
        context = self.context
        if name == "i":
            return NCPoly.from_scalar(context, I)
        if name in context.params:
            return NCPoly.from_coeff(context, context.param_poly(name))
        index = context.basis.index.get(name)
        if index is None:
            raise UnknownIdentifierError(
                f"unknown identifier {name!r} (at position {self.positions[at]})"
            )
        if context.cap < 1:
            raise cap_error((index,), context)
        return NCPoly.generator(context, index)

    def _postfix(self, start, value: _Value) -> _Value:
        """value, the factor read from token start, with each '^' natural
        and '/' divisor that follows applied in turn."""
        while True:
            kind = self._peek()
            if kind == "CARET":
                self._next()
                at = self._expect("NUMBER")
                value = self._memoised(start, at, self._power, value, at)
            elif kind == "SLASH":
                self._next()
                value = self._division(value)
            else:
                return value

    def _power(self, value: _Value, at) -> _Value:
        """value, a factor read already (identifier or group memo hit and
        all), raised to the natural at token at. _postfix reads it through
        _memoised, keyed by the factor's text through its exponent, so
        each distinct power is raised once per order."""
        n = self.values[at]
        if value.is_tensor():
            self._fail("'^' cannot raise tensor expressions", at)
        # a divisor that divides exactly costs its degree once, not once
        # per factor of the power
        if value.den:
            try:
                value = _Value(self._resolve(value))
            except InexactDivisionError:
                pass
        # the constant term, with any pending division applied: the term
        # of the empty word at the divisor's monomial, if its degree is
        # within the order
        exps = tuple(value.den.get(name, 0) for name in self.context.params)
        constant = ZERO
        if sum(exps) <= self.context.order:
            term = ((), self.context.monomials.pack(exps))
            constant = value.poly.terms.get(term, ZERO)
        check_power(constant, n)
        den = {name: power * n for name, power in value.den.items()}
        return _Value(value.poly ** n, den)

    def _division(self, value: _Value) -> _Value:
        if self._peek() == "NUMBER":
            at = self._next()
            number, power = Scalar(self.values[at]), self._opt_power()
            if not number and power:
                self._fail("division by zero", at)
            if power != 1:
                check_power(number, power)
                number = number ** power
            return _Value(value.poly.scale(ONE / number), value.den)
        return _Value(value.poly, _monomial_product(value.den, self._divisor_monomial()))

    def _divisor_monomial(self) -> dict:
        at = self._next()
        if self.kinds[at] == "IDENT":
            return {self._require_param(at): self._opt_power()}
        if self.kinds[at] == "LPAREN":
            out = {}
            while True:
                name = self._require_param(self._expect("IDENT"))
                out[name] = out.get(name, 0) + self._opt_power()
                at = self._next()
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
        if self._peek() == "CARET":
            self._next()
            return self.values[self._expect("NUMBER")]
        return 1


def parse_expr(text: str, context: Context, *, _memo=None):
    """Parse an expression into an NCPoly or (with '(x)') a TensorNCPoly
    over context, exact through and cut at context.order. _memo is the
    memo of Parser; a caller parsing many expressions over one context
    may share one (Document.build_presentation does, for one build)."""
    order, slack = context.order, context.slack
    kinds, values, positions = _lex(text)
    source = (text, kinds, values, positions, _closing(kinds))
    memo = {} if _memo is None else _memo
    parser = Parser(replace(context, order=order + slack), source, memo)
    poly = parser.parse()
    if parser.loss > slack:
        poly = Parser(replace(context, order=order + parser.loss), source, memo).parse()
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


def parse_scalar_text(text: str, params=()) -> Scalar:
    """Parse a bare scalar literal such as '-3i/4' or '1/2'."""
    from .tensors import Basis

    context = Context(Basis(()), tuple(params), order=0, cap=0, slack=0)
    coeff = parse_coefficient(text, context)
    constant = coeff.constant_term()
    if coeff.terms and list(coeff.terms) != [(0,) * len(coeff.params)]:
        raise ExprSyntaxError(f"expected a scalar, found parameters in {text!r}")
    return constant
