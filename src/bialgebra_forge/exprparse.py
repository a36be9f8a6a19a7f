"""Parser for the relation/coproduct expression grammar.

    expr   := tterm (('+'|'-') tterm)*
    tterm  := term ('(x)' term)*          -- tensor join, coproducts only
    term   := factor ('*' factor)*        -- juxtaposition is not allowed
    factor := scalar | param | generator | fn '(' expr ')' | '(' expr ')'
              | factor '/' divisor | '-' factor | factor '^' natural
    fn     := 'exp' | 'sinh' | 'cosh'

Scalars are rationals with an optional i factor ('1/2', 'i', '-3*i/4',
'-3i/4'). A divisor is either a number (exact scalar division) or a
parameter monomial such as z2 or (z2*h); parameter divisions are kept
pending for the enclosing additive term and applied only after the term
has been fully expanded, so removable prefactor singularities like
t/(z2*h) never require stored negative exponents. The one earlier point
is the base of a power: a divisor that divides it exactly is applied
there, so its degree is lost once rather than once per factor. A
quotient by a degree-d monomial is exact only through d degrees below
the order the parse works at. parse_expr is the one place that works above the
context's order: it parses at order + slack, parses again at order + the
summed divisor degrees when those exceed the slack, and cuts the result
to the context's order, through which it is exact.
'(x)' is always read as the tensor-join token, never as a parenthesised
identifier.
Parentheses, function calls and unary minus nest at most MAX_NESTING
levels deep; deeper input is a syntax error. A power whose constant term
would outgrow the digits a coefficient may print is an input error,
raised before the power is computed (scalars.check_power).
"""

from __future__ import annotations

from dataclasses import replace

from .errors import ExprSyntaxError, InexactDivisionError, UnknownIdentifierError
from .ncpoly import Context, NCPoly, TensorNCPoly, divide_param, series_apply, tensor
from .scalars import I, ONE, ZERO, Scalar, check_power

_FUNCTIONS = ("exp", "sinh", "cosh")
# deepest nesting of parentheses, function calls and unary minus; deeper
# input would exhaust the interpreter stack of this recursive parser
MAX_NESTING = 100
_SYMBOLS = ("+", "-", "*", "/", "^", "(", ")")


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"{self.kind}:{self.value!r}@{self.pos}"


def _lex(text: str):
    tokens = []
    n = len(text)
    pos = 0
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "(":
            # look ahead for the tensor-join token '(x)'
            look = pos + 1
            while look < n and text[look].isspace():
                look += 1
            if look < n and text[look] == "x":
                close = look + 1
                while close < n and text[close].isspace():
                    close += 1
                if close < n and text[close] == ")":
                    tokens.append(_Token("TENSOR", "(x)", pos))
                    pos = close + 1
                    continue
            tokens.append(_Token("LPAREN", "(", pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            try:
                value = int(text[start:pos])
            except ValueError:  # past the interpreter's digit limit
                raise ExprSyntaxError(
                    f"numeric literal of {pos - start} digits is too long", start
                ) from None
            tokens.append(_Token("NUMBER", value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(_Token("IDENT", text[start:pos], start))
            continue
        if ch in _SYMBOLS:
            kind = {
                "+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
                "^": "CARET", "(": "LPAREN", ")": "RPAREN",
            }[ch]
            tokens.append(_Token(kind, ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("END", None, n))
    return tokens


class _Value:
    """A pending fraction: poly numerator and parameter-monomial denominator."""

    __slots__ = ("poly", "den")

    def __init__(self, poly, den=None):
        self.poly = poly
        self.den = dict(den) if den else {}

    def is_tensor(self):
        return isinstance(self.poly, TensorNCPoly)


class Parser:
    def __init__(self, context: Context, text: str):
        self.context = context
        self.text = text
        self.tokens = _lex(text)
        self.at = 0
        self.depth = 0
        self.gen_index = context.basis.index
        self.param_set = set(context.params)
        self.loss = 0  # sum of the degrees of every applied divisor

    # -- token plumbing -------------------------------------------------------

    def _peek(self):
        return self.tokens[self.at]

    def _next(self):
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def _expect(self, kind):
        tok = self._next()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok.value!r}", tok.pos)
        return tok

    def _fail(self, message, tok=None):
        tok = tok or self._peek()
        raise ExprSyntaxError(message, tok.pos)

    def _resolve(self, value: _Value):
        """The numerator divided by the pending denominator. Every product
        was truncated at the parser's order, so a quotient by a degree-d
        monomial is exact only through d degrees less."""
        if not value.den:
            return value.poly
        poly = divide_param(value.poly, value.den)
        self.loss += sum(value.den.values())
        return poly

    # -- grammar --------------------------------------------------------------

    def parse(self):
        value = self._expr()
        end = self._peek()
        if end.kind != "END":
            self._fail(f"trailing input starting at {end.value!r}")
        return self._resolve(value)

    def _expr(self) -> _Value:
        value = self._tterm()
        if self._peek().kind not in ("PLUS", "MINUS"):
            # single term: keep any pending division for the caller, so
            # prefactors like (t/(z2*h)) stay unresolved until the full
            # product is expanded
            return value
        total = self._resolve(value)
        while self._peek().kind in ("PLUS", "MINUS"):
            op = self._next()
            rhs = self._resolve(self._tterm())
            if isinstance(total, TensorNCPoly) != isinstance(rhs, TensorNCPoly):
                self._fail("cannot add tensor and non-tensor terms", op)
            total = total + rhs if op.kind == "PLUS" else total - rhs
        return _Value(total)

    def _tterm(self) -> _Value:
        value = self._term()
        factors = [value]
        while self._peek().kind == "TENSOR":
            self._next()
            factors.append(self._term())
        if len(factors) == 1:
            return value
        if len(factors) > 3:
            self._fail("tensor products beyond cube are not supported")
        for f in factors:
            if f.is_tensor():
                self._fail("nested tensor join")
        den = {}
        for f in factors:
            for name, power in f.den.items():
                den[name] = den.get(name, 0) + power
        return _Value(tensor(*[f.poly for f in factors]), den)

    def _term(self) -> _Value:
        value = self._factor()
        while self._peek().kind == "STAR":
            self._next()
            rhs = self._factor()
            if value.is_tensor() or rhs.is_tensor():
                self._fail("'*' cannot multiply tensor expressions")
            den = dict(value.den)
            for name, power in rhs.den.items():
                den[name] = den.get(name, 0) + power
            value = _Value(value.poly * rhs.poly, den)
        return value

    def _factor(self) -> _Value:
        tok = self._peek()
        if self.depth == MAX_NESTING:
            self._fail(f"expression nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        if tok.kind == "MINUS":
            self._next()
            inner = self._factor()
            value = _Value(-inner.poly, inner.den)
        elif tok.kind == "NUMBER":
            value = self._scalar_literal()
        elif tok.kind == "LPAREN":
            self._next()
            value = self._expr()
            self._expect("RPAREN")
        elif tok.kind == "IDENT":
            value = self._identifier()
        else:
            self._fail(f"unexpected token {tok.value!r}")
        self.depth -= 1
        return self._postfix(value)

    def _scalar_literal(self) -> _Value:
        tok = self._expect("NUMBER")
        value = Scalar(tok.value)
        if self._peek().kind == "IDENT" and self._peek().value == "i":
            self._next()
            value = value * I
        return _Value(NCPoly.from_scalar(self.context, value))

    def _identifier(self) -> _Value:
        tok = self._expect("IDENT")
        name = tok.value
        if name in _FUNCTIONS:
            self._expect("LPAREN")
            arg = self._expr()
            self._expect("RPAREN")
            poly = self._resolve(arg)
            if isinstance(poly, TensorNCPoly):
                self._fail("series functions take non-tensor arguments", tok)
            return _Value(series_apply(name, poly))
        if name == "i":
            return _Value(NCPoly.from_scalar(self.context, I))
        if name in self.param_set:
            coeff = self.context.param_poly(name)
            return _Value(NCPoly.from_coeff(self.context, coeff))
        if name in self.gen_index:
            return _Value(NCPoly.generator(self.context, self.gen_index[name]))
        raise UnknownIdentifierError(
            f"unknown identifier {name!r} (at position {tok.pos})"
        )

    def _postfix(self, value: _Value) -> _Value:
        while True:
            kind = self._peek().kind
            if kind == "CARET":
                self._next()
                ntok = self._expect("NUMBER")
                if value.is_tensor():
                    self._fail("'^' cannot raise tensor expressions", ntok)
                # a divisor that divides exactly costs its degree once,
                # not once per factor of the power
                if value.den:
                    try:
                        value = _Value(self._resolve(value))
                    except InexactDivisionError:
                        pass
                # the constant term, with any pending division applied
                exps = tuple(value.den.get(name, 0) for name in self.context.params)
                constant = value.poly.coefficient(()).terms.get(exps, ZERO)
                check_power(constant, ntok.value)
                value = _Value(value.poly ** ntok.value, {
                    name: power * ntok.value for name, power in value.den.items()
                })
            elif kind == "SLASH":
                self._next()
                value = self._division(value)
            else:
                return value

    def _division(self, value: _Value) -> _Value:
        tok = self._peek()
        if tok.kind == "NUMBER":
            self._next()
            if tok.value == 0:
                self._fail("division by zero", tok)
            scaled = value.poly.scale(ONE / Scalar(tok.value))
            return _Value(scaled, value.den)
        den = dict(value.den)
        for name, power in self._divisor_monomial().items():
            den[name] = den.get(name, 0) + power
        return _Value(value.poly, den)

    def _divisor_monomial(self) -> dict:
        tok = self._next()
        if tok.kind == "IDENT":
            return {self._require_param(tok): self._opt_power()}
        if tok.kind == "LPAREN":
            out = {}
            while True:
                ident = self._expect("IDENT")
                name = self._require_param(ident)
                out[name] = out.get(name, 0) + self._opt_power()
                nxt = self._next()
                if nxt.kind == "RPAREN":
                    return out
                if nxt.kind != "STAR":
                    raise ExprSyntaxError(
                        "divisor must be a parameter monomial", nxt.pos
                    )
        raise ExprSyntaxError("divisor must be a parameter monomial", tok.pos)

    def _require_param(self, tok) -> str:
        if tok.value not in self.param_set:
            raise ExprSyntaxError(
                f"divisor {tok.value!r} is not a parameter", tok.pos
            )
        return tok.value

    def _opt_power(self) -> int:
        if self._peek().kind == "CARET":
            self._next()
            return self._expect("NUMBER").value
        return 1


def parse_expr(text: str, context: Context):
    """Parse an expression into an NCPoly or (with '(x)') a TensorNCPoly
    over context, exact through and cut at context.order."""
    order, slack = context.order, context.slack
    parser = Parser(replace(context, order=order + slack), text)
    poly = parser.parse()
    if parser.loss > slack:
        poly = Parser(replace(context, order=order + parser.loss), text).parse()
    return poly.map_coeffs(lambda c: c.with_order(order), context)


def parse_coefficient(text: str, context: Context):
    """Parse an expression that must reduce to a commuting coefficient."""
    poly = parse_expr(text, context)
    if isinstance(poly, TensorNCPoly):
        raise ExprSyntaxError("expected a coefficient, found a tensor expression")
    for word in poly.terms:
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
