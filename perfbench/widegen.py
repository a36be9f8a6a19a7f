"""Seeded generator for the `wide` workload's input documents.

The document is the tensor product of k renamed copies of the bundled
`@corrected` presentation, written in a rescaled basis.

Copies: copy c renames every generator g to g<c> (word-boundary
matching), keeps the shared parameters, concatenates the bracket,
coproduct and counit tables, and leaves every cross-copy bracket
undeclared, so generators of different copies commute. A tensor
product of Hopf algebras is a Hopf algebra, so each Hopf defect of the
product is zero exactly when it is zero on every copy.

Rescaling: every generator x_g is replaced by y_g = x_g / lambda_g with
a parameter-dependent unit lambda_g = c_g * (1 + a_g * p_g), where the
Gaussian rational c_g != 0, the rational a_g and the parameter p_g are
drawn from the seed (p_g once per copy). In the new basis

    [y_a, y_b]  = lambda_a^-1 lambda_b^-1 [x_a, x_b](x := lambda y)
    Delta(y_g)  = lambda_g^-1 Delta(x_g)(x := lambda y)
    eps(y_g)    = lambda_g^-1 eps(x_g)

and lambda_g^-1 = c_g^-1 * sum_n (-a_g p_g)^n is written out through
the working order, where it is the exact inverse in the truncated
series ring. The map y_g -> lambda_g^-1 x_g is then an isomorphism of
presentations over that ring, so every defect stays exactly zero: the
known answer is "all six Hopf checks pass, exit 0".

The grammar rejects `scalar * (tensor expr)`, so lambda_g^-1 is pushed
into the first factor of each tensor term of a coproduct. Every
parameter division of the source stays inside the additive term it
came from, so the exactness horizon (order + slack) is unchanged.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

_SCHEMA = "bialgebra-forge/1"


def _frac(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}" if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _gauss(re_part: Fraction, im_part: Fraction) -> str:
    """A Gaussian rational as an expression in the document grammar."""
    if im_part == 0:
        return f"({_frac(re_part)})"
    return f"({_frac(re_part)}+({_frac(im_part)})*i)"


def _split_top(text: str, separators):
    """Split text at depth-0 occurrences of any separator; the tensor
    join '(x)' is treated as a separator token, never as a parenthesis.
    Returns [(separator before the piece or None, piece)]."""
    pieces = []
    depth = 0
    start = 0
    lead = None
    i = 0
    while i < len(text):
        if text.startswith("(x)", i):
            if "(x)" in separators and depth == 0:
                pieces.append((lead, text[start:i]))
                lead, start = "(x)", i + 3
            i += 3
            continue
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in separators and text[start:i].strip():
            before = text[:i].rstrip()
            if before and before[-1] not in "(*/^+-":
                pieces.append((lead, text[start:i]))
                lead, start = ch, i + 1
        i += 1
    pieces.append((lead, text[start:]))
    return pieces


class _Unit:
    """lambda = c * (1 + a * p) and its truncated inverse as text."""

    def __init__(self, c_re, c_im, a, param, working_order):
        self.text = f"({_gauss(c_re, c_im)}*(1+({_frac(a)})*{param}))"
        norm = c_re * c_re + c_im * c_im
        inv = _gauss(c_re / norm, -c_im / norm)
        series = ["1"] + [
            f"({_frac((-a) ** n)})*{param}^{n}" for n in range(1, working_order + 1)
        ]
        self.inverse = f"({inv}*({'+'.join(series)}))"


def _draw_unit(rng: random.Random, param, working_order) -> _Unit:
    c_re = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    c_im = Fraction(rng.choice((-1, 0, 1)), rng.choice((1, 2)))
    a = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
    return _Unit(c_re, c_im, a, param, working_order)


def wide_document(base: dict, copies: int, seed: int) -> dict:
    """The rescaled tensor product of `copies` renamed copies of base."""
    rng = random.Random(seed)
    settings = base["settings"]
    working_order = settings["order"] + settings["slack"]
    params = base["parameters"]
    pres = base["presentation"]
    names = base["generators"]
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")

    generators, brackets, coproducts, counit = [], [], {}, {}
    for copy in range(1, copies + 1):
        renamed = {g: f"{g}{copy}" for g in names}
        # One parameter per copy: mixing parameters inside a copy makes
        # the verdict cost swing by ~30% between seeds, which would drown
        # the run-to-run comparison the workload exists for.
        param = rng.choice(params)
        units = {g: _draw_unit(rng, param, working_order) for g in names}

        def substitute(text):
            return pattern.sub(
                lambda m: f"({units[m.group(1)].text}*{renamed[m.group(1)]})", text
            )

        generators.extend(renamed[g] for g in names)
        for item in pres["brackets"]:
            a, b = item["left"], item["right"]
            brackets.append({
                "left": renamed[a], "right": renamed[b],
                "rhs": f"{units[a].inverse}*{units[b].inverse}*({substitute(item['rhs'])})",
            })
        for g, text in pres["coproducts"].items():
            terms = []
            for sign, tterm in _split_top(text, "+-"):
                first, *rest = [piece for _, piece in _split_top(tterm, ("(x)",))]
                factors = [f"{units[g].inverse}*({substitute(first)})"]
                factors += [f"({substitute(piece)})" for piece in rest]
                terms.append(("- " if sign == "-" else "+ ") + " (x) ".join(factors))
            coproducts[renamed[g]] = " ".join(terms).lstrip("+ ")
        for g, text in pres["counit"].items():
            counit[renamed[g]] = f"{units[g].inverse}*({text})"

    return {
        "schema": _SCHEMA,
        "parameters": list(params),
        "generators": generators,
        "presentation": {
            "brackets": brackets, "coproducts": coproducts, "counit": counit,
        },
        "settings": dict(settings),
        "notes": [f"wide workload: {copies} rescaled copies of @corrected, seed {seed}"],
    }
