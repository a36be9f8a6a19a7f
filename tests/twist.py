"""Twisted U(gl_n): Hopf presentations with a known answer, any size.

gl_n has the generators e<a><b> (tests/gln.py), rescaled e_ab = t*E_ab,
so that every relation carries a parameter:

    [e_ab, e_cd] = t*(delta_bc e_ad - delta_da e_cb).

The Cartan elements H_i = E_ii commute and are primitive, so for an
antisymmetric r, F = exp(s * sum_ij r^ij H_i (x) H_j) is an abelian
Drinfeld twist (Drinfeld 1990, Reshetikhin 1990). A twist of a Hopf
algebra is a Hopf algebra: the relations and the counit stay, and with
[H_i, E_ab] = alpha_i E_ab, alpha_i = delta_ia - delta_ib, the twisted
coproduct has the closed form

    Delta(E_ab) = E_ab (x) exp(s*X_ab) + exp(-s*X_ab) (x) E_ab,
    X_ab = sum_j (r^aj - r^bj) H_j,

so every Hopf check passes at every order. `scale` picks s = h*t ("ht")
or s = h*t^2 ("ht2"); in the e basis the exponent then reads h*X or
h*t*X, with X written in the e_jj. A second Cartan r2 twists along a
third parameter z: F = exp(s*R + s_z*R2), with s_z = z*t or z*t^2.

To first order the twist adds s*[R, Delta(E_ab)], so half of
Delta - Delta^op is s*(E_ab ^ X_ab), which is -s times the coboundary
delta_r of r = sum_{i<j} r^ij E_ii ^ E_jj (gln.coboundary).
"""

from bialgebra_forge.scalars import Scalar, format_scalar

import gln

# s/t over the twist parameter, by scale: s*H_j = (s/t)*e_jj
SCALES = {"ht": "", "ht2": "*t"}


def _antisymmetric(r) -> dict:
    """r^ij for every i != j from {(i, j): value} over i < j."""
    out = {}
    for (i, j), value in r.items():
        value = value if isinstance(value, Scalar) else Scalar(value)
        out[(i, j)], out[(j, i)] = value, -value
    return out


def _sum(terms) -> str:
    """The expression of sum value*name over (value, name) pairs, or ''
    when every value is zero."""
    return " + ".join(f"{format_scalar(v)}*{name}" for v, name in terms if v)


def _exponent(n, a, b, twists) -> str:
    """s*X_ab summed over the twists [(parameter text, r^ij)]; '' when zero."""
    gens = gln.names(n)
    zero, parts = Scalar(0), []
    for param, r in twists:
        x = _sum((r.get((a, j), zero) - r.get((b, j), zero), gens[gln.unit(n, j, j)])
                 for j in range(n))
        if x:
            parts.append(f"{param}*({x})")
    return " + ".join(parts)


def twisted_gln(n, r, scale="ht2", r2=None) -> dict:
    """The document of U(gl_n) twisted by the Cartan r, {(i, j): value}
    over i < j with Gaussian rational values, over the parameters t and
    h, or t, h and z when a second Cartan r2 twists along z; scale is
    "ht" (s = h*t) or "ht2" (s = h*t^2)."""
    gens = gln.names(n)
    twists = [(f"h{SCALES[scale]}", _antisymmetric(r))]
    params = ["t", "h"]
    if r2 is not None:
        twists.append((f"z{SCALES[scale]}", _antisymmetric(r2)))
        params.append("z")
    lower = {}
    for (a, b, c), v in gln.bracket(n).items():
        lower.setdefault((a, b), []).append((Scalar(v), gens[c]))
    brackets = [{"left": gens[a], "right": gens[b], "rhs": f"t*({_sum(terms)})"}
                for (a, b), terms in sorted(lower.items())]
    coproducts = {}
    for a in range(n):
        for b in range(n):
            g = gens[gln.unit(n, a, b)]
            exponent = _exponent(n, a, b, twists)
            if exponent:
                coproducts[g] = f"{g} (x) exp({exponent}) + exp(-({exponent})) (x) {g}"
            else:
                coproducts[g] = f"{g} (x) 1 + 1 (x) {g}"
    return {
        "schema": "bialgebra-forge/1",
        "parameters": params,
        "generators": gens,
        "presentation": {
            "brackets": brackets,
            "coproducts": coproducts,
            "counit": {g: "0" for g in gens},
        },
    }
