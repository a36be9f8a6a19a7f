"""Coboundary Lie bialgebras on gl_n: known answers from theorems.

gl_n in the matrix-unit basis E_ij (generator e<i><j>, index i*n + j)
has the bracket [E_ij, E_kl] = delta_jk E_il - delta_li E_kj. Every
r in wedge^2 gl_n gives a 1-coboundary

    delta_r(x) = [x (x) 1 + 1 (x) x, r],

which satisfies the cocycle condition with the bracket for every r
(Drinfeld 1983). It is co-Jacobi iff [[r, r]] is ad-invariant; that holds
for the standard r = sum_{i<j} E_ij ^ E_ji (the modified classical
Yang-Baxter equation) and for r + r_0 with any r_0 in wedge^2 of the
diagonal (Belavin-Drinfeld with an empty triple). The dual pair
(delta^T, mu^T) is a Lie bialgebra iff (mu, delta) is.

Constants are plain dicts of ints in the library's keys: a bracket maps
(a, b, c) to C^c_ab and a cobracket (m, a, b) to D_m^ab, each pair in
lower orientation (a < b). A wedge r maps (a, b), a < b, to the
coefficient of e_a ^ e_b.
"""

PARAMS = ("t", "h", "z1", "z2")


def names(n) -> list:
    return [f"e{i}{j}" for i in range(n) for j in range(n)]


def unit(n, i, j) -> int:
    return i * n + j


def _add_wedge(acc, a, b, value):
    if a == b or not value:
        return
    if a > b:
        a, b, value = b, a, -value
    acc[(a, b)] = acc.get((a, b), 0) + value
    if not acc[(a, b)]:
        del acc[(a, b)]


def _bracket_map(n) -> dict:
    """(a, b) -> {c: C^c_ab} for every ordered pair with a nonzero bracket."""
    out = {}
    for i, j, k, l in ((i, j, k, l) for i in range(n) for j in range(n)
                       for k in range(n) for l in range(n)):
        value = {}
        if j == k:
            value[unit(n, i, l)] = value.get(unit(n, i, l), 0) + 1
        if l == i:
            value[unit(n, k, j)] = value.get(unit(n, k, j), 0) - 1
        value = {c: v for c, v in value.items() if v}
        if value:
            out[(unit(n, i, j), unit(n, k, l))] = value
    return out


def bracket(n) -> dict:
    """The gl_n bracket, lower orientation."""
    return {
        (a, b, c): v
        for (a, b), value in _bracket_map(n).items() if a < b
        for c, v in value.items()
    }


def standard_r(n) -> dict:
    """r = sum_{i<j} E_ij ^ E_ji."""
    return {(unit(n, i, j), unit(n, j, i)): 1 for i in range(n) for j in range(i + 1, n)}


def cartan_r(n, coefficients) -> dict:
    """sum c_ij E_ii ^ E_jj over the given {(i, j): c} with i < j."""
    return {(unit(n, i, i), unit(n, j, j)): c for (i, j), c in coefficients.items() if c}


def wedge_sum(*wedges) -> dict:
    out = {}
    for wedge in wedges:
        for (a, b), value in wedge.items():
            _add_wedge(out, a, b, value)
    return out


def coboundary(n, r) -> dict:
    """delta_r(x_m) = sum c_ab ([x_m, e_a] ^ e_b + e_a ^ [x_m, e_b])."""
    brackets = _bracket_map(n)
    out = {}
    for m in range(n * n):
        acc = {}
        for (a, b), w in r.items():
            for c, v in brackets.get((m, a), {}).items():
                _add_wedge(acc, c, b, w * v)
            for c, v in brackets.get((m, b), {}).items():
                _add_wedge(acc, a, c, w * v)
        for (a, b), v in acc.items():
            out[(m, a, b)] = v
    return out


def scaled(constants, factor) -> dict:
    return {key: factor * v for key, v in constants.items()}


def dual_bracket(delta) -> dict:
    """C^m_ab := D_m^ab."""
    return {(a, b, m): v for (m, a, b), v in delta.items()}


def dual_cobracket(mu) -> dict:
    """D_c^ab := C^c_ab."""
    return {(c, a, b): v for (a, b, c), v in mu.items()}


def four_pairs(n, r0) -> dict:
    """The four compositions of a coboundary four-pair instance:
    mu_100 = mu, mu_001 = 2 mu, delta_010 = delta_r and
    delta_001 = delta_{r + r0}, with r the standard r-matrix."""
    mu = bracket(n)
    r = standard_r(n)
    return {
        "mu_100": ("bracket", mu),
        "mu_001": ("bracket", scaled(mu, 2)),
        "delta_010": ("cobracket", coboundary(n, r)),
        "delta_001": ("cobracket", coboundary(n, wedge_sum(r, r0))),
    }


def entry(kind, key, coeff, gens) -> dict:
    """One composition entry of a document."""
    i, j, k = (gens[g] for g in key)
    if kind == "bracket":
        return {"lower": [i, j], "upper": k, "coeff": coeff}
    return {"lower": i, "upper": [j, k], "coeff": coeff}


def document(n, compositions) -> dict:
    """A document over gl_n with the family parameters, holding the
    given {name: (kind, constants)}."""
    gens = names(n)
    return {
        "schema": "bialgebra-forge/1",
        "parameters": list(PARAMS),
        "generators": gens,
        "compositions": {
            name: {"kind": kind, "entries": [
                entry(kind, key, str(v), gens) for key, v in sorted(constants.items())
            ]}
            for name, (kind, constants) in compositions.items()
        },
        "settings": {"order": 2},
    }
