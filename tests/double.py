"""The Drinfeld double of a four-pair instance: one Jacobi identity that
holds exactly when the four-pair hypothesis does.

Given brackets mu_100, mu_001 and cobrackets delta_010, delta_001 on g
(generators e_i), the double g + g* (dual generators f^a) carries

    [e_i, e_j] = mu(e_i, e_j) = C^k_ij e_k,
    [f^a, f^b] = D_m^ab f^m,
    [e_i, f^a] = -C^a_ij f^j + D_i^ab e_b,

with mu = p_mu_001 * mu_001 + p_mu_100 * mu_100 and
delta = p_delta_001 * delta_001 + p_delta_010 * delta_010. Each of the
four compositions gets a fresh pencil parameter, so the pencil monomials
never mix with parameters the compositions' own values carry. (g, delta)
is a Lie bialgebra exactly when the double is a Lie algebra (Drinfeld's
Manin-triple criterion), and the Jacobi defect splits by pencil monomial
into the conditions of `check_four_pairs`:

    p_mu^2, p_delta^2           jacobi, cojacobi of that composition
    p_mu_001 p_mu_100           mixed-jacobi
    p_delta_001 p_delta_010     mixed-cojacobi
    p_mu p_delta                cocycle (mu, delta)

The double reads each tensor's canonical (antisymmetric) values, so the
antisymmetry labels have no monomial. Its Jacobi sum is the plain cyclic
sum below, not the library's, so it stays an independent oracle.
"""

from bialgebra_forge.params import ParamPoly
from bialgebra_forge.tensors import Basis, BracketTensor

ROLES = ("mu_100", "mu_001", "delta_010", "delta_001")


def _label(first, second) -> str:
    """The check_four_pairs label of the pencil monomial p_first p_second,
    first <= second in ROLES order."""
    if first == second:
        kind = "jacobi" if first.startswith("mu") else "cojacobi"
        return f"{kind} {first}"
    if first.startswith("mu") and second.startswith("mu"):
        return "mixed-jacobi"
    if first.startswith("delta") and second.startswith("delta"):
        return "mixed-cojacobi"
    mu, delta = sorted((first, second), reverse=True)
    return f"cocycle ({mu},{delta})"


def double(mu_100, mu_001, delta_010, delta_001) -> BracketTensor:
    """The double's bracket over the generators of g and their duals,
    with the compositions' parameters followed by one pencil parameter
    per role. Values of degree d in the compositions' parameters keep
    total degree d + 1, so the order grows by 2: a Jacobi term is a
    product of two values."""
    tensors = dict(zip(ROLES, (mu_100, mu_001, delta_010, delta_001)))
    params = mu_100.params + tuple(f"p_{role}" for role in ROLES)
    order = mu_100.order + 2
    n = len(mu_100.basis)

    def pencil(role, value):
        exps = tuple(int(role == r) for r in ROLES)
        return ParamPoly(params, order, {e + exps: c for e, c in value.terms.items()})

    entries = []
    for role in ("mu_100", "mu_001"):
        for (i, j, k), c in tensors[role].oriented().items():
            c = pencil(role, c)
            entries.append(((i, j, k), c))
            # [e_i, f^k] gains -C^k_ij f^j
            entries.append(((i, n + k, n + j), -c))
    for role in ("delta_010", "delta_001"):
        for (m, a, b), d in tensors[role].oriented().items():
            d = pencil(role, d)
            entries.append(((n + a, n + b, n + m), d))
            # [e_m, f^a] gains D_m^ab e_b
            entries.append(((m, n + a, b), d))
    names = mu_100.basis.names
    basis = Basis(names + tuple(f"{name}*" for name in names))
    # pairs read in both orientations agree, and repeated keys add up
    return BracketTensor(basis, params, order, entries)


def jacobi(bracket) -> dict:
    """J^l_ijk = sum_m C^m_ij C^l_mk + C^m_jk C^l_mi + C^m_ki C^l_mj for
    i<j<k: every pair of oriented values that share the summed index m,
    kept when (a, b, c) is a cyclic order of three generators."""
    values = bracket.oriented()
    by_m = {}
    for (m, c, l), s in values.items():
        by_m.setdefault(m, []).append((c, l, s))
    out = {}
    for (a, b, m), f in values.items():
        for c, l, s in by_m.get(m, ()):
            if a < b < c or b < c < a or c < a < b:
                key = (*sorted((a, b, c)), l)
                out[key] = out[key] + f * s if key in out else f * s
    return {key: value for key, value in out.items() if value}


def failing_labels(mu_100, mu_001, delta_010, delta_001) -> set:
    """The check_four_pairs labels whose pencil monomial has a nonzero
    Jacobi defect on the double."""
    defect = jacobi(double(mu_100, mu_001, delta_010, delta_001))
    out = set()
    for value in defect.values():
        for exps in value.terms:
            roles = [r for r, e in zip(ROLES, exps[-len(ROLES):]) for _ in range(e)]
            out.add(_label(*roles))
    return out
