"""Expected answers from facts established apart from finsub.

Nothing here imports finsub: each function derives the expected value of
one query from a published theorem and the input complex, and returns the
list of ways the computed answer disagrees (empty when it is right).
Homology answers are tuples of ``(betti, torsion)`` pairs indexed by
degree; degrees past the end of a tuple are zero.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb

Groups = tuple[tuple[int, tuple[int, ...]], ...]

Z = (1, ())
ZERO = (0, ())

S3 = (Z, ZERO, ZERO, Z)                         # Sub_4(S^1) ~ S^3 (Tuffley 2002)
POINT = (Z,)                                    # Sub_n of a contractible space
SUB3_TORUS_BASED = (Z, ZERO, Z, (2, ()), Z)     # Sub_3(T, x0), the source paper
SP2_SPHERE3 = (Z, ZERO, ZERO, Z, ZERO, (0, (2,)))  # S^3 and Sigma^4 RP^2
TORUS_BETTI = (1, 2, 1)


def group(groups: Groups, degree: int) -> tuple[int, tuple[int, ...]]:
    return tuple(groups[degree]) if 0 <= degree < len(groups) else ZERO


def show(groups: Groups) -> str:
    parts = []
    for betti, torsion in groups:
        terms = ([f"Z^{betti}" if betti > 1 else "Z"] if betti else [])
        terms += [f"Z/{t}" for t in torsion]
        parts.append(" + ".join(terms) or "0")
    return "[" + ", ".join(parts) + "]"


def same_groups(got: Groups, want: Groups, what: str) -> list[str]:
    top = max(len(got), len(want))
    if all(group(got, k) == group(want, k) for k in range(top)):
        return []
    return [f"{what}: got {show(got)}, expected {show(want)}"]


def euler(groups: Groups) -> int:
    return sum((-1) ** k * betti for k, (betti, _) in enumerate(groups))


def binomial(m: int, k: int) -> int:
    """C(m, k) for any integer m: m (m-1) ... (m-k+1) / k!."""
    num = 1
    for i in range(k):
        num *= m - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return num // den


def complex_euler(text: str) -> int:
    """Euler characteristic of a complex given as finsub's input JSON,
    counted from the faces of its maximal simplices."""
    faces = set()
    for simplex in json.loads(text)["simplices"]:
        for k in range(1, len(simplex) + 1):
            faces.update(combinations(sorted(simplex), k))
    return sum((-1) ** (len(f) - 1) for f in faces)


def macdonald_betti(betti: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Betti numbers of SP^n(X) from those of X (Macdonald, Topology 1, 1962).

    The Poincare series of SP^n(X) is the coefficient of t^n in
    prod_{k odd} (1 + x^k t)^{b_k} / prod_{k even} (1 - x^k t)^{b_k}.
    """
    series = {(0, 0): 1}            # (x degree, t degree) -> coefficient
    for k, b in enumerate(betti):
        if not b:
            continue
        factor = {}
        for j in range(n + 1):
            c = comb(b, j) if k % 2 else comb(b + j - 1, j)
            if c:
                factor[(k * j, j)] = c
        product: dict[tuple[int, int], int] = {}
        for (xa, ta), ca in series.items():
            for (xb, tb), cb in factor.items():
                if ta + tb <= n:
                    key = (xa + xb, ta + tb)
                    product[key] = product.get(key, 0) + ca * cb
        series = product
    top = max((x for x, t in series if t == n), default=0)
    return tuple(series.get((x, n), 0) for x in range(top + 1))


def uct_dims(groups: Groups, p: int) -> tuple[int, ...]:
    """dim H_k(X; F_p) from integral homology (universal coefficients)."""
    dims = []
    for k in range(len(groups) + 1):
        betti, torsion = group(groups, k)
        below = group(groups, k - 1)[1] if k else ()
        dims.append(betti + sum(1 for t in torsion if t % p == 0)
                    + sum(1 for t in below if t % p == 0))
    while dims and dims[-1] == 0:
        dims.pop()
    return tuple(dims)


def free(betti: tuple[int, ...]) -> Groups:
    return tuple((b, ()) for b in betti)


# -- one check per query ----------------------------------------------------

def sub4_circle(answer: Groups, text: str, oracles: dict) -> list[str]:
    return same_groups(answer, S3, "Sub_4(S^1) must have the homology of S^3")


def sub3_contractible(answer: Groups, text: str, oracles: dict) -> list[str]:
    return same_groups(answer, POINT, "Sub_3 of a simplex must be a point")


def sub3_graph(answer: Groups, text: str, oracles: dict) -> list[str]:
    """Sub_3 of a connected graph: a wedge of 2- and 3-spheres (Tuffley
    2003), so H_0 = Z, H_1 = 0, no torsion, and chi = sum_k C(chi(X), k)."""
    errors = []
    if group(answer, 0) != Z or group(answer, 1) != ZERO:
        errors.append(f"Sub_3 of a graph must be connected and simply connected, got {show(answer)}")
    if any(torsion for _, torsion in answer):
        errors.append(f"Sub_3 of a graph has no torsion, got {show(answer)}")
    chi_x = complex_euler(text)
    want = sum(binomial(chi_x, k) for k in range(1, 4))
    if euler(answer) != want:
        errors.append(f"chi(Sub_3 X) must be {want} for chi(X) = {chi_x}, got {euler(answer)}")
    return errors


def sp2_torus(answer: Groups, text: str, oracles: dict) -> list[str]:
    errors = same_groups(answer, free(macdonald_betti(TORUS_BETTI, 2)),
                         "SP^2(T) must be torsion-free with Macdonald's Betti numbers")
    errors += same_groups(answer, oracles["surface_sp2_torus"],
                          "SP^2(T) must agree with the surface chain model")
    return errors


def based_sub3_torus(answer: Groups, text: str, oracles: dict) -> list[str]:
    errors = same_groups(answer, SUB3_TORUS_BASED, "Sub_3(T, x0) (the source paper)")
    chi_sp2 = euler(free(macdonald_betti(TORUS_BETTI, 2)))
    want = chi_sp2 - complex_euler(text) + 1
    if euler(answer) != want:
        errors.append(f"chi(Sub_3(T, x0)) must be chi(SP^2 T) - chi(T) + 1 = {want}, "
                      f"got {euler(answer)}")
    return errors


def sp2_sphere3(answer: Groups, text: str, oracles: dict) -> list[str]:
    return same_groups(answer, SP2_SPHERE3,
                       "SP^2(S^3) must be S^3 glued to Sigma^4 RP^2")


def sp2_torus_f2(answer: Groups, text: str, oracles: dict) -> list[str]:
    want = uct_dims(free(macdonald_betti(TORUS_BETTI, 2)), 2)
    got = tuple(betti for betti, _ in answer)
    while got and got[-1] == 0:
        got = got[:-1]
    if got != want or any(torsion for _, torsion in answer):
        return [f"SP^2(T; F_2) dimensions: got {got}, expected {want} "
                "(universal coefficients)"]
    return []


def coproduct_torus(answer: dict, text: str, oracles: dict) -> list[str]:
    errors = same_groups(answer["groups"], SUB3_TORUS_BASED,
                         "coproduct model of Sub_3(T, x0)")
    if not answer["j_image_nonzero"]:
        errors.append("j_*[T] must be nonzero: the torus is not a cogroup")
    return errors


def pi1_sp2_torus(answer: dict, text: str, oracles: dict) -> list[str]:
    want = (TORUS_BETTI[1], ())
    if tuple(answer["abelianization"]) != want:
        return [f"pi_1(SP^2 T) must abelianize to H_1(T) = Z^2, "
                f"got {answer['abelianization']}"]
    return []


def pi1_trivial(answer: dict, text: str, oracles: dict) -> list[str]:
    if answer["generators_out"] != 0:
        return [f"Tietze simplification of pi_1(Sub_3 X) must reach the trivial "
                f"group, stopped at {answer['generators_out']} generators"]
    return []


def _abs_matrix(matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(abs(v) for v in row) for row in matrix)


def diag_sphere2(answer, text: str, oracles: dict) -> list[str]:
    if _abs_matrix(answer) != ((2,),):
        return [f"|diag_*| on H_2(S^2) -> H_2(SP^2 S^2) must be 2, got {answer}"]
    return []


def jn_sphere2(answer, text: str, oracles: dict) -> list[str]:
    if _abs_matrix(answer) != ((1,),):
        return [f"|j_n*| on H_2(S^2) -> H_2(SP^2 S^2) must be 1, got {answer}"]
    return []
