"""Symmetric products, finite subset spaces, and their relatives.

Everything here is assembled from the core engine: n-fold powers are
quotiented by coordinate permutations to give the symmetric product
SP^n(X), a further quotient by support equality gives the finite subset
space Sub_n(X), and cell selections give fat diagonals, filtrations and
reduced (collapsed) variants.  Three independent models of the based
three-fold subset space Sub_3(X, x0) are provided so they can be checked
against one another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homology import (AbelianQuotient, ChainComplexZ, HomologyCoordinates,
                       HomologyGroup, SparseIntMatrix, chain_map_matrices,
                       induced_matrix_from_chain_map, normalized_chains)
from .simplicial import (SSetMap, SimplicialError, TruncatedSimplicialSet,
                         _decompose, collapse, compose_maps, from_ordered_complex,
                         power, quotient, sub_object)
from .spaces import OrderedComplexSpec


@dataclass
class ConstructionResult:
    """A constructed space together with its named structure maps."""

    space: TruncatedSimplicialSet
    maps: dict[str, SSetMap]
    parts: dict[str, TruncatedSimplicialSet] = field(default_factory=dict)


def default_truncation(spec: OrderedComplexSpec, n: int) -> int:
    """One level above the top dimension n*dim(X) of the construction."""
    return n * spec.dimension + 1


def _assert_dimension_bound(S: TruncatedSimplicialSet, spec: OrderedComplexSpec,
                            n: int) -> None:
    """Symmetric and subset constructions have no nondegenerate cells
    above level n*dim(X); a violation means the quotient went wrong."""
    bound = n * spec.dimension
    for level, count in enumerate(S.nondeg_counts()):
        if level > bound and count:
            raise SimplicialError(
                f"{S.name} has {count} nondegenerate cells at level {level}, "
                f"above the dimension bound {bound}")


def _class_reps(proj: SSetMap) -> list[np.ndarray]:
    """Minimal source member of each class of a quotient projection."""
    reps = []
    for k in range(proj.source.truncation + 1):
        n = proj.source.counts[k]
        out = np.full(proj.target.counts[k], n, dtype=np.int64)
        np.minimum.at(out, proj.assignment[k], np.arange(n, dtype=np.int64))
        reps.append(out)
    return reps


def _recompose(comps: np.ndarray, base: int) -> np.ndarray:
    out = comps[0].copy()
    for t in range(1, comps.shape[0]):
        out *= base
        out += comps[t]
    return out


def _support_canonical(comps: np.ndarray) -> np.ndarray:
    """Replace duplicate coordinates with the minimum, then sort.

    On sorted component columns this produces the canonical member of the
    support-equality class: the support padded with its least element.
    """
    comps = np.sort(comps, axis=0)
    out = comps.copy()
    dup = comps[1:] == comps[:-1]
    for t in range(1, comps.shape[0]):
        out[t] = np.where(dup[t - 1], comps[0], comps[t])
    return np.sort(out, axis=0)


def symmetric_product(spec: OrderedComplexSpec, n: int,
                      truncation: int | None = None) -> ConstructionResult:
    """SP^n(X): the quotient of X^n by coordinate permutations.

    Maps: ``q`` (projection X^n -> SP^n), ``j_n`` (basepoint inclusion
    x -> x x0^(n-1)) and ``diag`` (n-fold diagonal).
    """
    if n < 1:
        raise SimplicialError("symmetric_product requires n >= 1")
    D = default_truncation(spec, n) if truncation is None else truncation
    X = from_ordered_complex(spec, D)
    P, coordinates = power(X, n)

    pairs = {}
    for k in range(D + 1):
        idx = np.arange(P.counts[k], dtype=np.int64)
        canon = _recompose(np.sort(coordinates[k], axis=0), X.counts[k])
        differ = canon != idx
        if differ.any():
            pairs[k] = (idx[differ], canon[differ])
    SP, q = quotient(P, pairs, name=f"SP^{n}({spec.name})")
    _assert_dimension_bound(SP, spec, n)

    towers = [X.degenerate_tower(spec.basepoint, k) for k in range(D + 1)]
    j_assign = []
    diag_assign = []
    for k in range(D + 1):
        M = X.counts[k]
        sigma = np.arange(M, dtype=np.int64)
        j_idx = sigma.copy()
        d_idx = sigma.copy()
        for _ in range(n - 1):
            j_idx = j_idx * M + towers[k]
            d_idx = d_idx * M + sigma
        j_assign.append(q.assignment[k][j_idx])
        diag_assign.append(q.assignment[k][d_idx])
    j_n = SSetMap(X, SP, tuple(j_assign), name="j_n")
    diag = SSetMap(X, SP, tuple(diag_assign), name="diag")
    return ConstructionResult(SP, {"q": q, "j_n": j_n, "diag": diag},
                              parts={"base": X, "power": P})


def finite_subset_space(spec: OrderedComplexSpec, n: int,
                        truncation: int | None = None,
                        with_filtration: bool = True) -> ConstructionResult:
    """Sub_n(X): quotient of SP^n(X) identifying equal coordinate supports.

    Maps: ``pi`` (SP^n -> Sub_n), ``j`` (singleton inclusion), ``q``
    (X^n -> SP^n) and, for n >= 2, ``incl_sub_prev`` (the filtration
    subobject of supports of size < n, isomorphic to Sub_{n-1}).
    """
    sp = symmetric_product(spec, n, truncation)
    SP, q = sp.space, sp.maps["q"]
    X = sp.parts["base"]
    reps = _class_reps(q)

    pairs = {}
    for k in range(SP.truncation + 1):
        comps = _decompose(reps[k], X.counts[k], n)
        canon_power = _recompose(_support_canonical(comps), X.counts[k])
        canon = q.assignment[k][canon_power]
        idx = np.arange(SP.counts[k], dtype=np.int64)
        differ = canon != idx
        if differ.any():
            pairs[k] = (idx[differ], canon[differ])
    Sub, pi = quotient(SP, pairs, name=f"Sub_{n}({spec.name})")
    _assert_dimension_bound(Sub, spec, n)

    maps = {
        "q": q,
        "pi": pi,
        "j": compose_maps(pi, sp.maps["diag"], name="j"),
        "j_n": compose_maps(pi, sp.maps["j_n"], name="pi*j_n"),
    }
    result = ConstructionResult(Sub, maps, parts=dict(sp.parts))
    if with_filtration and n >= 2:
        prev, incl = sub_object(Sub, lambda level, payload: len(set(payload)) < n,
                                name=f"Sub_{n - 1}({spec.name})")
        result.maps["incl_sub_prev"] = incl
        result.parts["filtration_sub"] = prev
    return result


def direct_subset_quotient(spec: OrderedComplexSpec, n: int,
                           truncation: int | None = None):
    """Sub_n(X) built in one step from X^n (cross-check construction)."""
    D = default_truncation(spec, n) if truncation is None else truncation
    X = from_ordered_complex(spec, D)
    P, coordinates = power(X, n)
    pairs = {}
    for k in range(D + 1):
        idx = np.arange(P.counts[k], dtype=np.int64)
        canon = _recompose(_support_canonical(coordinates[k]), X.counts[k])
        differ = canon != idx
        if differ.any():
            pairs[k] = (idx[differ], canon[differ])
    return quotient(P, pairs, name=f"Sub_{n}({spec.name})|direct")


def fat_diagonal(spec: OrderedComplexSpec, n: int,
                 truncation: int | None = None) -> ConstructionResult:
    """Classes of SP^n(X) with a repeated coordinate, with inclusion."""
    if n < 2:
        raise SimplicialError("fat_diagonal requires n >= 2")
    sp = symmetric_product(spec, n, truncation)
    fat, incl = sub_object(sp.space, lambda level, payload: len(set(payload)) < n,
                           name=f"fat_diagonal_{n}({spec.name})")
    result = ConstructionResult(fat, {"incl_fat": incl}, parts=dict(sp.parts))
    result.parts["sp"] = sp.space
    return result


def based_subset3(spec: OrderedComplexSpec,
                  truncation: int | None = None) -> ConstructionResult:
    """Sub_3(X, x0) as the quotient of SP^2(X) gluing the diagonal class
    of every simplex to its basepoint-padded class.

    Maps: ``alpha`` (SP^2 -> quotient) and ``j_x0`` (x -> {x, x0}).
    """
    sp = symmetric_product(spec, 2, truncation)
    X = sp.parts["base"]
    q = sp.maps["q"]
    pairs = {}
    for k in range(X.truncation + 1):
        M = X.counts[k]
        t = X.degenerate_tower(spec.basepoint, k)
        sigma = np.arange(M, dtype=np.int64)
        a = q.assignment[k][sigma * M + sigma]
        b = q.assignment[k][sigma * M + t]
        differ = a != b
        if differ.any():
            pairs[k] = (a[differ], b[differ])
    B, alpha = quotient(sp.space, pairs, name=f"Sub_3({spec.name},x0)")
    maps = {
        "alpha": alpha,
        "j_x0": compose_maps(alpha, sp.maps["j_n"], name="j_x0"),
        "diag_based": compose_maps(alpha, sp.maps["diag"], name="alpha*diag"),
    }
    return ConstructionResult(B, maps, parts=dict(sp.parts))


def cylinder_chain_model(spec: OrderedComplexSpec) -> ChainComplexZ:
    """Chain model of Sub_3(X, x0): chains of SP^2(X) plus a shifted copy
    of the chains of X gluing the diagonal to the basepoint inclusion.

    A generator |c| in degree k+1 sits over each nondegenerate k-cell c of
    X except the basepoint vertex, with boundary
    ``d|c| = j(c) - diag(c) - |dc|``.
    """
    sp = symmetric_product(spec, 2)
    X = sp.parts["base"]
    CSP = normalized_chains(sp.space)
    CX = normalized_chains(X)
    J = chain_map_matrices(sp.maps["j_n"])
    DG = chain_map_matrices(sp.maps["diag"])

    # shifted generators: nondegenerate cells of X minus the basepoint vertex
    keep: dict[int, list[int]] = {}
    for k in range(X.truncation + 1):
        cells = list(range(CX.ranks[k]))
        if k == 0:
            cells.remove(spec.basepoint)
        keep[k] = cells
    shift_rank = {k + 1: len(cells) for k, cells in keep.items()}

    top = CSP.top_degree
    ranks = [CSP.ranks[k] + shift_rank.get(k, 0) for k in range(top + 1)]
    boundaries = {}
    for k in range(1, top + 1):
        entries = [(r, c, v) for r, c, v in CSP.boundary(k).entries]
        cols = keep.get(k - 1, [])
        col_pos = {c: j for j, c in enumerate(cols)}
        jm, dm = J.get(k - 1), DG.get(k - 1)
        if cols and jm is not None:
            jcols, dcols = jm.columns(), dm.columns()
            for j, c in enumerate(cols):
                col = CSP.ranks[k] + j
                acc: dict[int, int] = {}
                for r, v in jcols.get(c, ()):
                    acc[r] = acc.get(r, 0) + v
                for r, v in dcols.get(c, ()):
                    acc[r] = acc.get(r, 0) - v
                entries.extend((r, col, v) for r, v in acc.items() if v)
            if k - 1 >= 1:
                rows_prev = {c: i for i, c in enumerate(keep[k - 2])}
                bx = CX.boundary(k - 1).columns()
                for j, c in enumerate(cols):
                    col = CSP.ranks[k] + j
                    for r, v in bx.get(c, ()):
                        if r in rows_prev:
                            entries.append((CSP.ranks[k - 1] + rows_prev[r], col, -v))
        boundaries[k] = SparseIntMatrix(ranks[k - 1], ranks[k], entries)

    labels = None
    if CSP.labels is not None:
        labels = []
        for k in range(top + 1):
            lab = list(CSP.labels[k])
            lab.extend(("cyl", CX.labels[k - 1][c]) for c in keep.get(k - 1, []))
            labels.append(tuple(lab))
    return ChainComplexZ(ranks, boundaries, labels=labels, truncated=True)


KINDS = ("sp", "sub")


def reduced(spec: OrderedComplexSpec, n: int, kind: str,
            truncation: int | None = None) -> ConstructionResult:
    """Reduced construction: SP^n/SP^(n-1) or Sub_n/Sub_(n-1).

    SP^(n-1) sits inside SP^n as the classes containing the basepoint;
    Sub_(n-1) as the classes with support smaller than n.
    """
    if n < 2:
        raise SimplicialError("reduced constructions need n >= 2")
    if kind not in KINDS:
        raise SimplicialError(f"kind must be one of {KINDS}")
    if kind == "sp":
        sp = symmetric_product(spec, n, truncation)
        bp = spec.basepoint
        sub, incl = sub_object(
            sp.space,
            lambda level, payload: any(comp == (bp,) * (level + 1) for comp in payload),
            name=f"SP^{n - 1}({spec.name})")
        Q, proj = collapse(sp.space, incl, name=f"SP^{n}({spec.name})/SP^{n - 1}")
        return ConstructionResult(Q, {"proj": proj, "incl": incl},
                                  parts={"total": sp.space})
    sub = finite_subset_space(spec, n, truncation)
    incl = sub.maps["incl_sub_prev"]
    Q, proj = collapse(sub.space, incl, name=f"Sub_{n}({spec.name})/Sub_{n - 1}")
    return ConstructionResult(Q, {"proj": proj, "incl": incl},
                              parts={"total": sub.space})


@dataclass
class CoproductModelResult:
    """Homology of Sub_3(X, x0) as a quotient of the homology of SP^2(X).

    ``quotients[k]`` presents H_k(SP^2 X) / (diag_* - j_*) H_k(X);
    ``j_matrix``/``diag_matrix`` give the induced maps in the chosen
    homology bases, so images of specific classes can be tested.
    """

    groups: tuple[HomologyGroup, ...]
    quotients: dict[int, AbelianQuotient]
    j_matrix: dict[int, list[list[int]]]
    diag_matrix: dict[int, list[list[int]]]

    def image_is_zero(self, degree: int, which: str, generator: int) -> bool:
        """Is the image of a homology generator of X zero in the quotient?"""
        matrix = (self.j_matrix if which == "j" else self.diag_matrix)[degree]
        vec = [row[generator] for row in matrix]
        return self.quotients[degree].is_zero(vec)


def sub3_homology_via_coproduct(spec: OrderedComplexSpec) -> CoproductModelResult:
    """Homology of Sub_3(X, x0) from the homology of SP^2(X).

    Computes H_*(SP^2 X) with explicit bases, the maps induced by the
    basepoint inclusion j and the diagonal, and divides out the subgroup
    generated by (diag_* - j_*) of every generator of H_*(X).
    """
    sp = symmetric_product(spec, 2)
    X = sp.parts["base"]
    CSP = normalized_chains(sp.space, with_labels=False)
    CX = normalized_chains(X, with_labels=False)
    coords_sp = HomologyCoordinates(CSP)
    coords_x = HomologyCoordinates(CX)
    Jm = chain_map_matrices(sp.maps["j_n"])
    Dm = chain_map_matrices(sp.maps["diag"])

    top = 2 * spec.dimension
    groups = []
    quotients = {}
    j_matrix = {}
    diag_matrix = {}
    for k in range(top + 1):
        jk = induced_matrix_from_chain_map(Jm[k], k, coords_x, coords_sp)
        dk = induced_matrix_from_chain_map(Dm[k], k, coords_x, coords_sp)
        j_matrix[k], diag_matrix[k] = jk, dk
        n_src = coords_x.generator_count(k)
        n_dst = coords_sp.generator_count(k)
        extra = []
        for g in range(n_src):
            col = {i: dk[i][g] - jk[i][g] for i in range(n_dst)
                   if dk[i][g] - jk[i][g]}
            extra.append(col)
        quotient_k = AbelianQuotient(coords_sp.moduli(k), extra)
        quotients[k] = quotient_k
        groups.append(quotient_k.group(k))
    return CoproductModelResult(tuple(groups), quotients, j_matrix, diag_matrix)
