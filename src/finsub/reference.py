"""The reference path: constructions as quotients of X^n.

Each builder enumerates every cell of X^n (``simplicial.power``), glues
it by coordinate permutations, support equality or a collapse
(``simplicial.quotient``) and validates every simplicial identity of the
result.  The orbit engine (``constructions``, ``orbits``) builds the same
spaces from their nondegenerate cells; these builders are its oracle.
:func:`engine_mismatches` compares the two on one construction, and
``REFERENCE_BUILDERS`` names the quotient construction of each registry
construction the engine builds.  Only the cross-check verification cases
and the tests use this module.
"""

from __future__ import annotations

import numpy as np

from .constructions import CONSTRUCTIONS, KINDS, ConstructionResult
from .fundamental import fundamental_presentation
from .homology import chain_map_matrices, normalized_chains
from .orbits import default_truncation
from .simplicial import (SSetMap, SimplicialError, TruncatedSimplicialSet,
                         _decompose, _recompose, collapse, compose_maps,
                         from_ordered_complex, power, quotient, sub_object)
from .spaces import OrderedComplexSpec


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


def _glue(S: TruncatedSimplicialSet, level_pairs, name: str):
    """Quotient of S gluing ``a[i]`` to ``b[i]`` wherever they differ, for
    the arrays ``(a, b) = level_pairs(k)`` of each level k."""
    pairs = {}
    for k in range(S.truncation + 1):
        a, b = level_pairs(k)
        differ = a != b
        if differ.any():
            pairs[k] = (a[differ], b[differ])
    return quotient(S, pairs, name=name)


def _canonical_quotient(S: TruncatedSimplicialSet, canonical, name: str):
    """Quotient of S gluing each cell to ``canonical(k)[cell]`` at level k."""
    return _glue(S, lambda k: (np.arange(S.counts[k], dtype=np.int64), canonical(k)),
                 name)


def reference_symmetric_product(spec: OrderedComplexSpec, n: int) -> ConstructionResult:
    """SP^n(X): the quotient of X^n by coordinate permutations.

    Maps: ``q`` (projection X^n -> SP^n), ``j_n`` (basepoint inclusion
    x -> x x0^(n-1)) and ``diag`` (n-fold diagonal).
    """
    if n < 1:
        raise SimplicialError("symmetric_product requires n >= 1")
    D = default_truncation(spec, n)
    X = from_ordered_complex(spec, D)
    P, coordinates = power(X, n)
    SP, q = _canonical_quotient(
        P, lambda k: _recompose(np.sort(coordinates[k], axis=0), X.counts[k]),
        name=f"SP^{n}({spec.name})")
    _assert_dimension_bound(SP, spec, n)

    towers = [X.degenerate_tower(spec.basepoint, k) for k in range(D + 1)]
    j_assign = []
    diag_assign = []
    for k in range(D + 1):
        sigma = np.arange(X.counts[k], dtype=np.int64)
        j_assign.append(q.assignment[k][_recompose([sigma] + [towers[k]] * (n - 1),
                                                   X.counts[k])])
        diag_assign.append(q.assignment[k][_recompose([sigma] * n, X.counts[k])])
    j_n = SSetMap(X, SP, tuple(j_assign), name="j_n")
    diag = SSetMap(X, SP, tuple(diag_assign), name="diag")
    return ConstructionResult(SP, {"q": q, "j_n": j_n, "diag": diag},
                              parts={"base": X, "power": P})


def reference_finite_subset_space(spec: OrderedComplexSpec, n: int,
                                  with_filtration: bool = True) -> ConstructionResult:
    """Sub_n(X): quotient of SP^n(X) identifying equal coordinate supports.

    Maps: ``pi`` (SP^n -> Sub_n), ``j`` (singleton inclusion), ``q``
    (X^n -> SP^n) and, for n >= 2, ``incl_sub_prev`` (the filtration
    subobject of supports of size < n, isomorphic to Sub_{n-1}).
    """
    sp = reference_symmetric_product(spec, n)
    SP, q = sp.space, sp.maps["q"]
    X = sp.parts["base"]
    reps = _class_reps(q)

    def canonical(k):
        comps = _decompose(reps[k], X.counts[k], n)
        return q.assignment[k][_recompose(_support_canonical(comps), X.counts[k])]

    Sub, pi = _canonical_quotient(SP, canonical, name=f"Sub_{n}({spec.name})")
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


def direct_subset_quotient(spec: OrderedComplexSpec, n: int):
    """Sub_n(X) built in one step from X^n (cross-check construction)."""
    X = from_ordered_complex(spec, default_truncation(spec, n))
    P, coordinates = power(X, n)
    return _canonical_quotient(
        P, lambda k: _recompose(_support_canonical(coordinates[k]), X.counts[k]),
        name=f"Sub_{n}({spec.name})|direct")


def reference_fat_diagonal(spec: OrderedComplexSpec, n: int) -> ConstructionResult:
    """Classes of SP^n(X) with a repeated coordinate, with inclusion."""
    if n < 2:
        raise SimplicialError("fat_diagonal requires n >= 2")
    sp = reference_symmetric_product(spec, n)
    fat, incl = sub_object(sp.space, lambda level, payload: len(set(payload)) < n,
                           name=f"fat_diagonal_{n}({spec.name})")
    result = ConstructionResult(fat, {"incl_fat": incl}, parts=dict(sp.parts))
    result.parts["sp"] = sp.space
    return result


def reference_based_subset3(spec: OrderedComplexSpec) -> ConstructionResult:
    """Sub_3(X, x0) as the quotient of SP^2(X) gluing the diagonal class
    of every simplex to its basepoint-padded class.

    Maps: ``alpha`` (SP^2 -> quotient) and ``j_x0`` (x -> {x, x0}).
    """
    sp = reference_symmetric_product(spec, 2)
    X = sp.parts["base"]
    q = sp.maps["q"]

    def diagonal_and_padded(k):
        M = X.counts[k]
        sigma = np.arange(M, dtype=np.int64)
        return (q.assignment[k][sigma * M + sigma],
                q.assignment[k][sigma * M + X.degenerate_tower(spec.basepoint, k)])

    B, alpha = _glue(sp.space, diagonal_and_padded, name=f"Sub_3({spec.name},x0)")
    maps = {
        "alpha": alpha,
        "j_x0": compose_maps(alpha, sp.maps["j_n"], name="j_x0"),
        "diag_based": compose_maps(alpha, sp.maps["diag"], name="alpha*diag"),
    }
    return ConstructionResult(B, maps, parts=dict(sp.parts))


def reference_reduced(spec: OrderedComplexSpec, n: int, kind: str) -> ConstructionResult:
    """Reduced construction: SP^n/SP^(n-1) or Sub_n/Sub_(n-1).

    SP^(n-1) sits inside SP^n as the classes containing the basepoint;
    Sub_(n-1) as the classes with support smaller than n.
    """
    if n < 2:
        raise SimplicialError("reduced constructions need n >= 2")
    if kind not in KINDS:
        raise SimplicialError(f"kind must be one of {KINDS}")
    if kind == "sp":
        sp = reference_symmetric_product(spec, n)
        bp = spec.basepoint
        sub, incl = sub_object(
            sp.space,
            lambda level, payload: any(comp == (bp,) * (level + 1) for comp in payload),
            name=f"SP^{n - 1}({spec.name})")
        Q, proj = collapse(sp.space, incl, name=f"SP^{n}({spec.name})/SP^{n - 1}")
        return ConstructionResult(Q, {"proj": proj, "incl": incl},
                                  parts={"total": sp.space})
    sub = reference_finite_subset_space(spec, n)
    incl = sub.maps["incl_sub_prev"]
    Q, proj = collapse(sub.space, incl, name=f"Sub_{n}({spec.name})/Sub_{n - 1}")
    return ConstructionResult(Q, {"proj": proj, "incl": incl},
                              parts={"total": sub.space})


# registry construction -> its quotient construction, a builder of (spec, n)
REFERENCE_BUILDERS = {
    "sp": reference_symmetric_product,
    "sub": lambda spec, n: reference_finite_subset_space(spec, n, with_filtration=False),
    "based_sub3": lambda spec, n: reference_based_subset3(spec),
    "fat": reference_fat_diagonal,
    "reduced_sp": lambda spec, n: reference_reduced(spec, n, "sp"),
    "reduced_sub": lambda spec, n: reference_reduced(spec, n, "sub"),
}


def _chain_mismatches(engine, reference, what: str) -> list[str]:
    a = normalized_chains(engine)
    b = normalized_chains(reference)
    out = []
    if a.ranks != b.ranks:
        out.append(f"{what} ranks")
    elif any(a.boundary(k) != b.boundary(k) for k in range(1, a.top_degree + 1)):
        out.append(f"{what} boundaries")
    elif a.labels != b.labels:
        out.append(f"{what} labels")
    if engine.total_cells() != reference.total_cells():
        out.append(f"{what} cells")
    return out


def engine_mismatches(construction: str, spec: OrderedComplexSpec,
                      n: int | None = None) -> list[str]:
    """What differs between the orbit engine (the registry's builder) and
    the reference path on one construction: the chain complexes of the space
    and of every part (ranks, boundary matrices, labels, all-cell counts),
    the chain maps of every structure map the engine carries, and the pi_1
    presentations."""
    engine = CONSTRUCTIONS[construction].build(spec, n)
    reference = REFERENCE_BUILDERS[construction](spec, n)
    out = _chain_mismatches(engine.space, reference.space, "space")
    for name, part in engine.parts.items():
        out += _chain_mismatches(part, reference.parts[name], name)
    for name, f in engine.maps.items():
        if chain_map_matrices(f) != chain_map_matrices(reference.maps[name]):
            out.append(f"map {name}")
    if fundamental_presentation(engine.space) != fundamental_presentation(reference.space):
        out.append("pi_1")
    return out
