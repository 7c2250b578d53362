"""The reference path of the orbit engine: constructions as quotients of X^n.

A test-only oracle.  Every simplicial set here is a
``finsub.simplicial.TruncatedSimplicialSet`` (every cell up to a
truncation, with dense face and degeneracy tables, validated on
construction) and every map an :class:`SSetMap`, checked to commute with
faces and degeneracies.  :func:`power` enumerates every cell of X^n;
:func:`quotient`, :func:`sub_object` and :func:`collapse` glue, select and
collapse cells.  Cells at each level are indexed in lexicographic order of
their canonical payloads, and every constructor keeps that order, so the
least index in a class is its lexicographically least payload and
quotients stay deterministic without materializing payloads.

Each builder glues X^n by coordinate permutations, support equality or a
collapse and checks the dimension bound of the result.
``REFERENCE_BUILDERS`` names the builder of each registry construction the
engine builds, and :func:`engine_mismatches` compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from finsub.constructions import CONSTRUCTIONS, ConstructionResult
from finsub.fundamental import fundamental_presentation
from finsub.homology import chain_map_matrices, normalized_chains
from finsub.orbits import _recompose, default_truncation
from finsub.simplicial import (NondegenerateMap, SimplicialError, TruncatedSimplicialSet,
                               _frozen, from_ordered_complex)
from finsub.spaces import OrderedComplexSpec


def degenerate_tower(S: TruncatedSimplicialSet, vertex: int, level: int) -> int:
    """Index of the ``level``-fold degeneracy of a 0-cell."""
    cell = int(vertex)
    for k in range(level):
        cell = int(S.degens[k][cell, 0])
    return cell


def same_cells(S: TruncatedSimplicialSet, T: TruncatedSimplicialSet) -> bool:
    """True when both carry identical cell tables."""
    return (S.truncation == T.truncation and S.counts == T.counts
            and all(np.array_equal(S.faces[k], T.faces[k])
                    for k in range(1, S.truncation + 1))
            and all(np.array_equal(S.degens[k], T.degens[k]) for k in range(S.truncation)))


@dataclass(frozen=True)
class SSetMap:
    """A simplicial map given by per-level cell assignments.

    The source truncation may be lower than the target's; commutation with
    every face and degeneracy operator is checked on construction.
    """

    source: TruncatedSimplicialSet
    target: TruncatedSimplicialSet
    assignment: tuple[np.ndarray, ...]
    name: str = ""

    def __post_init__(self):
        src, dst = self.source, self.target
        if src.truncation > dst.truncation:
            raise SimplicialError("source truncation exceeds target truncation")
        if len(self.assignment) != src.truncation + 1:
            raise SimplicialError("assignment must cover all source levels")
        object.__setattr__(self, "assignment",
                           tuple(_frozen(a) for a in self.assignment))
        for k, a in enumerate(self.assignment):
            if a.shape != (src.counts[k],):
                raise SimplicialError(f"assignment at level {k} has wrong length")
            if a.size and (a.min() < 0 or a.max() >= dst.counts[k]):
                raise SimplicialError(f"assignment out of range at level {k}")
        for k in range(1, src.truncation + 1):
            fa = dst.faces[k][self.assignment[k]]
            for i in range(k + 1):
                if not np.array_equal(fa[:, i], self.assignment[k - 1][src.faces[k][:, i]]):
                    raise SimplicialError(f"map does not commute with d_{i} at level {k}")
        for k in range(src.truncation):
            sa = dst.degens[k][self.assignment[k]]
            for j in range(k + 1):
                if not np.array_equal(sa[:, j], self.assignment[k + 1][src.degens[k][:, j]]):
                    raise SimplicialError(f"map does not commute with s_{j} at level {k}")

    def nondegenerate_form(self) -> NondegenerateMap:
        """The map on nondegenerate cells, between the nondegenerate forms."""
        src, src_pos = self.source._positions()
        dst, dst_pos = self.target._positions()
        assignment = [dst_pos[k][self.assignment[k][src_pos[k] >= 0]]
                      for k in range(src.truncation + 1)]
        return NondegenerateMap(src, dst, assignment, name=self.name, check=False)


def identity_map(S: TruncatedSimplicialSet) -> SSetMap:
    return SSetMap(S, S, tuple(np.arange(n, dtype=np.int64) for n in S.counts), name="id")


def compose_maps(g: SSetMap, f: SSetMap, name: str = "") -> SSetMap:
    """The composite ``g after f``; levels follow the source of ``f``."""
    if f.target is not g.source:
        raise SimplicialError("compose_maps: target of f is not the source of g")
    assignment = tuple(g.assignment[k][f.assignment[k]]
                       for k in range(f.source.truncation + 1))
    return SSetMap(f.source, g.target, assignment, name=name or f"{g.name}*{f.name}")


# ----------------------------------------------------------------------
# products, quotients, subobjects and collapses
# ----------------------------------------------------------------------

def _decompose(indices: np.ndarray, base: int, n: int) -> np.ndarray:
    """Big-endian mixed-radix components of product-cell indices, shape
    (n, len); the inverse of ``orbits._recompose``."""
    comps = np.empty((n, len(indices)), dtype=np.int64)
    rest = indices
    for t in range(n - 1, 0, -1):
        comps[t] = rest % base
        rest = rest // base
    comps[0] = rest
    return comps


def power(S: TruncatedSimplicialSet, n: int):
    """n-fold levelwise product of a simplicial set with itself.

    Returns ``(P, coordinates)`` where ``coordinates[k][t]`` is the t-th
    coordinate of every level-k cell of P, an ``(n, counts[k])`` array per
    level.
    """
    D = S.truncation
    counts = [c ** n for c in S.counts]
    coordinates = tuple(_decompose(np.arange(counts[k], dtype=np.int64), S.counts[k], n)
                        for k in range(D + 1))
    faces: list[np.ndarray | None] = [None]
    for k in range(1, D + 1):
        table = np.empty((counts[k], k + 1), dtype=np.int64)
        for i in range(k + 1):
            table[:, i] = _recompose([S.faces[k][c, i] for c in coordinates[k]],
                                     S.counts[k - 1])
        faces.append(table)
    degens: list[np.ndarray] = []
    for k in range(D):
        table = np.empty((counts[k], k + 1), dtype=np.int64)
        for j in range(k + 1):
            table[:, j] = _recompose([S.degens[k][c, j] for c in coordinates[k]],
                                     S.counts[k + 1])
        degens.append(table)

    def payload(level: int, index: int):
        comps = []
        for _ in range(n):
            index, c = divmod(index, S.counts[level])
            comps.append(c)
        return tuple(S.payload(level, c) for c in reversed(comps))

    P = TruncatedSimplicialSet(D, counts, faces, degens, payload, name=f"{S.name}^{n}")
    return P, coordinates


def _normalize_pairs(pairs) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Pairs ``level -> (a, b)`` as int64 arrays."""
    return {int(level): (np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
            for level, (a, b) in pairs.items()}


def _hook_and_jump(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge the classes of every pair ``(a[i], b[i])`` into ``label``.

    ``label`` maps each cell to the least member of its class, so the least
    members are the roots of a forest.  Each round hooks the larger root of
    every pair still apart onto the smaller one, then jumps pointers
    (``label = label[label]``) until every cell points at a root again
    (Shiloach-Vishkin, J. Algorithms 1982, with min-label hooking).
    """
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            return label
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _closure_pairs(S: TruncatedSimplicialSet, labels: list[np.ndarray]
                   ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Pairs the current classes still owe to faces and degeneracies.

    A cell and the least member of its class must have faces, and
    degeneracies, in equal classes; each operator on which they differ
    yields a pair one level down, or up.
    """
    D = S.truncation
    found: dict[int, tuple[list, list]] = {}

    def compare(table, target, label, level):
        for i in range(table.shape[1]):
            col = target[table[:, i]]
            cells = np.flatnonzero(col != col[label])
            if cells.size:
                pair = found.setdefault(level, ([], []))
                pair[0].append(table[cells, i])
                pair[1].append(table[label[cells], i])

    for k in range(D + 1):
        label = labels[k]
        if np.array_equal(label, np.arange(len(label), dtype=np.int64)):
            continue
        if k > 0:
            compare(S.faces[k], labels[k - 1], label, k - 1)
        if k < D:
            compare(S.degens[k], labels[k + 1], label, k + 1)
    return {k: (np.concatenate(a), np.concatenate(b)) for k, (a, b) in found.items()}


def quotient(S: TruncatedSimplicialSet, pairs, name: str = ""):
    """Quotient by the closure of generating cell identifications.

    ``pairs`` maps a level to arrays ``(a, b)``: cell ``a[i]`` is glued to
    cell ``b[i]`` at that level.  The relation is closed under faces and
    degeneracies in rounds: each round labels the connected components of
    the pending pairs level by level (:func:`_hook_and_jump`), then
    compares the faces and degeneracies of every cell with those of its
    class's least member; the mismatches are the next round's pairs.  The
    result's cells are the equivalence classes, represented by their
    lexicographically minimal members.

    Returns ``(Q, projection)``.
    """
    D = S.truncation
    pending = _normalize_pairs(pairs)
    labels = [np.arange(n, dtype=np.int64) for n in S.counts]
    while pending:
        for level, (a, b) in pending.items():
            labels[level] = _hook_and_jump(labels[level], a, b)
        pending = _closure_pairs(S, labels)

    # classes are numbered in the order of their least members
    class_of: list[np.ndarray] = []
    reps: list[np.ndarray] = []
    for label in labels:
        is_rep = label == np.arange(len(label), dtype=np.int64)
        rank = np.cumsum(is_rep, dtype=np.int64) - 1
        class_of.append(rank[label])
        reps.append(_frozen(np.flatnonzero(is_rep)))
    del labels, label, is_rep, rank   # before Q and the projection are validated

    faces_q = [None] + [class_of[k - 1][S.faces[k][reps[k]]] for k in range(1, D + 1)]
    degens_q = [class_of[k + 1][S.degens[k][reps[k]]] for k in range(D)]
    Q = TruncatedSimplicialSet(D, [len(r) for r in reps], faces_q, degens_q,
                               lambda level, i: S.payload(level, int(reps[level][i])),
                               name=name or f"{S.name}/~")
    return Q, SSetMap(S, Q, tuple(class_of), name="proj")


def sub_object(S: TruncatedSimplicialSet, predicate, name: str = ""):
    """Subobject spanned by the cells satisfying ``predicate(level, payload)``.

    The selected set must be closed under faces and degeneracies; a
    violation is reported with the offending cell.  Returns
    ``(A, inclusion)``.
    """
    D = S.truncation
    masks = [np.fromiter((predicate(k, S.payload(k, i)) for i in range(S.counts[k])),
                         dtype=bool, count=S.counts[k]) for k in range(D + 1)]
    selected = [_frozen(np.flatnonzero(mask)) for mask in masks]
    for k in range(1, D + 1):
        closed = masks[k - 1][S.faces[k][selected[k]]].all(axis=1)
        if not closed.all():
            c = selected[k][np.flatnonzero(~closed)[0]]
            raise SimplicialError(
                f"selection is not closed under faces: cell {S.payload(k, int(c))} "
                f"at level {k} has an unselected face")
    for k in range(D):
        closed = masks[k + 1][S.degens[k][selected[k]]].all(axis=1)
        if not closed.all():
            c = selected[k][np.flatnonzero(~closed)[0]]
            raise SimplicialError(
                f"selection is not closed under degeneracies: cell "
                f"{S.payload(k, int(c))} at level {k}")

    index = []
    for k in range(D + 1):
        back = np.full(S.counts[k], -1, dtype=np.int64)
        back[selected[k]] = np.arange(len(selected[k]), dtype=np.int64)
        index.append(back)
    faces = [None] + [index[k - 1][S.faces[k][selected[k]]] for k in range(1, D + 1)]
    degens = [index[k + 1][S.degens[k][selected[k]]] for k in range(D)]
    A = TruncatedSimplicialSet(D, [len(s) for s in selected], faces, degens,
                               lambda level, i: S.payload(level, int(selected[level][i])),
                               name=name or f"{S.name}|sub")
    return A, SSetMap(A, S, tuple(selected), name="incl")


def collapse(S: TruncatedSimplicialSet, inclusion: SSetMap, name: str = ""):
    """Collapse the subobject ``inclusion`` (from :func:`sub_object`, with a
    vertex) to a point; returns ``(Q, projection)``."""
    pairs = {}
    for k in range(inclusion.source.truncation + 1):
        sel = inclusion.assignment[k]
        if len(sel) > 1:
            pairs[k] = (sel[:-1], sel[1:])
    return quotient(S, pairs, name=name or f"{S.name}/A")


# ----------------------------------------------------------------------
# the constructions
# ----------------------------------------------------------------------

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


def _fat_predicate(n: int):
    return lambda level, payload: len(set(payload)) < n


def reference_symmetric_product(spec: OrderedComplexSpec, n: int) -> ConstructionResult:
    """SP^n(X): the quotient of X^n by coordinate permutations.

    Maps: ``q`` (projection X^n -> SP^n), ``j_n`` (basepoint inclusion
    x -> x x0^(n-1)) and ``diag`` (n-fold diagonal).
    """
    D = default_truncation(spec, n)
    X = from_ordered_complex(spec, D)
    P, coordinates = power(X, n)
    SP, q = _canonical_quotient(
        P, lambda k: _recompose(np.sort(coordinates[k], axis=0), X.counts[k]),
        name=f"SP^{n}({spec.name})")
    _assert_dimension_bound(SP, spec, n)

    j_assign, diag_assign = [], []
    for k in range(D + 1):
        sigma = np.arange(X.counts[k], dtype=np.int64)
        tower = degenerate_tower(X, spec.basepoint, k)
        j_assign.append(q.assignment[k][_recompose([sigma] + [tower] * (n - 1),
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
        prev, incl = sub_object(Sub, _fat_predicate(n), name=f"Sub_{n - 1}({spec.name})")
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
    sp = reference_symmetric_product(spec, n)
    fat, incl = sub_object(sp.space, _fat_predicate(n), name=f"fat_diagonal_{n}({spec.name})")
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
                q.assignment[k][sigma * M + degenerate_tower(X, spec.basepoint, k)])

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


def chain_mismatches(engine, reference, what: str) -> list[str]:
    """What differs between two spaces' normalized chains (ranks, boundary
    matrices, labels) and all-cell counts."""
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
    and of every part, the chain maps of every structure map the engine
    carries, and the pi_1 presentations."""
    engine = CONSTRUCTIONS[construction].build(spec, n)
    reference = REFERENCE_BUILDERS[construction](spec, n)
    out = chain_mismatches(engine.space, reference.space, "space")
    for name, part in engine.parts.items():
        out += chain_mismatches(part, reference.parts[name], name)
    for name, f in engine.maps.items():
        if chain_map_matrices(f) != chain_map_matrices(reference.maps[name]):
            out.append(f"map {name}")
    if fundamental_presentation(engine.space) != fundamental_presentation(reference.space):
        out.append("pi_1")
    return out
