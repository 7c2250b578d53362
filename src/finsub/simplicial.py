"""Simplicial sets in two forms: every cell, or the nondegenerate cells.

:class:`NondegenerateComplex` holds only the nondegenerate cells of a
simplicial set and their faces, a degenerate face stored as -1; with
:class:`NondegenerateMap` it is all that normalized chains, chain maps and
pi_1 presentations read (``homology``, ``fundamental``).  The orbit engine
(``orbits``) builds the constructions in this form directly.

:class:`TruncatedSimplicialSet` holds every cell up to a truncation, with
dense face and degeneracy tables, and reaches the reader through one
conversion (:meth:`TruncatedSimplicialSet.nondegenerate_form`).  Its
operations (products, quotients, subobjects, collapses) make the
reference path X^n -> quotient (``reference``).  X itself comes from the
orbit engine's table of its cells (:func:`from_ordered_complex` reads
``orbits.Sequences``), so X's cells are listed in one place, and product
cells of both paths share one mixed-radix key (:func:`_recompose`).
Cells at each level are indexed ``0..N_k-1`` and every constructor keeps
the invariant that index order equals lexicographic order on the canonical
cell payloads.  Because of this, the minimum index inside an equivalence
class is also its lexicographically minimal payload, and quotients stay
deterministic without ever materializing payloads.  All bulk work
(validation, product assembly, quotients) is vectorized with numpy.  A
quotient labels the connected components of its generating pairs level by
level and adds the pairs that closure under faces and degeneracies forces,
in rounds, until a round forces none.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaces import OrderedComplexSpec

DEFAULT_CELL_CAP = 20_000_000


class SimplicialError(ValueError):
    """A simplicial-set invariant was violated."""


class CellCapExceeded(RuntimeError):
    """A construction would enumerate more cells than the configured cap."""


def cell_cap() -> int:
    """Active enumeration cap (override with env var FINSUB_CELL_CAP)."""
    value = os.environ.get("FINSUB_CELL_CAP")
    if not value:
        return DEFAULT_CELL_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = -1
    if cap < 0:
        raise SimplicialError(
            f"FINSUB_CELL_CAP must be a non-negative integer, not {value!r}")
    return cap


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.flags.writeable = False
    return arr


class NondegenerateComplex:
    """The nondegenerate cells of a simplicial set, with their faces.

    ``ranks[k]`` nondegenerate k-cells are indexed ``0..ranks[k]-1`` in the
    order of their canonical payloads; ``faces[k]`` is an ``(ranks[k], k+1)``
    array holding the index of d_i(c) among the nondegenerate (k-1)-cells,
    or -1 where that face is degenerate.  ``counts[k]`` is the number of all
    k-cells, degenerate ones included.  With ``check`` the face indices are
    range-checked and d_i d_j = d_{j-1} d_i (i < j) is checked wherever
    both inner faces are nondegenerate.
    """

    def __init__(self, name, ranks, faces, counts, payload, check=True):
        self.name = name
        self.ranks = tuple(int(r) for r in ranks)
        self.truncation = len(self.ranks) - 1
        self.faces = [None] + [_frozen(f) for f in faces[1:]]
        self.counts = tuple(int(c) for c in counts)
        self._payload = payload
        if len(self.faces) != len(self.ranks) or len(self.counts) != len(self.ranks):
            raise SimplicialError("faces and counts must cover levels 0..truncation")
        if check:
            self.check()

    def nondegenerate_form(self) -> "NondegenerateComplex":
        return self

    def payload(self, level: int, index: int):
        """Canonical encoding of a nondegenerate cell."""
        return self._payload(level, index)

    def nondeg_counts(self) -> tuple[int, ...]:
        return self.ranks

    def total_cells(self) -> int:
        return sum(self.counts)

    def check(self) -> None:
        for k in range(1, self.truncation + 1):
            f = self.faces[k]
            if f.shape != (self.ranks[k], k + 1):
                raise SimplicialError(f"face table at level {k} has wrong shape")
            if f.size and (f.min() < -1 or f.max() >= self.ranks[k - 1]):
                raise SimplicialError(f"face index out of range at level {k}")
        for k in range(2, self.truncation + 1):
            f = self.faces[k]
            g = np.vstack([self.faces[k - 1], np.full(k, -1)])   # row -1: degenerate
            for j in range(1, k + 1):
                for i in range(j):
                    both = (f[:, j] >= 0) & (f[:, i] >= 0)
                    if (both & (g[f[:, j], i] != g[f[:, i], j - 1])).any():
                        raise SimplicialError(
                            f"{self.name}: face identity fails at level {k} (i={i}, j={j})")


class NondegenerateMap:
    """A simplicial map on nondegenerate cells.

    ``assignment[k][c]`` is the index of the image of the nondegenerate
    k-cell c of ``source`` among those of ``target``, or -1 where the image
    is degenerate.  With ``check``, each image's faces are checked to be the
    images of the cell's faces (a degenerate cell has a degenerate image).
    """

    def __init__(self, source: NondegenerateComplex, target: NondegenerateComplex,
                 assignment, name: str = "", check: bool = True):
        self.source = source
        self.target = target
        self.assignment = tuple(_frozen(a) for a in assignment)
        self.name = name
        if check:
            self.check()

    def nondegenerate_form(self) -> "NondegenerateMap":
        return self

    def check(self) -> None:
        src, dst = self.source, self.target
        if src.truncation > dst.truncation:
            raise SimplicialError("source truncation exceeds target truncation")
        if len(self.assignment) != src.truncation + 1:
            raise SimplicialError("assignment must cover all source levels")
        for k, a in enumerate(self.assignment):
            if a.shape != (src.ranks[k],):
                raise SimplicialError(f"assignment at level {k} has wrong length")
            if a.size and (a.min() < -1 or a.max() >= dst.ranks[k]):
                raise SimplicialError(f"assignment out of range at level {k}")
        for k in range(1, src.truncation + 1):
            a = self.assignment[k]
            hit = a >= 0
            below = np.append(self.assignment[k - 1], -1)   # index -1: degenerate
            if not np.array_equal(dst.faces[k][a[hit]], below[src.faces[k][hit]]):
                raise SimplicialError(f"{self.name}: map does not commute with faces "
                                      f"at level {k}")


class TruncatedSimplicialSet:
    """Levelwise cells with face and degeneracy operators up to a truncation.

    Attributes
    ----------
    truncation : int
        Maximum level D carried by this object.
    counts : tuple[int]
        Number of cells per level ``0..D``.
    faces : list
        ``faces[k]`` is an ``(N_k, k+1)`` array sending cell ``c`` to
        ``d_0(c)..d_k(c)`` one level down; ``faces[0]`` is None.
    degens : list
        ``degens[k]`` is an ``(N_k, k+1)`` array sending cell ``c`` to
        ``s_0(c)..s_k(c)`` one level up, present for ``k < D``.
    """

    def __init__(self, truncation, counts, faces, degens, payload, name=""):
        self.truncation = int(truncation)
        self.counts = tuple(int(n) for n in counts)
        self.faces = [None] + [_frozen(f) for f in faces[1:]]
        self.degens = [_frozen(s) for s in degens[: self.truncation]] + [None]
        self._payload = payload
        self.name = name
        self._nondeg: list[np.ndarray | None] = [None] * (self.truncation + 1)
        self._form: tuple[NondegenerateComplex, list[np.ndarray]] | None = None
        if len(self.counts) != self.truncation + 1:
            raise SimplicialError("counts must cover levels 0..truncation")
        self.validate()

    # -- basic queries -------------------------------------------------

    def payload(self, level: int, index: int):
        """Canonical encoding of a cell (tuples of vertex tuples)."""
        return self._payload(level, index)

    def nondegenerate(self, level: int) -> np.ndarray:
        """Boolean mask of nondegenerate cells at a level (cached)."""
        cached = self._nondeg[level]
        if cached is not None:
            return cached
        n = self.counts[level]
        if level == 0:
            mask = np.ones(n, dtype=bool)
        else:
            # c is degenerate iff s_j(d_j(c)) == c for some j (Eilenberg-Zilber).
            mask = np.ones(n, dtype=bool)
            idx = np.arange(n, dtype=np.int64)
            for j in range(level):
                dj = self.faces[level][:, j]
                sj = self.degens[level - 1][dj, j]
                mask &= sj != idx
        mask.flags.writeable = False
        self._nondeg[level] = mask
        return mask

    def nondeg_counts(self) -> tuple[int, ...]:
        return tuple(int(self.nondegenerate(k).sum()) for k in range(self.truncation + 1))

    def total_cells(self) -> int:
        return sum(self.counts)

    def _positions(self) -> tuple[NondegenerateComplex, list[np.ndarray]]:
        """The nondegenerate form, and per level each cell's index in it
        (-1 for a degenerate cell); cached."""
        if self._form is None:
            pos, cells = [], []
            for k in range(self.truncation + 1):
                nd = np.flatnonzero(self.nondegenerate(k))
                p = np.full(self.counts[k], -1, dtype=np.int64)
                p[nd] = np.arange(len(nd), dtype=np.int64)
                pos.append(p)
                cells.append(nd)
            faces = [None] + [pos[k - 1][self.faces[k][cells[k]]]
                              for k in range(1, self.truncation + 1)]
            form = NondegenerateComplex(
                self.name, [len(c) for c in cells], faces, self.counts,
                lambda level, i: self.payload(level, int(cells[level][i])), check=False)
            self._form = (form, pos)
        return self._form

    def nondegenerate_form(self) -> NondegenerateComplex:
        """The nondegenerate cells and their faces (validated as a whole)."""
        return self._positions()[0]

    def degenerate_tower(self, vertex: int, level: int) -> int:
        """Index of the ``level``-fold degeneracy of a 0-cell."""
        cell = int(vertex)
        for k in range(level):
            cell = int(self.degens[k][cell, 0])
        return cell

    def same_cells(self, other: "TruncatedSimplicialSet") -> bool:
        """True when both objects carry identical cell tables."""
        if self.truncation != other.truncation or self.counts != other.counts:
            return False
        for k in range(1, self.truncation + 1):
            if not np.array_equal(self.faces[k], other.faces[k]):
                return False
        for k in range(self.truncation):
            if not np.array_equal(self.degens[k], other.degens[k]):
                return False
        return True

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Exhaustively check the simplicial identities within truncation."""
        D = self.truncation
        for k in range(1, D + 1):
            f = self.faces[k]
            if f is None or f.shape != (self.counts[k], k + 1):
                raise SimplicialError(f"face table at level {k} has wrong shape")
            if f.size and (f.min() < 0 or f.max() >= self.counts[k - 1]):
                raise SimplicialError(f"face index out of range at level {k}")
        for k in range(D):
            s = self.degens[k]
            if s is None or s.shape != (self.counts[k], k + 1):
                raise SimplicialError(f"degeneracy table at level {k} has wrong shape")
            if s.size and (s.min() < 0 or s.max() >= self.counts[k + 1]):
                raise SimplicialError(f"degeneracy index out of range at level {k}")

        # d_i d_j = d_{j-1} d_i for i < j
        for k in range(2, D + 1):
            f, g = self.faces[k], self.faces[k - 1]
            for j in range(1, k + 1):
                for i in range(j):
                    if not np.array_equal(g[f[:, j], i], g[f[:, i], j - 1]):
                        raise SimplicialError(f"face identity fails at level {k} (i={i}, j={j})")

        # d_i s_j identities, levels k with s into k+1 <= D
        for k in range(D):
            s = self.degens[k]
            f = self.faces[k + 1]
            idx = np.arange(self.counts[k], dtype=np.int64)
            for j in range(k + 1):
                sj = s[:, j]
                for i in range(k + 2):
                    left = f[sj, i]
                    if i == j or i == j + 1:
                        expect = idx
                    elif i < j:
                        expect = self.degens[k - 1][self.faces[k][:, i], j - 1]
                    else:
                        expect = self.degens[k - 1][self.faces[k][:, i - 1], j]
                    if not np.array_equal(left, expect):
                        raise SimplicialError(
                            f"mixed identity fails at level {k} (i={i}, j={j})")

        # s_i s_j = s_{j+1} s_i for i <= j
        for k in range(D - 1):
            s, t = self.degens[k], self.degens[k + 1]
            for j in range(k + 1):
                for i in range(j + 1):
                    if not np.array_equal(t[s[:, j], i], t[s[:, i], j + 1]):
                        raise SimplicialError(
                            f"degeneracy identity fails at level {k} (i={i}, j={j})")

    # -- debug dump ----------------------------------------------------

    def dump(self) -> None:
        """Print payloads and faces, up to 200 cells a level (debugging aid)."""
        print(f"simplicial set {self.name!r}, truncation {self.truncation}")
        for k in range(self.truncation + 1):
            nd = self.nondegenerate(k)
            print(f"level {k}: {self.counts[k]} cells, {int(nd.sum())} nondegenerate")
            for i in range(min(self.counts[k], 200)):
                flag = "" if nd[i] else "  (degenerate)"
                row = "" if k == 0 else f"  d={self.faces[k][i].tolist()}"
                print(f"  [{i}] {self.payload(k, i)}{row}{flag}")


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


def compose_maps(g: SSetMap, f: SSetMap, name: str = "") -> SSetMap:
    """The composite ``g after f``; levels follow the source of ``f``."""
    if f.target is not g.source:
        raise SimplicialError("compose_maps: target of f is not the source of g")
    assignment = tuple(g.assignment[k][f.assignment[k]]
                       for k in range(f.source.truncation + 1))
    return SSetMap(f.source, g.target, assignment, name=name or f"{g.name}*{f.name}")


# ----------------------------------------------------------------------
# generation from an ordered complex
# ----------------------------------------------------------------------

def from_ordered_complex(spec: OrderedComplexSpec, truncation: int) -> TruncatedSimplicialSet:
    """Simplicial set of an ordered complex, truncated at the given level.

    The simplicial-set view of the orbit engine's table of X's cells
    (``orbits.Sequences``): level-k cells are the monotone (k+1)-tuples of
    vertices whose distinct entries span a simplex, in lexicographic order,
    and counts, faces and payloads are the table's.  s_j(c) is the one
    level-(k+1) cell e with d_j e = d_(j+1) e = c: deleting the j-th or the
    (j+1)-th vertex of a sequence gives the same sequence exactly when the
    two vertices are equal, and then e is c with its j-th vertex repeated.
    The nondegenerate cells are exactly the ordered simplices.
    """
    if truncation < spec.dimension:
        raise SimplicialError(
            f"truncation {truncation} is below the complex dimension {spec.dimension}")
    from .orbits import Sequences   # here, not at the top: orbits imports this module
    X = Sequences(spec, truncation)
    degens: list[np.ndarray] = []
    for k in range(truncation):
        faces, table = X.faces[k + 1], np.empty((X.counts[k], k + 1), dtype=np.int64)
        for j in range(k + 1):
            repeat = np.flatnonzero(faces[:, j] == faces[:, j + 1])
            table[faces[repeat, j], j] = repeat
        degens.append(table)
    return TruncatedSimplicialSet(truncation, X.counts, X.faces, degens, X.label,
                                  name=spec.name)


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------

def _recompose(comps, base: int) -> np.ndarray:
    """Big-endian mixed-radix keys of the component arrays ``comps[0], ...``
    in the given base, the inverse of :func:`_decompose`."""
    out = np.array(comps[0], dtype=np.int64)
    for c in comps[1:]:
        out *= base
        out += c
    return out


def _decompose(indices: np.ndarray, base: int, n: int) -> np.ndarray:
    """Big-endian mixed-radix components of product-cell indices, shape (n, len)."""
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
    level.  Raises :class:`CellCapExceeded` before allocating anything if
    the enumeration would exceed the cap.
    """
    if n < 1:
        raise SimplicialError("power requires n >= 1")
    D = S.truncation
    total = sum(c ** n for c in S.counts)
    cap = cell_cap()
    if total > cap:
        raise CellCapExceeded(
            f"product would enumerate {total} cells (cap {cap}; "
            "raise FINSUB_CELL_CAP to override)")

    counts = [c ** n for c in S.counts]
    coordinates = tuple(_decompose(np.arange(counts[k], dtype=np.int64), S.counts[k], n)
                        for k in range(D + 1))

    faces: list[np.ndarray | None] = [None]
    for k in range(1, D + 1):
        comps = coordinates[k]
        table = np.empty((counts[k], k + 1), dtype=np.int64)
        for i in range(k + 1):
            table[:, i] = _recompose([S.faces[k][c, i] for c in comps], S.counts[k - 1])
        faces.append(table)
    degens: list[np.ndarray] = []
    for k in range(D):
        comps = coordinates[k]
        table = np.empty((counts[k], k + 1), dtype=np.int64)
        for j in range(k + 1):
            table[:, j] = _recompose([S.degens[k][c, j] for c in comps], S.counts[k + 1])
        degens.append(table)

    def payload(level: int, index: int):
        comps = []
        for _ in range(n):
            index, c = divmod(index, S.counts[level])
            comps.append(c)
        return tuple(S.payload(level, c) for c in reversed(comps))

    P = TruncatedSimplicialSet(D, counts, faces, degens, payload,
                               name=f"{S.name}^{n}")
    return P, coordinates


# ----------------------------------------------------------------------
# quotients
# ----------------------------------------------------------------------

def _normalize_pairs(S, pairs) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Pairs ``level -> (a, b)`` as int64 arrays, checked against ``S``.

    Indices are checked explicitly: numpy and list indexing would wrap a
    negative index round to the last cells instead of rejecting it.
    """
    out = {}
    for level, (a, b) in pairs.items():
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape != b.shape:
            raise SimplicialError("pair arrays must have equal length")
        if not 0 <= level <= S.truncation:
            raise SimplicialError(f"pair level {level} outside 0..{S.truncation}")
        for arr in (a, b):
            if arr.size and (arr.min() < 0 or arr.max() >= S.counts[level]):
                raise SimplicialError(
                    f"pair index out of range 0..{S.counts[level] - 1} at level {level}")
        out[int(level)] = (a, b)
    return out


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
    pending = _normalize_pairs(S, pairs)
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

    faces_q: list[np.ndarray | None] = [None]
    for k in range(1, D + 1):
        faces_q.append(class_of[k - 1][S.faces[k][reps[k]]])
    degens_q: list[np.ndarray] = []
    for k in range(D):
        degens_q.append(class_of[k + 1][S.degens[k][reps[k]]])

    def payload(level: int, index: int):
        return S.payload(level, int(reps[level][index]))

    Q = TruncatedSimplicialSet(D, [len(r) for r in reps], faces_q, degens_q, payload,
                               name=name or f"{S.name}/~")
    projection = SSetMap(S, Q, tuple(class_of), name="proj")
    return Q, projection


# ----------------------------------------------------------------------
# subobjects and collapses
# ----------------------------------------------------------------------

def sub_object(S: TruncatedSimplicialSet, predicate: Callable[[int, object], bool],
               name: str = ""):
    """Subobject spanned by the cells satisfying ``predicate(level, payload)``.

    The selected set must be closed under faces and degeneracies; a
    violation is reported with the offending cell.  Returns
    ``(A, inclusion)``.
    """
    D = S.truncation
    selected: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for k in range(D + 1):
        mask = np.fromiter((predicate(k, S.payload(k, i)) for i in range(S.counts[k])),
                           dtype=bool, count=S.counts[k])
        masks.append(mask)
        selected.append(np.nonzero(mask)[0].astype(np.int64))
    for k in range(1, D + 1):
        mask_faces = masks[k - 1][S.faces[k][selected[k]]]
        if not mask_faces.all():
            c = selected[k][np.nonzero(~mask_faces.all(axis=1))[0][0]]
            raise SimplicialError(
                f"selection is not closed under faces: cell {S.payload(k, int(c))} "
                f"at level {k} has an unselected face")
    for k in range(D):
        mask_deg = masks[k + 1][S.degens[k][selected[k]]]
        if not mask_deg.all():
            c = selected[k][np.nonzero(~mask_deg.all(axis=1))[0][0]]
            raise SimplicialError(
                f"selection is not closed under degeneracies: cell "
                f"{S.payload(k, int(c))} at level {k}")

    sub_index: list[np.ndarray] = []
    for k in range(D + 1):
        back = np.full(S.counts[k], -1, dtype=np.int64)
        back[selected[k]] = np.arange(len(selected[k]), dtype=np.int64)
        sub_index.append(back)

    counts_a = [len(s) for s in selected]
    faces_a: list[np.ndarray | None] = [None]
    for k in range(1, D + 1):
        faces_a.append(sub_index[k - 1][S.faces[k][selected[k]]])
    degens_a: list[np.ndarray] = []
    for k in range(D):
        degens_a.append(sub_index[k + 1][S.degens[k][selected[k]]])

    sel_frozen = [_frozen(s) for s in selected]

    def payload(level: int, index: int):
        return S.payload(level, int(sel_frozen[level][index]))

    A = TruncatedSimplicialSet(D, counts_a, faces_a, degens_a, payload,
                               name=name or f"{S.name}|sub")
    inclusion = SSetMap(A, S, tuple(sel_frozen), name="incl")
    return A, inclusion


def collapse(S: TruncatedSimplicialSet, inclusion: SSetMap, name: str = ""):
    """Collapse a subobject to a point; returns ``(Q, projection)``.

    ``inclusion`` must be the inclusion of a subobject of ``S`` (as
    produced by :func:`sub_object`) containing at least one vertex.
    """
    if inclusion.target is not S:
        raise SimplicialError("collapse: inclusion does not land in S")
    if inclusion.source.counts[0] == 0:
        raise SimplicialError("collapse: subobject is empty")
    pairs = {}
    for k in range(inclusion.source.truncation + 1):
        sel = inclusion.assignment[k]
        if len(sel) > 1:
            pairs[k] = (sel[:-1], sel[1:])
    return quotient(S, pairs, name=name or f"{S.name}/A")
