"""Simplicial sets in two forms: every cell, or the nondegenerate cells.

:class:`NondegenerateComplex` holds only the nondegenerate cells of a
simplicial set and their faces, a degenerate face stored as -1; with
:class:`NondegenerateMap` it is all that normalized chains, chain maps and
pi_1 presentations read (``homology``, ``fundamental``).  The orbit engine
(``orbits``) builds every construction in this form directly.

:class:`TruncatedSimplicialSet` holds every cell up to a truncation, with
dense face and degeneracy tables whose simplicial identities are validated
on construction, and reaches the reader through one conversion
(:meth:`TruncatedSimplicialSet.nondegenerate_form`).  It is the view of an
ordered complex X that :func:`from_ordered_complex` reads off the orbit
engine's table of X's cells (``orbits.Sequences``), so X's cells are
listed in one place.
"""

from __future__ import annotations

import os

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
