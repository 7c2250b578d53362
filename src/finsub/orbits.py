"""Nondegenerate orbit engine: SP^n(X), Sub_n(X) and their relatives,
built from their nondegenerate cells without X^n or a quotient.

A k-cell of the ordered complex X is a nondecreasing vertex sequence of
length k+1 whose vertices span a simplex; it is s_j of a (k-1)-cell
exactly when positions j and j+1 agree, so its ascent mask (bit j set when
v_j < v_{j+1}) records its degeneracy.  A k-cell of SP^n(X) is a multiset
of n k-cells of X, and a k-cell of Sub_n(X) a set of at most n of them.
By the Eilenberg-Zilber criterion (May, *Simplicial Objects in Algebraic
Topology*, 1967) such a cell is nondegenerate exactly when the ascent
masks of its members together cover 0..k-1, and a quotient by a group
keeps nondegenerate cells nondegenerate.  So chains, structure maps and
pi_1 need only these cells.

Per level, :class:`Sequences` tables the k-cells of X (ascent masks,
simplices and d_i lookups); ``simplicial.from_ordered_complex`` reads the
same table.  A cell of a construction is a row of member indices, its
canonical payload: sorted for a multiset, the support padded with its
least member for a set.  Rows are kept in lexicographic order, the order
of the quotient of X^n by the same relation (whose least member
represents each class), so the chain complexes match that quotient's
entry for entry; the tests hold it as the engine's oracle.  A
:class:`Form` says which rows are cells: the based and reduced spaces are
quotients (a row goes to its class's representative, and a collapsed
subobject to the point's cell, degenerate above level 0), the fat
diagonal and the filtration pieces are subobjects.  Faces come from the X
tables, a sort and ``searchsorted``; a degenerate face is stored as -1.
Every face that is nondegenerate must be found among the cells, and the
face identities and the maps' commutation with faces are checked on
construction.

The number of all cells, degenerate ones included, is known in closed
form from N_k = sum over simplices F of C(k, |F| - 1), the number of
k-cells of X.  :func:`build` compares it with the cell cap before anything
is enumerated, tables X's cells once and builds each space on its first
read (:class:`Lazy`).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from .simplicial import (CellCapExceeded, NondegenerateComplex, NondegenerateMap,
                         SimplicialError, cell_cap)
from .spaces import OrderedComplexSpec


def _popcount(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def _recompose(comps, base: int) -> np.ndarray:
    """Big-endian mixed-radix keys of the component arrays ``comps[0], ...``
    in the given base."""
    out = np.array(comps[0], dtype=np.int64)
    for c in comps[1:]:
        out *= base
        out += c
    return out


def sequence_counts(spec: OrderedComplexSpec, truncation: int) -> list[int]:
    """N_k, the number of k-cells of X, for k = 0..truncation."""
    sizes = [len(simplex) for simplex in spec.simplex_set]
    return [sum(comb(k, s - 1) for s in sizes) for k in range(truncation + 1)]


def _grow(simplices, index, V: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (s, v) of a simplex s and a vertex v for which s + v is a
    simplex, as sorted keys ``s * V + v``, and the index of s + v at each.
    t is s + v for each vertex v of t, with s = t or t - v."""
    face, vertex, grown = np.array(
        [(s, v, t) for t, simplex in enumerate(simplices) for i, v in enumerate(simplex)
         for s in (t, index.get(simplex[:i] + simplex[i + 1:], t))], dtype=np.int64).T
    key = face * V + vertex
    order = np.argsort(key, kind="stable")
    key, grown = key[order], grown[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]   # a vertex t lists (t, v) twice
    return key[first], grown[first]


class Sequences:
    """The k-cells of X for k = 0..truncation, in lexicographic order.

    Per level: ``verts`` (the vertex sequences), ``mask`` (ascent masks),
    ``simplex`` (the index of the simplex each sequence spans, among the
    sorted simplices), ``faces`` (an ``(N_k, k+1)`` array of d_i indices
    one level down) and ``tower`` (the index of the constant sequence at
    the basepoint).  A k-cell is its parent, the sequence without its last
    vertex, extended by that vertex, and d_i for i < k is d_i of the
    parent, extended.  The tables of grown simplices and of extended cells
    are sorted keys ``s * V + v``, read with ``searchsorted``, so memory
    grows with the cells and not with cells times vertices.
    """

    def __init__(self, spec: OrderedComplexSpec, truncation: int):
        V = spec.vertex_count
        simplices = sorted(spec.simplex_set)
        index = {s: i for i, s in enumerate(simplices)}
        grow, grown = _grow(simplices, index, V)
        self.truncation = truncation
        self.dimension = spec.dimension
        self.verts = [np.arange(V, dtype=np.int64)[:, None]]
        self.mask = [np.zeros(V, dtype=np.int64)]
        self.faces: list[np.ndarray | None] = [None]
        self.tower = [spec.basepoint]
        self.simplex = [np.array([index[(v,)] for v in range(V)], dtype=np.int64)]
        extended = None
        for k in range(1, truncation + 1):
            last, support = self.verts[-1][:, -1], self.simplex[-1]
            # each cell's run of keys support * V + v with v >= last
            start = np.searchsorted(grow, support * V + last)
            counts = np.searchsorted(grow, (support + 1) * V) - start
            parent = np.repeat(np.arange(len(last), dtype=np.int64), counts)
            at = np.arange(int(counts.sum()), dtype=np.int64) \
                + np.repeat(start - (np.cumsum(counts) - counts), counts)
            v = grow[at] % V
            faces = np.empty((len(v), k + 1), dtype=np.int64)
            faces[:, k] = parent
            if k == 1:
                faces[:, 0] = v
            else:
                for i in range(k):
                    faces[:, i] = np.searchsorted(extended, self.faces[-1][parent, i] * V + v)
            # the cells in order, as sorted keys parent * V + v
            extended = parent * V + v
            self.verts.append(np.hstack([self.verts[-1][parent], v[:, None]]))
            ascent = (v > last[parent]).astype(np.int64) << (k - 1)
            self.mask.append(self.mask[-1][parent] | ascent)
            self.faces.append(faces)
            self.tower.append(int(np.searchsorted(extended, self.tower[-1] * V + spec.basepoint)))
            self.simplex.append(grown[at])
        self.counts = [len(m) for m in self.mask]
        self._labels: dict[int, list[tuple[int, ...]]] = {}

    def label(self, level: int, index: int) -> tuple[int, ...]:
        if level not in self._labels:
            self._labels[level] = [tuple(s) for s in self.verts[level].tolist()]
        return self._labels[level][index]

    def covered(self, rows: np.ndarray, level: int) -> np.ndarray:
        """Rows whose members' ascent masks cover 0..level-1."""
        cover = np.bitwise_or.reduce(self.mask[level][rows], axis=1)
        return cover == (1 << level) - 1

    def keys(self, rows: np.ndarray, level: int) -> np.ndarray:
        """Order-preserving integer keys of rows at a level."""
        base = self.counts[level]
        if base ** rows.shape[1] >= 2 ** 63:
            raise SimplicialError(f"cells at level {level} are too many to index")
        return _recompose(rows.T, base)

    def nondegenerate_rows(self, level: int, n: int, sets: bool) -> np.ndarray:
        """Rows of n members whose ascent masks cover 0..level-1, in
        lexicographic order: multisets, or sets padded with their least
        member.  Each member covers at most min(level, dim X) positions,
        which prunes partial rows that cannot be completed; the last round
        keeps no row with a position uncovered, so every row is :meth:`covered`."""
        mask = self.mask[level]
        full = (1 << level) - 1
        most = min(level, self.dimension)
        N = len(mask)
        rows = np.arange(N, dtype=np.int64)[:, None]
        cover = mask
        for t in range(1, n + 1):
            keep = _popcount(full & ~cover) <= (n - t) * most
            rows, cover = rows[keep], cover[keep]
            if t == n or not len(rows):
                break
            start = rows[:, -1]
            if sets:   # a set's row repeats only its least member
                start = start + (rows[:, -1] != rows[:, 0])
            counts = N - start
            owner = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
            member = np.arange(int(counts.sum()), dtype=np.int64) \
                - np.repeat(np.cumsum(counts) - counts - start, counts)
            rows = np.hstack([rows[owner], member[:, None]])
            cover = cover[owner] | mask[member]
        return rows.reshape(-1, n)

    def canonical(self, rows: np.ndarray, sets: bool) -> np.ndarray:
        """Sorted rows; for sets, repeated members replaced by the least."""
        rows = np.sort(rows, axis=1)
        if sets and rows.shape[1] > 1:
            rows[:, 1:] = np.where(rows[:, 1:] == rows[:, :-1], rows[:, :1], rows[:, 1:])
            rows.sort(axis=1)
        return rows


Rows = Callable[[Sequences, np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class Form:
    """Which rows of n members are the cells of a space.

    Members form a multiset, or with ``sets`` a set.  A nondegenerate row
    is a cell when ``select`` holds (a subobject) and ``canon`` leaves it
    as it is (``canon`` sends a row to the representative of its class in
    a quotient, which may be a degenerate cell).  ``count(N_k)`` is the
    number of all k-cells.  ``bare`` labels a cell by its one member's
    vertex sequence, as X itself.
    """

    n: int
    count: Callable[[int], int]
    sets: bool = False
    select: Rows | None = None
    canon: Rows | None = None
    bare: bool = False


def _repeated(X, rows, level):
    return (rows[:, 1:] == rows[:, :-1]).any(axis=1)


def _has_tower(X, rows, level):
    return (rows == X.tower[level]).any(axis=1)


def _based_canon(X, rows, level):
    """{x, x0-tower} is the class of the pairs (x, x) and (x, tower); its
    representative is the lexicographically smaller one."""
    t = X.tower[level]
    rows = rows.copy()
    a, b = rows[:, 0], rows[:, 1]
    rows[(a == b) & (a > t), 0] = t
    low = (b == t) & (a < t)
    rows[low, 1] = a[low]
    return rows


def _collapsing(in_sub: Rows, point: Callable[[Sequences, int, int], list[int]]):
    """``canon`` of a quotient collapsing the subobject of rows where
    ``in_sub`` holds to a point: at each level, to the point's cell
    ``point(X, n, level)``, which is degenerate above level 0."""
    def canon(X, rows, level):
        rows = rows.copy()
        rows[in_sub(X, rows, level)] = point(X, rows.shape[1], level)
        return rows
    return canon


# collapses the rows with a repeated member to the point, n copies of cell 0
_collapse_repeated = _collapsing(_repeated, lambda X, n, level: [0] * n)

BASE = Form(1, lambda N: N, bare=True)


def sp_form(n: int) -> Form:
    return Form(n, lambda N: comb(N + n - 1, n))


def sub_form(n: int) -> Form:
    return Form(n, lambda N: sum(comb(N, m) for m in range(1, n + 1)), sets=True)


def based_form() -> Form:
    """Sub_3(X, x0): the sets of at most three cells that contain the
    basepoint tower, as the quotient of SP^2(X) gluing (x, x) to (x, x0)."""
    return Form(2, lambda N: 1 + (N - 1) + comb(N - 1, 2), canon=_based_canon)


def fat_form(n: int) -> Form:
    return Form(n, lambda N: comb(N + n - 1, n) - comb(N, n), select=_repeated)


def tower_form(n: int) -> Form:
    """SP^(n-1)(X) inside SP^n(X): the multisets containing the tower."""
    return Form(n, lambda N: comb(N + n - 2, n - 1), select=_has_tower)


def prev_form(n: int) -> Form:
    """Sub_(n-1)(X) inside Sub_n(X): the sets of fewer than n members."""
    return Form(n, lambda N: sum(comb(N, m) for m in range(1, n)), sets=True,
                select=_repeated)


def reduced_sp_form(n: int) -> Form:
    """SP^n(X)/SP^(n-1)(X): the multisets without the tower, and the point."""
    canon = _collapsing(_has_tower, lambda X, n, level: sorted([0] * (n - 1) + [X.tower[level]]))
    return Form(n, lambda N: comb(N + n - 1, n) - comb(N + n - 2, n - 1) + 1, canon=canon)


def reduced_sub_form(n: int) -> Form:
    """Sub_n(X)/Sub_(n-1)(X): the sets of exactly n members, and the point."""
    return Form(n, lambda N: comb(N, n) + 1, sets=True, canon=_collapse_repeated)


def sp_over_fat_form(n: int) -> Form:
    """SP^n(X) modulo its fat diagonal: the multisets of n distinct members,
    and the point."""
    return Form(n, lambda N: comb(N, n) + 1, canon=_collapse_repeated)


class OrbitSpace(NondegenerateComplex):
    """The nondegenerate cells of a construction on X, as rows of members.

    ``rows[k]`` holds the canonical payloads of the nondegenerate k-cells
    as an ``(ranks[k], n)`` array of X's k-cell indices, in lexicographic
    order; ``keys[k]`` are their integer keys.
    """

    def __init__(self, X: Sequences, form: Form, name: str, counts):
        self.X, self.form, self.name = X, form, name
        self.rows: list[np.ndarray] = []
        self.keys: list[np.ndarray] = []
        for k in range(X.truncation + 1):
            rows = X.nondegenerate_rows(k, form.n, form.sets)
            if form.select is not None:
                rows = rows[form.select(X, rows, k)]
            if form.canon is not None:
                rows = rows[(form.canon(X, rows, k) == rows).all(axis=1)]
            self.rows.append(rows)
            self.keys.append(X.keys(self.rows[-1], k))
        faces = [None] + [np.stack([self.locate(X.faces[k][:, i][self.rows[k]], k - 1)
                                    for i in range(k + 1)], axis=1).reshape(-1, k + 1)
                          for k in range(1, X.truncation + 1)]
        super().__init__(name, [len(r) for r in self.rows], faces, counts, self._label)

    def _label(self, level: int, index: int):
        members = [self.X.label(level, int(c)) for c in self.rows[level][index]]
        return members[0] if self.form.bare else tuple(members)

    def locate(self, members: np.ndarray, level: int) -> np.ndarray:
        """Index of the cell that each row of members is, or -1 where that
        cell is degenerate.  A nondegenerate cell that is not found means
        the cells are not closed under faces (or a map's image is wrong)."""
        rows = self.X.canonical(members, self.form.sets)
        if self.form.canon is not None:
            rows = self.form.canon(self.X, rows, level)
        alive = self.X.covered(rows, level)
        keys = self.X.keys(rows, level)
        table = self.keys[level]
        pos = np.minimum(np.searchsorted(table, keys), max(len(table) - 1, 0))
        found = table[pos] == keys if len(table) else np.zeros(len(keys), dtype=bool)
        if (alive & ~found).any():
            raise SimplicialError(f"{self.name}: a nondegenerate cell at level {level} "
                                  "is not among the cells")
        return np.where(alive, pos, -1)


def default_truncation(spec: OrderedComplexSpec, n: int) -> int:
    """One level above the top dimension n*dim(X) of a construction on n members."""
    return n * spec.dimension + 1


def _cell_counts(forms: list[tuple[Form, str]], N: list[int], cap: int) -> list[list[int]]:
    """All cells per level of each form's space when X has N[k] k-cells.

    Raises :class:`CellCapExceeded` as soon as the running total passes the
    cap, so a huge n costs no more counts than a small one.
    """
    counts = [[] for _ in forms]
    total = 0
    for (form, _), row in zip(forms, counts):
        for c in N:
            row.append(form.count(c))
            total += row[-1]
            if total > cap:
                raise CellCapExceeded(
                    f"the spaces of this construction have more than the cap of {cap} "
                    "cells, degenerate ones included (raise FINSUB_CELL_CAP to override)")
    return counts


class Lazy(Mapping):
    """A read-only mapping whose values are built on their first read, by
    the thunk given for each key, and then kept."""

    def __init__(self, thunks: dict[str, Callable[[], object]]):
        self._thunks = thunks
        self._values: dict[str, object] = {}

    def __getitem__(self, key):
        if key not in self._values:
            self._values[key] = self._thunks[key]()
        return self._values[key]

    def __contains__(self, key):
        return key in self._thunks

    def __iter__(self):
        return iter(self._thunks)

    def __len__(self):
        return len(self._thunks)


def build(spec: OrderedComplexSpec, n: int, forms: dict[str, tuple[Form, str]]) -> Lazy:
    """X (key ``"base"``) and the spaces of the given forms of n members,
    ``{key: (form, name)}``, as OrbitSpaces up to level
    ``default_truncation(spec, n)``, each built on its first read.

    Raises :class:`CellCapExceeded` before anything is enumerated when the
    spaces together have more cells, degenerate ones included, than the cap,
    whether or not they are read.  Every count grows with N_k, and X has at
    least the C(d+k+1, k+1) k-cells of its largest simplex, so that bound is
    checked first: it needs no downward closure of X, which has 2^(d+1) - 1
    faces per d-simplex.
    """
    truncation = default_truncation(spec, n)
    forms = {"base": (BASE, spec.name), **forms}
    cap = cell_cap()
    d = spec.dimension
    named = list(forms.values())
    _cell_counts(named, [comb(d + k + 1, k + 1) for k in range(truncation + 1)], cap)
    counts = _cell_counts(named, sequence_counts(spec, truncation), cap)
    X = Sequences(spec, truncation)
    return Lazy({key: partial(OrbitSpace, X, form, name, c)
                 for (key, (form, name)), c in zip(forms.items(), counts)})


def repeat(rows: np.ndarray, level: int, X: Sequences, n: int) -> np.ndarray:
    """Each member n times: the diagonal."""
    return np.repeat(rows, n, axis=1)


def with_tower(rows: np.ndarray, level: int, X: Sequences, n: int) -> np.ndarray:
    """Each row padded with the basepoint tower to n members."""
    return np.hstack([rows, np.full((len(rows), n - rows.shape[1]), X.tower[level],
                                    dtype=np.int64)])


def orbit_map(source: OrbitSpace, target: OrbitSpace, name: str, image=None) -> NondegenerateMap:
    """The map sending each cell's members, or ``image(rows, level, X, n)``
    of them, to the target cell they make."""
    n = target.form.n
    assignment = [target.locate(source.rows[k] if image is None
                                else image(source.rows[k], k, source.X, n), k)
                  for k in range(source.truncation + 1)]
    return NondegenerateMap(source, target, assignment, name=name)
