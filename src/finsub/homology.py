"""Exact homology of chain complexes over Z and F_p.

Every result is exact.  A ``SparseIntMatrix`` holds its values in int64
when all are below ``INT64_ENTRY_BOUND``, else as Python ints, and the
eliminations run on Python ints: sparse Smith normal form with unimodular
transforms (and their inverses) yields Betti numbers, torsion
coefficients, homology coordinate systems, and induced maps.

One unit-pivot reduction, ``_reduce``, serves every elimination.  Almost
every pivot of a simplicial boundary matrix is a unit, so pivots come from
a lazy min-heap of columns keyed by occupancy: the shortest column that
holds a unit (+-1 over Z, anything nonzero over F_p), at its entry in the
shortest row.  ``rank_mod_p`` counts its pivots, ``_reduction`` reduces
chain complexes with it (below), and the Smith form kernel ``_eliminate``
records each logged pivot's row and column operations on its transforms.
Only when no unit is left does the kernel turn to a Markowitz scan of the
small non-unit residual, where the gcd steps of ``_eliminate_at`` may
create new units for the next ``_reduce``.  Each step of the kernel is one
combination (x, y, z, w) with xw - yz = 1 of two rows or two columns,
(i, j) <- (x*i + y*j, z*i + w*j), whose inverse is (w, -z, -y, x).  No
pivot is moved: the divisibility pass d_1 | d_2 | ... works on the pivots
where the elimination left them, and the transforms of ``smith_normal_form``
are relabelled and signed once, when the result is built.

Before any Smith form, ``_reduction`` reduces the complex, for ``homology``
and ``HomologyCoordinates`` alike, by Gaussian elimination of chain
complexes (Kaczynski-Mischaikow-Mrozek, *Computational Homology*, 2004;
Harker-Mischaikow-Mrozek-Nanda, *FoCM* 2014).  A reduction pair
(b, a, lam) is a k-cell a and a (k-1)-cell b with lam = <d_k a, b> a unit.
Write d_k = [[lam, beta], [alpha, D]] on C_k = <a> + C'_k and
C_(k-1) = <b> + C'_(k-1).  The pair is eliminated by clearing column a
with row operations and dropping row b, which leaves the Schur complement
d'_k = D - alpha lam^-1 beta; d_(k+1) loses row a and d_(k-1) loses
column b.

The pairs come in two passes.  First ``_coreduce`` takes coreductions
(Mrozek-Batko, *DCG* 2009) in numpy rounds: a is a live cell whose
boundary, among the live cells, is a single +-1 on b.  A cell is live
until it is paired or made critical.  The degrees are swept once, from 1
up; within a degree, only the columns whose live count a round brings
down to 1 are looked at in the next round.  When no such a is left in
degree k, the least live (k-1)-cell, whose live boundary is empty by
then, is made critical: it stays in the complex but leaves the live rows
of d_k, which may free new pairs.  So vertex 0 is the first critical
cell, and no complex needs a special case in H_0.  When no (k-1)-cell is
live the sweep goes up a degree, and the top cells still live at the end
are critical.  A pair's column a holds only b and critical rows, so its
Schur complement changes critical rows only and a live row is never
filled; the pairs of one round do not meet, since a_j's only live face is
b_j; and a critical k-cell is chosen only after the pairs of d_k, when its
column is final.  What is left is the algebraic Morse complex on the
critical cells (Harker-Mischaikow-Mrozek-Nanda), whose boundary is
phi o d with phi as below.  Then ``_reduce`` takes the unit pivots of
each Morse boundary, from the top down, so each d_k drops the columns
that d_(k+1) paired before its own pivots are taken; only a cell whose
live entry was not a unit, such as the edge of d_1 = (2), reaches it
beyond the homology's own generators.  The residual complex has the
homology of C, and the Smith forms see only it; over F_p every nonzero
entry is a unit, so its boundaries vanish.

The reduction is a chain equivalence, which ``HomologyCoordinates``
crosses both ways with the log of its pairs.  Between cycles of C and of
the residual it maps by

- phi_k (C to residual): first v goes to the critical k-cells by the
  image of each cell: a critical cell is its own image, the cell a of a
  pair of d_k has none, and the face b of a pair (b, a, lam) of d_(k+1)
  maps to -lam^-1 times the critical part of a's column as the pair found
  it, which is phi of the rest of that column.  No pair changes v[b] of
  another, so all images apply at once.  Then for each unit pivot
  (b, a, lam) of the Morse d_(k+1), in order, v[x] -= col[x] * lam^-1 *
  v[b] for every row x != b of its column just before it was cleared, and
  v[b] is dropped; then v is restricted to the residual's generators;
- psi_k (residual to C): for each pair (b, a, lam) of d_k, the unit
  pivots and then the coreductions, each in reverse order,
  z[a] = -lam^-1 * sum over x != a of row[x] * z[x], with row b of d_k as
  the pivot found it.  For a coreduction, row b of C's d_k will do: a
  live row is never filled, and its cells that were no longer alive still
  have z = 0 at that point.

phi o psi is the identity of the residual, and psi o phi is homotopic to
the identity, so the two induce inverse isomorphisms on homology.  Each
free generator is oriented so that its cycle is positive on its least
cell, which fixes a generator of Z whichever pairs the reduction took.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import isqrt

import numpy as np


class HomologyError(ValueError):
    """A chain-complex or matrix invariant was violated."""


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


# ----------------------------------------------------------------------
# sparse integer matrices
# ----------------------------------------------------------------------

# entry products per block in SparseIntMatrix.product_is_zero, which bounds
# its memory on large boundaries
PRODUCT_BLOCK = 1 << 19

# a matrix keeps its values in int64 when every one is below this bound in
# absolute value (see SparseIntMatrix)
INT64_ENTRY_BOUND = 1 << 16

# the constructor sums and sorts up to this many entries in plain Python,
# which costs a few microseconds where numpy's per-call overhead costs tens
SMALL_ENTRIES = 32


def _ranges(start: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions start[i], ..., start[i] + lengths[i] - 1 of each i, in order."""
    ends = np.cumsum(lengths)
    return np.repeat(start - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _segments(ptr: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """The positions ptr[i], ..., ptr[i + 1] - 1 of each line i, in order."""
    return _ranges(ptr[lines], ptr[lines + 1] - ptr[lines])


def _entry_values(vals: np.ndarray) -> np.ndarray:
    """vals in int64 when every |v| is below ``INT64_ENTRY_BOUND``, and as
    Python ints in an object array otherwise."""
    small = vals.size == 0 or (-INT64_ENTRY_BOUND < vals.min() and vals.max() < INT64_ENTRY_BOUND)
    if small:
        return vals.astype(np.int64, copy=False)
    # an object array may hold numpy ints, and np.int64 + a Python int
    # beyond int64 overflows
    return np.frompyfunc(int, 1, 1)(vals) if vals.dtype == object else vals.astype(object)


def _normalized(nrows: int, ncols: int, rows, cols, vals) -> tuple[np.ndarray, ...]:
    """Rows, columns and values of the nonzero entries in row-major order,
    with the values at one position summed and typed by ``_entry_values``."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    if rows.size and (rows.min() < 0 or rows.max() >= nrows
                      or cols.min() < 0 or cols.max() >= ncols):
        raise HomologyError("entry out of range")
    key = rows.astype(np.int64) * ncols + cols.astype(np.int64)
    order = np.argsort(key)
    key, vals = key[order], _entry_values(np.asarray(vals)[order])
    if key.size:
        first = np.r_[True, key[1:] != key[:-1]]
        vals = np.add.reduceat(vals, np.flatnonzero(first))
        key = key[first]
    nonzero = vals != 0
    key = key[nonzero]
    return key // ncols, key % ncols, _entry_values(vals[nonzero])


def _normalized_small(nrows: int, ncols: int, table) -> tuple[np.ndarray, ...]:
    """:func:`_normalized` of at most ``SMALL_ENTRIES`` triples (row, col,
    value), summed, sorted and typed in plain Python."""
    acc: dict[tuple[int, int], int] = {}
    for r, c, v in table:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise HomologyError("entry out of range")
        key = (int(r), int(c))
        acc[key] = acc.get(key, 0) + int(v)
    keys = sorted(key for key, v in acc.items() if v)
    vals = [acc[key] for key in keys]
    small = all(-INT64_ENTRY_BOUND < v < INT64_ENTRY_BOUND for v in vals)
    return (np.array([r for r, _ in keys], dtype=np.int64),
            np.array([c for _, c in keys], dtype=np.int64),
            np.array(vals, dtype=np.int64 if small else object))


class SparseIntMatrix:
    """Immutable sparse matrix with arbitrary-precision integer entries.

    ``arrays`` holds the rows, columns and values of the nonzero entries in
    row-major order.  The values are int64 when every one is below
    ``INT64_ENTRY_BOUND`` = 2^16 in absolute value, and Python ints in an
    object array otherwise; the bound is checked after the entries at one
    position are summed, and every reader takes one path for both.  Below
    the bound each int64 sum and product this module forms is exact.  A
    sum of entries, such as a duplicate sum, stays under 2^63 for fewer
    than 2^47 terms.  An entry product is under 2^32, so an entry of a
    matrix product, as in the d o d check or the fill of ``_coreduce``,
    would need more than 2^31 terms to overflow.

    The entries by column are sorted out once, on first use, and kept:
    :meth:`column_major` serves the d o d check, the coreduction and
    :meth:`columns` alike.
    """

    __slots__ = ("nrows", "ncols", "arrays", "_by_column", "_cols")

    def __init__(self, nrows: int, ncols: int, entries=()):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        table = list(entries)
        if len(table) <= SMALL_ENTRIES:
            self.arrays = _normalized_small(self.nrows, self.ncols, table)
        else:
            rows, cols, vals = zip(*table)
            self.arrays = _normalized(self.nrows, self.ncols, rows, cols,
                                      np.array(vals, dtype=object))
        self._by_column = self._cols = None

    @classmethod
    def from_arrays(cls, nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
                    values: np.ndarray) -> "SparseIntMatrix":
        """The matrix with the entries given as parallel arrays, the values
        in int64 or as Python ints; entries at the same position are
        summed, as by the constructor."""
        out = cls.__new__(cls)
        out.nrows, out.ncols = int(nrows), int(ncols)
        out._by_column = out._cols = None
        out.arrays = _normalized(out.nrows, out.ncols, rows, cols, values)
        return out

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """The nonzero ``(row, col, value)`` triples in row-major order."""
        return tuple(zip(*(a.tolist() for a in self.arrays)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "SparseIntMatrix":
        return cls(nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        return cls(n, n, [(i, i, 1) for i in range(n)])

    @classmethod
    def from_dense(cls, rows) -> "SparseIntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = [(r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v]
        return cls(nrows, ncols, entries)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for r, c, v in self.entries:
            out[r][c] = v
        return out

    @property
    def nnz(self) -> int:
        return len(self.arrays[0])

    def column_major(self) -> tuple[np.ndarray, ...]:
        """The entries by column: the start of each column and the rows and
        values of its entries, in order."""
        if self._by_column is None:
            rows, cols, vals = self.arrays
            order = np.argsort(cols, kind="stable")
            self._by_column = (np.searchsorted(cols[order], np.arange(self.ncols + 1)),
                               rows[order], vals[order])
        return self._by_column

    def columns(self) -> dict[int, list[tuple[int, int]]]:
        """``{column: [(row, value), ...]}`` over the nonzero columns."""
        if self._cols is None:
            ptr, rows, vals = self.column_major()
            entries = list(zip(rows.tolist(), vals.tolist()))
            bounds = ptr.tolist()
            self._cols = {c: entries[lo:hi] for c, (lo, hi)
                          in enumerate(zip(bounds, bounds[1:])) if hi > lo}
        return self._cols

    def matvec(self, vec: dict[int, int]) -> dict[int, int]:
        """The product with the column vector ``{column: value}``; a column
        outside 0..ncols-1 raises HomologyError."""
        cols = self.columns()
        out: dict[int, int] = {}
        for c, x in vec.items():
            if not 0 <= c < self.ncols:
                raise HomologyError(f"column {c} outside 0..{self.ncols - 1}")
            if not x:
                continue
            for r, v in cols.get(c, ()):
                acc = out.get(r, 0) + v * x
                if acc:
                    out[r] = acc
                else:
                    del out[r]
        return out

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise HomologyError("matmul: shape mismatch")
        cols = self.columns()
        acc: dict[tuple[int, int], int] = {}
        for k, j, v in other.entries:
            for i, u in cols.get(k, ()):
                key = (i, j)
                s = acc.get(key, 0) + u * v
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return SparseIntMatrix(self.nrows, other.ncols,
                               [(r, c, v) for (r, c), v in acc.items()])

    def product_is_zero(self, other: "SparseIntMatrix") -> bool:
        """Whether ``self @ other`` vanishes; in numpy, a block of whole
        columns of ``other`` (about ``PRODUCT_BLOCK`` entry products) at a
        time."""
        if self.ncols != other.nrows:
            raise HomologyError("matmul: shape mismatch")
        if self.nnz == 0 or other.nnz == 0:
            return True
        start, a_rows, a_vals = self.column_major()
        b_ptr, b_rows, b_vals = other.column_major()
        b_cols = np.repeat(np.arange(other.ncols), np.diff(b_ptr))
        # each entry (k, j) of other meets the entries of column k of self
        meets = start[b_rows + 1] - start[b_rows]
        total = np.cumsum(meets)
        lo = 0
        while lo < len(b_rows):
            hi = int(np.searchsorted(total, total[lo] - meets[lo] + PRODUCT_BLOCK,
                                     side="right"))
            hi = max(hi, lo + 1)
            if hi < len(b_rows):   # end the block at a column boundary
                hi = int(b_ptr[b_cols[hi - 1] + 1])
            m = meets[lo:hi]
            owner = np.repeat(np.arange(lo, hi), m)
            at = _segments(start, b_rows[lo:hi])
            key = a_rows[at] * other.ncols + b_cols[owner]
            order = np.argsort(key)
            key, val = key[order], (a_vals[at] * b_vals[owner])[order]
            if key.size:
                first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
                if np.add.reduceat(val, first).any():
                    return False
            lo = hi
        return True

    def is_zero(self) -> bool:
        return self.nnz == 0

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and all(np.array_equal(a, b) for a, b in zip(self.arrays, other.arrays)))

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------

def _moving(own, other, p: int, q: int):
    """Where p*own + q*other can differ from own, own and other being the
    entry positions of two lines: other's unless q = 0, and own's unless p = 1."""
    if p == 1:
        return other if q else ()
    return set(own) | set(other) if q else own


class _Work:
    """Mutable dict-of-rows sparse matrix with a column occupancy index; its
    one elementary operation combines two rows or two columns."""

    def __init__(self, entries, nrows, ncols):
        self.nrows, self.ncols = nrows, ncols
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        for r, c, v in entries:
            self.rows.setdefault(r, {})[c] = v
            self.cols.setdefault(c, set()).add(r)

    def get(self, r, c):
        return self.rows.get(r, {}).get(c, 0)

    def _set(self, r, c, v):
        if v:
            self.rows.setdefault(r, {})[c] = v
            self.cols.setdefault(c, set()).add(r)
        else:
            row = self.rows.get(r)
            if row and c in row:
                del row[c]
                self.cols[c].discard(r)

    def row_combine(self, i, j, x, y, z, w):
        """rows (i, j) <- (x*ri + y*rj, z*ri + w*rj); det must be +-1."""
        new = [(r, c, p * self.get(r, c) + q * self.get(s, c))
               for r, s, p, q in ((i, j, x, y), (j, i, w, z))
               for c in _moving(self.rows.get(r, {}), self.rows.get(s, {}), p, q)]
        for r, c, v in new:
            self._set(r, c, v)

    def col_combine(self, i, j, x, y, z, w):
        """cols (i, j) <- (x*ci + y*cj, z*ci + w*cj); det must be +-1."""
        new = [(r, c, p * self.get(r, c) + q * self.get(r, d))
               for c, d, p, q in ((i, j, x, y), (j, i, w, z))
               for r in _moving(self.cols.get(c, ()), self.cols.get(d, ()), p, q)]
        for r, c, v in new:
            self._set(r, c, v)

    def entries(self):
        return [(r, c, v) for r, row in self.rows.items() for c, v in row.items()]


@dataclass
class SmithNormalForm:
    """Result of a Smith normal form computation ``U * M * V = D``."""

    nrows: int
    ncols: int
    diagonal: tuple[int, ...]
    U: SparseIntMatrix | None = None
    V: SparseIntMatrix | None = None
    U_inv: SparseIntMatrix | None = None
    V_inv: SparseIntMatrix | None = None

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)

    def diagonal_matrix(self) -> SparseIntMatrix:
        return SparseIntMatrix(self.nrows, self.ncols,
                               [(i, i, d) for i, d in enumerate(self.diagonal)])

    def verify_unimodular(self) -> bool:
        """Whether each transform the result carries, times its inverse, is
        the identity; False when it carries none."""
        pairs = [(T, T_inv, n) for T, T_inv, n in ((self.U, self.U_inv, self.nrows),
                                                   (self.V, self.V_inv, self.ncols))
                 if T is not None]
        return bool(pairs) and all(T.matmul(T_inv) == SparseIntMatrix.identity(n)
                                   for T, T_inv, n in pairs)


class _Transforms:
    """U, V and their inverses, updated by each combination of M's lines.

    A combination (x, y, z, w) of rows i, j of M is made on rows i, j of U,
    and its inverse (w, -z, -y, x) on columns i, j of U_inv; likewise for
    columns, V and V_inv.

    ``track`` is "both", "left" (row transforms only), "right" (column
    transforms only) or False (none, for :func:`invariant_factors`).
    """

    def __init__(self, nrows, ncols, track):
        self.left = track in ("both", "left")
        self.right = track in ("both", "right")
        if self.left:
            eye_r = [(i, i, 1) for i in range(nrows)]
            self.U = _Work(eye_r, nrows, nrows)
            self.Uinv = _Work(list(eye_r), nrows, nrows)
        if self.right:
            eye_c = [(i, i, 1) for i in range(ncols)]
            self.V = _Work(eye_c, ncols, ncols)
            self.Vinv = _Work(list(eye_c), ncols, ncols)

    def row_combine(self, i, j, x, y, z, w):
        if self.left:
            self.U.row_combine(i, j, x, y, z, w)
            self.Uinv.col_combine(i, j, w, -z, -y, x)

    def col_combine(self, i, j, x, y, z, w):
        if self.right:
            self.V.col_combine(i, j, x, y, z, w)
            self.Vinv.row_combine(i, j, w, -z, -y, x)


def _pick_pivot(work: _Work):
    """Markowitz scan of the non-unit residual: the least entry of least fill-in."""
    keys = ((abs(v), (len(row) - 1) * (len(work.cols[c]) - 1), r, c)
            for r, row in work.rows.items() for c, v in row.items())
    best = min(keys, default=None)
    return None if best is None else best[2:]


def _eliminate_at(work: _Work, tr: _Transforms, r: int, c: int) -> int:
    """Clear column c, then row r, until both hold the pivot alone; returns it.

    Each step clears the entry b of another line against the pivot a by the
    combination (x, y, -b/g, a/g) of the pivot line and that line, with
    (g, x, y) = (a, 1, 0) if a divides b and ``_xgcd(a, b)`` otherwise.  The
    other lines are visited in ascending order, so the steps, and with them
    the transforms, depend on the matrix alone and not on the history of
    ``work``'s sets and dicts.
    """
    def step(combines, pivot, other, a, b):
        g, x, y = (a, 1, 0) if b % a == 0 else _xgcd(a, b)
        for combine in combines:
            combine(pivot, other, x, y, -(b // g), a // g)
        return g

    rows, cols = (work.row_combine, tr.row_combine), (work.col_combine, tr.col_combine)
    a = work.get(r, c)
    while True:
        for rr in sorted(rr for rr in work.cols[c] if rr != r):
            a = step(rows, r, rr, a, work.get(rr, c))
        # the column holds the pivot alone; a gcd step on the row may refill it
        row_cols = sorted(cc for cc in work.rows[r] if cc != c)
        if not row_cols:
            return a
        for cc in row_cols:
            a = step(cols, c, cc, a, work.get(r, cc))


class _PivotQueue:
    """Lazy min-heap of columns keyed by occupancy ``(len(work.cols[c]), c)``.

    Entries go stale as elimination changes a column.  Every column whose
    length a pivot changes is pushed again with its new length (``_reduce``
    pushes the pivot row's columns), so a popped entry whose length no
    longer matches is dropped.  A column without a unit entry is dropped
    until a pivot touches it again.
    """

    def __init__(self, work: _Work, is_unit):
        self.work = work
        self.is_unit = is_unit
        self.heap = [(len(rows), c) for c, rows in work.cols.items() if rows]
        heapq.heapify(self.heap)

    def push(self, cols) -> None:
        for c in cols:
            n = len(self.work.cols[c])
            if n:
                heapq.heappush(self.heap, (n, c))

    def pop(self):
        """The shortest column holding a unit, at its unit in the shortest row.

        Returns the pivot (r, c), or None once no queued column holds a unit.
        """
        heap, work, is_unit = self.heap, self.work, self.is_unit
        while heap:
            n, c = heapq.heappop(heap)
            col = work.cols[c]
            if len(col) != n:
                continue
            best = None
            for r in col:
                row = work.rows[r]
                if is_unit(row[c]) and (best is None or (len(row), r) < best):
                    best = (len(row), r)
            if best is not None:
                return best[1], c
        return None


def _eliminate(work: _Work, tr: _Transforms) -> list[tuple[int, int, int]]:
    """The Smith form kernel: pivot until no entry is left.

    Unit pivots come from :func:`_reduce`, whose log, kept only when ``tr``
    tracks a transform, gives each pivot's row operations (from its column
    before clearing) and column operations (from its row) to record on
    ``tr``.  Only when no unit is left does the Markowitz scan
    ``_pick_pivot`` take a non-unit pivot of the residual, which
    ``_eliminate_at`` clears with gcd steps that may create new units for
    the next ``_reduce``.  Pivots are set aside as taken and put back,
    each as the single entry of its row and column, before the return.
    Returns the pivots ``(r, c, d)`` in discovery order.
    """
    pivots = []
    while True:
        for r, c, lam, *log in _reduce(work, log=tr.left or tr.right):
            if log:
                col, row = log
                for rr, b in col.items():
                    if rr != r:
                        tr.row_combine(rr, r, 1, -b * lam, 0, 1)
                for cc, b in row.items():
                    if cc != c:
                        tr.col_combine(cc, c, 1, -b * lam, 0, 1)
            pivots.append((r, c, lam))
        pick = _pick_pivot(work)
        if pick is None:
            break
        r, c = pick
        pivots.append((r, c, _eliminate_at(work, tr, r, c)))
        del work.rows[r]
        work.cols[c].discard(r)
    for r, c, d in pivots:
        work.rows[r] = {c: d}
        work.cols[c].add(r)
    return pivots


def _unit_z(v: int) -> bool:
    return v == 1 or v == -1


def _reduce(work: _Work, p: int | None = None, log: bool = False) -> list[tuple]:
    """Eliminate the unit pivots of a boundary, leaving its Schur complement.

    Pivots come from a :class:`_PivotQueue` until no queued column holds a
    unit: +-1 over Z (``p`` None), any entry over F_p (the entries of
    ``work`` are then residues mod p, and none is left).  Each pivot's
    column is cleared with multiples of its row, and the row is dropped, so
    ``work`` ends as the residual on the rows and columns no pivot took.
    Returns the pivots ``(r, c, lam)`` with their values in order, or with
    ``log`` the records ``(r, c, lam, col, row)``: also the pivot column
    just before it was cleared and the pivot row (see the module docstring).
    """
    rows, cols = work.rows, work.cols
    queue = _PivotQueue(work, _unit_z if p is None else bool)
    pivots = []
    while (pick := queue.pop()) is not None:
        r, c = pick
        row = rows.pop(r)
        for cc in row:
            cols[cc].discard(r)
        lam = row[c]
        inv = lam if p is None else pow(lam, -1, p)
        pivots.append((r, c, lam, {r: lam, **{rr: rows[rr][c] for rr in cols[c]}}, row)
                      if log else (r, c, lam))
        for rr in list(cols[c]):
            target = rows[rr]
            q = -target[c] * inv
            for cc, v in row.items():
                x = target.get(cc, 0) + q * v
                if p is not None:
                    x %= p
                if x:
                    if cc not in target:
                        cols[cc].add(rr)
                    target[cc] = x
                else:
                    del target[cc]
                    cols[cc].discard(rr)
        # the cleared column is empty, so the queue never offers it again
        queue.push(row)
    return pivots


def _work(M: SparseIntMatrix, p: int | None = None, rows=None, cols=None) -> _Work:
    """M over Z or as residues mod p; with the boolean arrays ``rows`` and
    ``cols``, only on the rows and columns they mark."""
    r, c, v = M.arrays
    v = v if p is None else v % p
    keep = (v != 0) if rows is None else (v != 0) & rows[r] & cols[c]
    return _Work(zip(r[keep].tolist(), c[keep].tolist(), v[keep].tolist()), M.nrows, M.ncols)


def _placement(lines: list[int], n: int) -> list[int]:
    """Where each of n lines lands if, for t = 0, 1, ..., the line
    ``lines[t]`` is swapped with the line then at place t."""
    at = list(range(n))      # the line at each place
    place = list(range(n))   # the place of each line
    for t, line in enumerate(lines):
        p, other = place[line], at[t]
        at[t], at[p] = line, other
        place[line], place[other] = t, p
    return place


def _snf_core(M: SparseIntMatrix, track: str | bool) -> SmithNormalForm:
    work = _work(M)
    tr = _Transforms(M.nrows, M.ncols, track)
    pivots = _eliminate(work, tr)

    prow = [r for r, _, _ in pivots]
    pcol = [c for _, c, _ in pivots]

    # enforce the divisibility chain d_1 | d_2 | ... on the pivots where they stand
    changed = True
    while changed:
        changed = False
        for t in range(len(pivots) - 1):
            a = work.get(prow[t], pcol[t])
            b = work.get(prow[t + 1], pcol[t + 1])
            if b % a != 0:
                work.col_combine(pcol[t], pcol[t + 1], 1, 1, 0, 1)
                tr.col_combine(pcol[t], pcol[t + 1], 1, 1, 0, 1)
                _eliminate_at(work, tr, prow[t], pcol[t])
                changed = True

    pivot_values = [work.get(r, c) for r, c in zip(prow, pcol)]
    result = SmithNormalForm(M.nrows, M.ncols, tuple(abs(d) for d in pivot_values))
    # pivot t goes to (t, t); its row of U, and column of U_inv, take its sign
    if tr.left:
        place = _placement(prow, M.nrows)
        sign = {r: -1 for r, d in zip(prow, pivot_values) if d < 0}
        result.U = SparseIntMatrix(M.nrows, M.nrows, [
            (place[r], c, sign.get(r, 1) * v) for r, c, v in tr.U.entries()])
        result.U_inv = SparseIntMatrix(M.nrows, M.nrows, [
            (r, place[c], sign.get(c, 1) * v) for r, c, v in tr.Uinv.entries()])
    if tr.right:
        place = _placement(pcol, M.ncols)
        result.V = SparseIntMatrix(M.ncols, M.ncols, [
            (r, place[c], v) for r, c, v in tr.V.entries()])
        result.V_inv = SparseIntMatrix(M.ncols, M.ncols, [
            (place[r], c, v) for r, c, v in tr.Vinv.entries()])
    return result


def smith_normal_form(M: SparseIntMatrix, transforms: str = "both") -> SmithNormalForm:
    """Smith normal form with unimodular transforms ``U * M * V = D``.

    ``transforms`` is "both", "left" (U and its inverse only) or "right" (V
    and its inverse only); :func:`invariant_factors` gives the diagonal
    alone.  The pivots stay where the elimination found them, and the
    transforms are placed once, at the end: the t-th pivot's row of U and
    column of V become the t-th, with the row of U signed so that d_t > 0.
    With both transforms the certificate ``U * M * V = D`` is
    re-multiplied exactly, and a mismatch raises HomologyError.
    """
    if transforms not in ("both", "left", "right"):
        raise HomologyError(f"transforms must be 'both', 'left' or 'right', not {transforms!r}")
    snf = _snf_core(M, transforms)
    if transforms == "both" and snf.U.matmul(M).matmul(snf.V) != snf.diagonal_matrix():
        raise HomologyError("SNF certificate failed: U*M*V != D")
    return snf


def invariant_factors(M: SparseIntMatrix) -> tuple[int, tuple[int, ...]]:
    """(rank, full diagonal) without transform tracking; fast path."""
    result = _snf_core(M, track=False)
    return result.rank, result.diagonal


# moduli are below this bound, so trial division in is_prime takes milliseconds
MODULUS_BOUND = 1 << 31


def is_prime(p: int) -> bool:
    """Trial division; moduli are below ``MODULUS_BOUND``."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def _check_modulus(p: int) -> None:
    if p >= MODULUS_BOUND:
        raise HomologyError(f"modulus {p} is not below 2^31")
    if not is_prime(p):
        raise HomologyError(f"modulus {p} is not a prime")


def rank_mod_p(M: SparseIntMatrix, p: int) -> int:
    """Rank of M over the prime field F_p by sparse elimination."""
    _check_modulus(p)
    return len(_reduce(_work(M, p), p))


# ----------------------------------------------------------------------
# chain complexes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group Z^betti + sum of Z/t_i."""

    degree: int
    betti: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise HomologyError("torsion coefficients must form a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise HomologyError("torsion coefficients must exceed 1")

    @property
    def is_zero(self) -> bool:
        return self.betti == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def as_dict(self) -> dict:
        return {"dim": self.degree, "betti": self.betti, "torsion": list(self.torsion)}


class ChainComplexZ:
    """Bounded chain complex of free Z-modules with sparse boundaries.

    ``boundaries[k]`` maps degree k to degree k-1; ``d o d = 0`` is checked
    on construction.  ``truncated`` marks complexes cut out of a larger
    object, in which case the top homology may be unreliable.
    """

    def __init__(self, ranks, boundaries, labels=None, truncated=False):
        self.ranks = tuple(int(n) for n in ranks)
        self.top_degree = len(self.ranks) - 1
        self.boundaries = dict(boundaries)
        self.labels = labels
        self.truncated = truncated
        for k, M in self.boundaries.items():
            if not 1 <= k <= self.top_degree:
                raise HomologyError(f"boundary degree {k} out of range")
            if (M.nrows, M.ncols) != (self.ranks[k - 1], self.ranks[k]):
                raise HomologyError(f"boundary {k} has wrong shape")
        for k in range(2, self.top_degree + 1):
            if not self.boundary(k - 1).product_is_zero(self.boundary(k)):
                raise HomologyError(f"d o d != 0 between degrees {k} and {k - 2}")

    def boundary(self, k: int) -> SparseIntMatrix:
        if k in self.boundaries:
            return self.boundaries[k]
        nrows = self.ranks[k - 1] if 0 <= k - 1 <= self.top_degree else 0
        ncols = self.ranks[k] if 0 <= k <= self.top_degree else 0
        return SparseIntMatrix.zeros(nrows, ncols)


def normalized_chains(S, with_labels: bool = True) -> ChainComplexZ:
    """Normalized chains: generators are the nondegenerate cells.

    ``S`` is a :class:`NondegenerateComplex` or anything with a
    ``nondegenerate_form()`` (a :class:`TruncatedSimplicialSet`).  The
    boundary is the alternating face sum, with faces that land on
    degenerate cells contributing zero.
    """
    F = S.nondegenerate_form()
    boundaries = {}
    for k in range(1, F.truncation + 1):
        if F.ranks[k] == 0 or F.ranks[k - 1] == 0:
            continue
        rows = F.faces[k].ravel()
        cols = np.repeat(np.arange(F.ranks[k], dtype=np.int64), k + 1)
        signs = np.tile(1 - 2 * (np.arange(k + 1, dtype=np.int64) % 2), F.ranks[k])
        keep = rows >= 0
        boundaries[k] = SparseIntMatrix.from_arrays(F.ranks[k - 1], F.ranks[k], rows[keep],
                                                    cols[keep], signs[keep])

    labels = None
    if with_labels:
        labels = [tuple(F.payload(k, i) for i in range(F.ranks[k]))
                  for k in range(F.truncation + 1)]
    return ChainComplexZ(F.ranks, boundaries, labels=labels, truncated=True)


# ----------------------------------------------------------------------
# homology groups
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyResult:
    groups: tuple[HomologyGroup, ...]
    unreliable: frozenset[int]
    mod: int | None = None

    def group(self, degree: int) -> HomologyGroup:
        if 0 <= degree < len(self.groups):
            return self.groups[degree]
        return HomologyGroup(degree, 0)

    def __iter__(self):
        return iter(self.groups)


class _Incidence:
    """A boundary's entries by row and by column, with the number of live
    rows in each column; ``live`` marks the live rows at the start."""

    def __init__(self, M: SparseIntMatrix, live: np.ndarray):
        rows, self.row_cols, self.row_vals = M.arrays
        self.row_ptr = np.searchsorted(rows, np.arange(M.nrows + 1))
        self.col_ptr, self.col_rows, self.col_vals = M.column_major()
        self.live = np.bincount(self.row_cols[live[rows]], minlength=M.ncols)

    def kill_rows(self, dead: np.ndarray) -> np.ndarray:
        """Take the rows ``dead`` out of the live counts; returns the column
        of each of their entries."""
        hit = self.row_cols[_segments(self.row_ptr, dead)]
        np.subtract.at(self.live, hit, 1)
        return hit


def _pull(d: _Incidence, images: dict, has_image: np.ndarray,
          cells: np.ndarray) -> dict[int, dict[int, int]]:
    """phi o d on the columns ``cells`` of d, by the images set so far:
    ``{i: {critical cell: value}}`` for the i-th of cells."""
    lengths = d.col_ptr[cells + 1] - d.col_ptr[cells]
    pos = _ranges(d.col_ptr[cells], lengths)
    rows = d.col_rows[pos]
    keep = has_image[rows]
    out: dict[int, dict[int, int]] = {}
    for i, y, v in zip(np.repeat(np.arange(len(cells)), lengths)[keep].tolist(),
                       rows[keep].tolist(), d.col_vals[pos[keep]].tolist()):
        acc = out.setdefault(i, {})
        for x, w in images[y].items():
            acc[x] = acc.get(x, 0) + v * w
    return out


def _coreduce(C: ChainComplexZ) -> tuple[list[np.ndarray], dict, dict, list[dict]]:
    """The critical cells of C, its Morse boundaries on them, the pairs,
    and phi on the cells of each degree.

    A live k-cell whose live boundary is a single +-1 on a (k-1)-cell is
    paired with it (see the module docstring).  The degrees are swept from
    1 up, each in rounds: every face is paired with the least candidate
    cell on it, and only columns whose live count a round brings down to 1
    are candidates in the next.  When no candidate is left, the least live
    (k-1)-cell becomes critical, and the columns on it lose a live row; a
    (k-1)-cell on no k-cell is made critical at the start, which gives the
    same result.  When no (k-1)-cell is live, the sweep goes up a degree;
    the live top cells become critical at the end.

    ``critical[k]`` marks the critical k-cells, and ``morse[k]`` is the
    Morse boundary on them in C's numbering.  ``pairs[k]`` lists (cells,
    faces, entries) of the pairs of d_k round by round, then gives d_k's
    rows as CSR arrays (row_ptr, columns, values).  ``images[k]`` holds
    phi_k on the k-cells whose image is not 0, as ``{cell: {critical cell:
    value}}``: 1 on itself for a critical cell, and -lam^-1 times the
    critical part of a's column for the face b of a pair (b, a, lam).  The
    values of C's matrices are int64 or Python ints alike; the images are
    Python ints.
    """
    top = C.top_degree
    alive = [np.ones(n, dtype=bool) for n in C.ranks]
    critical = [np.zeros(n, dtype=bool) for n in C.ranks]
    has_image = [np.zeros(n, dtype=bool) for n in C.ranks]
    images: list[dict[int, dict[int, int]]] = [{} for _ in C.ranks]

    def set_aside(j: int, cells: list[int]) -> None:
        alive[j][cells] = False
        critical[j][cells] = has_image[j][cells] = True
        images[j].update((x, {x: 1}) for x in cells)

    d = [None]
    pairs = {}
    for k in range(1, top + 1):
        # the pairs of d_(k-1) took their cells out of d_k's live rows
        d.append(_Incidence(C.boundary(k), alive[k - 1]))
        dk, faces_alive, image, taken = d[k], alive[k - 1], images[k - 1], []
        set_aside(k - 1, np.flatnonzero(faces_alive & (np.diff(dk.row_ptr) == 0)).tolist())
        low = 0   # no (k-1)-cell below it is live
        candidates = np.flatnonzero(alive[k] & (dk.live == 1))
        while True:
            if not candidates.size:
                # every live (k-1)-cell has an empty live boundary by now
                if low < len(faces_alive):
                    low += int(faces_alive[low:].argmax())
                if low == len(faces_alive) or not faces_alive[low]:
                    break
                set_aside(k - 1, [low])
                hit = dk.kill_rows(np.array([low]))
                candidates = hit[(dk.live[hit] == 1) & alive[k][hit]]
                continue
            pos = _segments(dk.col_ptr, candidates)
            rows = dk.col_rows[pos]
            # each candidate's one live entry, in candidate order
            live = pos[faces_alive[rows]]
            unit = (np.abs(dk.col_vals[live]) == 1).nonzero()[0]
            faces = dk.col_rows[live[unit]]
            order = np.lexsort((candidates[unit], faces))
            faces = faces[order]
            first = np.ones(len(faces), dtype=bool)
            first[1:] = faces[1:] != faces[:-1]
            pick = unit[order[first]]
            cells, faces, lams = candidates[pick], faces[first], dk.col_vals[live[pick]]
            if has_image[k - 1][rows].any():
                # the face b of (b, a, lam) maps to -lam^-1 = -lam times a's critical part
                for i, part in _pull(dk, image, has_image[k - 1], cells).items():
                    lam = int(lams[i])
                    if part := {x: -lam * v for x, v in part.items() if v}:
                        image[int(faces[i])] = part
                        has_image[k - 1][faces[i]] = True
            taken.append((cells, faces, lams))
            alive[k][cells] = False
            faces_alive[faces] = False
            hit = dk.kill_rows(faces)
            candidates = hit[(dk.live[hit] == 1) & alive[k][hit]]
        pairs[k] = (taken, dk.row_ptr, dk.row_cols, dk.row_vals)
    set_aside(top, np.flatnonzero(alive[top]).tolist())
    morse = {}
    for k in range(1, top + 1):
        cells = np.flatnonzero(critical[k])
        columns = _pull(d[k], images[k - 1], has_image[k - 1], cells)
        morse[k] = SparseIntMatrix(C.ranks[k - 1], C.ranks[k], [
            (x, int(cells[i]), v) for i, column in columns.items() for x, v in column.items()])
    return critical, morse, pairs, images


def _reduction(C: ChainComplexZ, p: int | None = None, log: bool = False):
    """The residual of C: its Morse complex on the critical cells of
    :func:`_coreduce`, reduced by its unit pivots (see the module
    docstring).

    Each Morse boundary, from the top down, over Z or as residues mod p, is
    reduced by :func:`_reduce` on the critical cells that the pivots above
    left.  Returns ``(residual, log)``; ``log`` is None unless asked for,
    and then holds what phi and psi need, ``(index, pairs, units, images)``:
    the residual generator of each cell left in each degree, the pairs and
    the images of :func:`_coreduce`, and the unit pivots of each Morse
    boundary as :func:`_reduce` logs them.
    """
    alive, morse, pairs, images = _coreduce(C)
    left, units = {}, {}
    for k in range(C.top_degree, 0, -1):
        work = _work(morse[k], p, alive[k - 1], alive[k])
        units[k] = _reduce(work, p, log)
        left[k] = work.entries()
        for r, c, *_ in units[k]:
            alive[k - 1][r] = alive[k][c] = False
    index = [{g: i for i, g in enumerate(np.flatnonzero(a).tolist())} for a in alive]
    residual = ChainComplexZ([len(i) for i in index], {
        k: SparseIntMatrix(len(index[k - 1]), len(index[k]), [
            (index[k - 1][r], index[k][c], v) for r, c, v in entries if r in index[k - 1]])
        for k, entries in left.items()}, truncated=C.truncated)
    return residual, ((index, pairs, units, images) if log else None)


def homology(C: ChainComplexZ, mod: int | None = None) -> HomologyResult:
    """Homology groups of a complex over Z (default) or F_p (``mod=p``).

    :func:`_reduction` shrinks C to its residual (see the module
    docstring).  The rank and torsion of each residual boundary come from
    :func:`invariant_factors`; over F_p the residual boundaries vanish.
    The top degree of a truncated complex is flagged unreliable unless its
    chain group vanishes.
    """
    if mod is not None:
        _check_modulus(mod)
    top = C.top_degree
    R, _ = _reduction(C, mod)
    ranks, factors = {}, {}
    for k, M in R.boundaries.items():
        ranks[k], diag = invariant_factors(M)
        factors[k] = tuple(d for d in diag if d > 1)
    groups = [HomologyGroup(k, R.ranks[k] - ranks.get(k, 0) - ranks.get(k + 1, 0),
                            factors.get(k + 1, ()))
              for k in range(top + 1)]
    unreliable = frozenset({top} if (C.truncated and C.ranks[top] > 0) else set())
    return HomologyResult(tuple(groups), unreliable, mod)


def homology_of_sset(S, mod: int | None = None) -> HomologyResult:
    return homology(normalized_chains(S, with_labels=False), mod=mod)


def euler_characteristic(C: ChainComplexZ) -> int:
    """Alternating sum of chain ranks (equals the alternating Betti sum)."""
    return sum((-1) ** k * n for k, n in enumerate(C.ranks))


def universal_coefficients_consistent(z_result: HomologyResult,
                                      p_result: HomologyResult, p: int) -> bool:
    """dim H_k(F_p) must equal betti_k + p-torsion in degrees k and k-1."""
    top = len(z_result.groups) - 1
    for k in range(top + 1):
        zk = z_result.group(k)
        prev = z_result.group(k - 1) if k else HomologyGroup(-1, 0)
        expect = (zk.betti + sum(1 for t in zk.torsion if t % p == 0)
                  + sum(1 for t in prev.torsion if t % p == 0))
        if p_result.group(k).betti != expect:
            return False
    return True


# ----------------------------------------------------------------------
# homology coordinates and induced maps
# ----------------------------------------------------------------------

class _DegreeData:
    __slots__ = ("z", "r", "snf_bnd", "pres", "kept", "moduli", "betti", "signs", "cycles")


class HomologyCoordinates:
    """SNF-derived coordinate systems on the homology of a complex.

    Expresses cycles in a fixed basis of each homology group (torsion
    coordinates are reported modulo their order), and produces cycle
    representatives for the chosen generators.  The complex is reduced
    once, by :func:`_reduction` as for :func:`homology`; ``residual`` is
    the reduced complex, on whose boundaries alone the Smith forms run, and
    cycles cross the reduction by the chain equivalences phi and psi of the
    module docstring.  Each free generator's cycle is positive on its least
    cell.
    """

    def __init__(self, C: ChainComplexZ):
        self.complex = C
        self.residual, log = _reduction(C, log=True)
        self._index, self._pairs, self._units, self._images = log
        self._data: dict[int, _DegreeData] = {}

    def _degree(self, k: int) -> _DegreeData:
        if k in self._data:
            return self._data[k]
        R = self.residual
        n_k = R.ranks[k] if 0 <= k <= R.top_degree else 0
        data = _DegreeData()
        data.snf_bnd = smith_normal_form(R.boundary(k), transforms="right")
        data.r = data.snf_bnd.rank
        data.z = n_k - data.r
        # present H_k as Z^z / image of the next boundary, in kernel coordinates
        bnd_next = R.boundary(k + 1)
        rows, cols, vals = data.snf_bnd.V_inv.matmul(bnd_next).arrays
        if (rows < data.r).any():
            raise HomologyError("boundaries are not cycles; complex is inconsistent")
        X = SparseIntMatrix.from_arrays(data.z, bnd_next.ncols, rows - data.r, cols, vals)
        data.pres = smith_normal_form(X, transforms="left")
        diag = data.pres.diagonal
        kept = [i for i, d in enumerate(diag) if d > 1]
        data.kept = kept + list(range(data.pres.rank, data.z))
        data.betti = len(data.kept) - len(kept)
        data.moduli = tuple([diag[i] for i in kept] + [0] * data.betti)
        cycles = [self._lift(k, data, pos) for pos in data.kept]
        data.signs = [-1 if m == 0 and z[min(z)] < 0 else 1 for z, m in zip(cycles, data.moduli)]
        data.cycles = [{g: s * v for g, v in z.items()} for z, s in zip(cycles, data.signs)]
        self._data[k] = data
        return data

    def _lift(self, k: int, data: _DegreeData, pos: int) -> dict[int, int]:
        """The cycle of C for the generator at ``pos`` of the presentation
        of H_k of the residual."""
        z = data.snf_bnd.V.matvec({data.r + r: v for r, v in
                                   data.pres.U_inv.columns().get(pos, ())})
        kept = list(self._index[k])
        z = {kept[g]: v for g, v in z.items()}
        # psi_k: back across the unit pivots of d_k, last first
        for _, c, lam, _, row in reversed(self._units.get(k, ())):
            t = -lam * sum(v * z.get(x, 0) for x, v in row.items() if x != c)
            if t:
                z[c] = t
        if k in self._pairs:
            # then across the coreductions, a round at a time, last first;
            # the pairs of one round read no cell of another pair of it
            rounds, ptr, cols, vals = self._pairs[k]
            dense = np.zeros(self.complex.ranks[k], dtype=object)
            dense[list(z)] = list(z.values())
            for cells, faces, lams in reversed(rounds):
                at = _segments(ptr, faces)
                lengths = ptr[faces + 1] - ptr[faces]
                sums = np.add.reduceat(vals[at] * dense[cols[at]], np.cumsum(lengths) - lengths)
                dense[cells] = -lams * sums
            cells = np.flatnonzero(dense)
            z = dict(zip(cells.tolist(), dense[cells].tolist()))
        return z

    def generator_count(self, k: int) -> int:
        return len(self._degree(k).kept)

    def moduli(self, k: int) -> tuple[int, ...]:
        """Order of each generator (0 for free generators)."""
        return self._degree(k).moduli

    def group(self, k: int) -> HomologyGroup:
        data = self._degree(k)
        return HomologyGroup(k, data.betti, tuple(m for m in data.moduli if m))

    def generator_cycle(self, k: int, j: int) -> dict[int, int]:
        """A cycle vector representing the j-th homology generator."""
        return dict(self._degree(k).cycles[j])

    def coords_of_cycle(self, k: int, vec: dict[int, int]) -> tuple[int, ...]:
        """Coordinates of a cycle in the homology basis at degree k; a
        generator index outside C_k raises HomologyError."""
        n_k = self.complex.ranks[k] if 0 <= k <= self.complex.top_degree else 0
        if self.complex.boundary(k).matvec(vec):
            raise HomologyError("vector is not a cycle")
        data = self._degree(k)
        # phi_k: onto the critical cells, forward across the unit pivots of
        # the Morse d_(k+1), then onto the residual
        v: dict[int, int] = {}
        for y, a in vec.items():
            for x, w in self._images[k].get(y, {}).items():
                v[x] = v.get(x, 0) + a * w
        for r, _, lam, col, _ in self._units.get(k + 1, ()):
            t = v.pop(r, 0) * lam
            if t:
                for x, a in col.items():
                    if x == r:
                        continue
                    acc = v.get(x, 0) - a * t
                    if acc:
                        v[x] = acc
                    else:
                        v.pop(x, None)
        index = self._index[k] if n_k else {}
        w = data.snf_bnd.V_inv.matvec({index[g]: a for g, a in v.items() if g in index})
        y = data.pres.U.matvec({r - data.r: a for r, a in w.items() if r >= data.r})
        return tuple(s * y.get(pos, 0) % m if m else s * y.get(pos, 0)
                     for pos, m, s in zip(data.kept, data.moduli, data.signs))


def chain_map_matrices(f) -> dict[int, SparseIntMatrix]:
    """Normalized chain map of a simplicial map.

    ``f`` is a :class:`NondegenerateMap` or anything with a
    ``nondegenerate_form()``.  A nondegenerate source
    cell maps to its image when that image is nondegenerate and to zero
    otherwise.
    """
    F = f.nondegenerate_form()
    out = {}
    for k, images in enumerate(F.assignment):
        keep = images >= 0
        out[k] = SparseIntMatrix.from_arrays(
            F.target.ranks[k], F.source.ranks[k], images[keep],
            np.flatnonzero(keep), np.ones(int(keep.sum()), dtype=np.int64))
    return out


def check_map_degree(f, degree: int) -> None:
    """Raise HomologyError unless ``degree`` is in 0..truncation of f's source."""
    if not 0 <= degree <= f.source.truncation:
        raise HomologyError(f"degree {degree} out of the source's range "
                            f"0..{f.source.truncation}")


def induced_map(f, degree: int, src_coords: HomologyCoordinates,
                dst_coords: HomologyCoordinates) -> list[list[int]]:
    """Matrix of f_* on homology in the SNF-derived bases of the chains of
    f's source and target.

    Rows index target generators, columns source generators; entries are
    reduced modulo the target torsion orders.  A degree outside
    0..truncation of the source raises HomologyError before any work.
    """
    check_map_degree(f, degree)
    F = chain_map_matrices(f)[degree]
    return induced_matrix_from_chain_map(F, degree, src_coords, dst_coords)


def induced_matrix_from_chain_map(F: SparseIntMatrix, degree: int,
                                  src_coords: HomologyCoordinates,
                                  dst_coords: HomologyCoordinates) -> list[list[int]]:
    n_src = src_coords.generator_count(degree)
    n_dst = dst_coords.generator_count(degree)
    matrix = [[0] * n_src for _ in range(n_dst)]
    for j in range(n_src):
        cycle = src_coords.generator_cycle(degree, j)
        image = F.matvec(cycle)
        for i, v in enumerate(dst_coords.coords_of_cycle(degree, image)):
            matrix[i][j] = v
    return matrix
