"""Exact homology of chain complexes over Z and F_p.

The integer path runs entirely on arbitrary-precision Python ints: sparse
Smith normal form with unimodular transforms (and their inverses) yields
Betti numbers, torsion coefficients, homology coordinate systems, and
induced maps.

One elimination kernel, ``_eliminate``, serves every mode: invariant
factors, Smith form with any choice of tracked transforms, and ranks over
F_p.  Almost every pivot of a simplicial boundary matrix is a unit, so the
kernel takes pivots from a lazy min-heap of columns keyed by occupancy:
the shortest column that holds a unit (+-1 over Z, anything nonzero over
F_p), at its entry in the shortest row.  Only when no queued column holds
a unit does a Markowitz scan of every remaining entry pick the pivot; by
then it sees only the small non-unit residual, where gcd steps may create
new units for the queue.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .simplicial import SSetMap, TruncatedSimplicialSet


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

class SparseIntMatrix:
    """Immutable sparse matrix with arbitrary-precision integer entries."""

    __slots__ = ("nrows", "ncols", "entries", "_cols", "_rows")

    def __init__(self, nrows: int, ncols: int, entries=()):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        cleaned: dict[tuple[int, int], int] = {}
        for r, c, v in entries:
            if not 0 <= r < self.nrows or not 0 <= c < self.ncols:
                raise HomologyError(f"entry ({r},{c}) out of range")
            v = int(v)
            if v:
                key = (int(r), int(c))
                v = cleaned.get(key, 0) + v
                if v:
                    cleaned[key] = v
                else:
                    del cleaned[key]
        self.entries = tuple(sorted((r, c, v) for (r, c), v in cleaned.items()))
        self._cols = None
        self._rows = None

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
        return len(self.entries)

    def columns(self) -> dict[int, list[tuple[int, int]]]:
        if self._cols is None:
            cols: dict[int, list[tuple[int, int]]] = {}
            for r, c, v in self.entries:
                cols.setdefault(c, []).append((r, v))
            self._cols = cols
        return self._cols

    def rows(self) -> dict[int, list[tuple[int, int]]]:
        if self._rows is None:
            rows: dict[int, list[tuple[int, int]]] = {}
            for r, c, v in self.entries:
                rows.setdefault(r, []).append((c, v))
            self._rows = rows
        return self._rows

    def matvec(self, vec: dict[int, int]) -> dict[int, int]:
        cols = self.columns()
        out: dict[int, int] = {}
        for c, x in vec.items():
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

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(self.ncols, self.nrows,
                               [(c, r, v) for r, c, v in self.entries])

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------

class _Work:
    """Mutable dict-of-rows sparse matrix with a column occupancy index."""

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

    def row_add(self, dest, src, q):
        if not q:
            return
        for c, v in list(self.rows.get(src, {}).items()):
            self._set(dest, c, self.get(dest, c) + q * v)

    def col_add(self, dest, src, q):
        if not q:
            return
        for r in list(self.cols.get(src, set())):
            self._set(r, dest, self.get(r, dest) + q * self.rows[r][src])

    def row_swap(self, i, j):
        if i == j:
            return
        ri, rj = self.rows.pop(i, {}), self.rows.pop(j, {})
        for c in ri:
            self.cols[c].discard(i)
        for c in rj:
            self.cols[c].discard(j)
        if rj:
            self.rows[i] = rj
            for c in rj:
                self.cols[c].add(i)
        if ri:
            self.rows[j] = ri
            for c in ri:
                self.cols[c].add(j)

    def col_swap(self, i, j):
        if i == j:
            return
        touched = self.cols.get(i, set()) | self.cols.get(j, set())
        for r in list(touched):
            row = self.rows.get(r, {})
            vi, vj = row.get(i, 0), row.get(j, 0)
            self._set(r, i, vj)
            self._set(r, j, vi)

    def row_combine(self, i, j, x, y, z, w):
        """rows (i, j) <- (x*ri + y*rj, z*ri + w*rj); det must be +-1."""
        ri, rj = dict(self.rows.get(i, {})), dict(self.rows.get(j, {}))
        for c in set(ri) | set(rj):
            a, b = ri.get(c, 0), rj.get(c, 0)
            self._set(i, c, x * a + y * b)
            self._set(j, c, z * a + w * b)

    def col_combine(self, i, j, x, y, z, w):
        """cols (i, j) <- (x*ci + y*cj, z*ci + w*cj); det must be +-1."""
        touched = self.cols.get(i, set()) | self.cols.get(j, set())
        for r in list(touched):
            row = self.rows.get(r, {})
            a, b = row.get(i, 0), row.get(j, 0)
            self._set(r, i, x * a + y * b)
            self._set(r, j, z * a + w * b)

    def row_negate(self, i):
        for c, v in list(self.rows.get(i, {}).items()):
            self.rows[i][c] = -v

    def col_negate(self, i):
        for r in list(self.cols.get(i, set())):
            self.rows[r][i] = -self.rows[r][i]

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
        if self.U is None:
            return False
        left = self.U.matmul(self.U_inv) == SparseIntMatrix.identity(self.nrows)
        right = self.V.matmul(self.V_inv) == SparseIntMatrix.identity(self.ncols)
        return left and right


class _Transforms:
    """U, V and their inverses updated alongside row/column operations.

    ``track`` is "both", "left" (row transforms only), "right" (column
    transforms only) or False.
    """

    def __init__(self, nrows, ncols, track):
        self.left = track in (True, "both", "left")
        self.right = track in (True, "both", "right")
        if self.left:
            eye_r = [(i, i, 1) for i in range(nrows)]
            self.U = _Work(eye_r, nrows, nrows)
            self.Uinv = _Work(list(eye_r), nrows, nrows)
        if self.right:
            eye_c = [(i, i, 1) for i in range(ncols)]
            self.V = _Work(eye_c, ncols, ncols)
            self.Vinv = _Work(list(eye_c), ncols, ncols)

    def row_add(self, dest, src, q):
        if self.left:
            self.U.row_add(dest, src, q)
            self.Uinv.col_add(src, dest, -q)

    def col_add(self, dest, src, q):
        if self.right:
            self.V.col_add(dest, src, q)
            self.Vinv.row_add(src, dest, -q)

    def row_swap(self, i, j):
        if self.left:
            self.U.row_swap(i, j)
            self.Uinv.col_swap(i, j)

    def col_swap(self, i, j):
        if self.right:
            self.V.col_swap(i, j)
            self.Vinv.row_swap(i, j)

    def row_combine(self, i, j, x, y, z, w):
        if self.left:
            self.U.row_combine(i, j, x, y, z, w)
            self.Uinv.col_combine(i, j, w, -z, -y, x)

    def col_combine(self, i, j, x, y, z, w):
        if self.right:
            self.V.col_combine(i, j, x, y, z, w)
            self.Vinv.row_combine(i, j, w, -z, -y, x)

    def row_negate(self, i):
        if self.left:
            self.U.row_negate(i)
            self.Uinv.col_negate(i)


def _pick_pivot(work: _Work, done_rows: set[int], done_cols: set[int]):
    """Markowitz scan of every entry: a unit of least fill-in, else the least entry."""
    best = None
    best_key = None
    for r, row in work.rows.items():
        if r in done_rows or not row:
            continue
        rlen = len(row)
        for c, v in row.items():
            if c in done_cols:
                continue
            cost = (rlen - 1) * (len(work.cols[c]) - 1)
            key = (abs(v) != 1, abs(v), cost, r, c)
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
                if key[0] is False and cost == 0:
                    return best
    return best


def _eliminate_at(work: _Work, tr: _Transforms, r: int, c: int) -> int:
    """Clear row r and column c down to the single pivot entry."""
    while True:
        a = work.get(r, c)
        col_rows = [rr for rr in work.cols.get(c, set()) if rr != r]
        for rr in col_rows:
            b = work.get(rr, c)
            if not b:
                continue
            if b % a == 0:
                q = -(b // a)
                work.row_add(rr, r, q)
                tr.row_add(rr, r, q)
            else:
                g, x, y = _xgcd(a, b)
                work.row_combine(r, rr, x, y, -(b // g), a // g)
                tr.row_combine(r, rr, x, y, -(b // g), a // g)
                a = g
        row_cols = [cc for cc in work.rows.get(r, {}) if cc != c]
        if not row_cols:
            if all(work.get(rr, c) == 0 for rr in list(work.cols.get(c, set())) if rr != r):
                return a
            continue
        for cc in row_cols:
            b = work.get(r, cc)
            if not b:
                continue
            if b % a == 0:
                q = -(b // a)
                work.col_add(cc, c, q)
                tr.col_add(cc, c, q)
            else:
                g, x, y = _xgcd(a, b)
                work.col_combine(c, cc, x, y, -(b // g), a // g)
                tr.col_combine(c, cc, x, y, -(b // g), a // g)
                a = g


class _PivotQueue:
    """Lazy min-heap of columns keyed by occupancy ``(len(work.cols[c]), c)``.

    Entries go stale as elimination changes a column; a popped entry whose
    length no longer matches is re-pushed with the current length.  A
    column without a unit entry is dropped until a pivot touches it again.
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

    def pop(self, done_cols: set[int]):
        """The shortest column holding a unit, at its unit in the shortest row.

        Returns the pivot (r, c), or None once no queued column holds a unit.
        """
        heap, work, is_unit = self.heap, self.work, self.is_unit
        while heap:
            n, c = heapq.heappop(heap)
            if c in done_cols:
                continue
            col = work.cols[c]
            if len(col) != n:
                self.push((c,))
                continue
            best = None
            for r in col:
                row = work.rows[r]
                if is_unit(row[c]) and (best is None or (len(row), r) < best):
                    best = (len(row), r)
            if best is not None:
                return best[1], c
        return None


def _eliminate(work: _Work, is_unit, clear) -> list[tuple[int, int, int]]:
    """The elimination kernel: pivot until no entry is left outside done lines.

    Unit pivots come from a :class:`_PivotQueue`; only once it is empty does
    the full Markowitz scan ``_pick_pivot`` look at the non-unit residual.
    ``clear(r, c)`` eliminates around the pivot, leaving no entry of row r
    or column c in any other undone line, and returns the pivot value.
    Returns the pivots ``(r, c, d)`` in discovery order.
    """
    queue = _PivotQueue(work, is_unit)
    done_rows: set[int] = set()
    done_cols: set[int] = set()
    pivots = []
    while True:
        pick = queue.pop(done_cols)
        queued = pick is not None
        if not queued:
            pick = _pick_pivot(work, done_rows, done_cols)
            if pick is None:
                return pivots
        r, c = pick
        touched = list(work.rows[r])
        pivots.append((r, c, clear(r, c)))
        done_rows.add(r)
        done_cols.add(c)
        if queued:
            # a unit pivot changes only the columns of its row
            queue.push(touched)
        else:
            # gcd steps can change any column of the residual
            queue.push(cc for cc in work.cols if cc not in done_cols)


def _unit_z(v: int) -> bool:
    return v == 1 or v == -1


def _snf_core(M: SparseIntMatrix, track: bool) -> SmithNormalForm:
    work = _Work(M.entries, M.nrows, M.ncols)
    tr = _Transforms(M.nrows, M.ncols, track)
    pivots = _eliminate(work, _unit_z, lambda r, c: _eliminate_at(work, tr, r, c))

    # move pivots onto the diagonal in discovery order
    k = len(pivots)
    prow = [r for r, _, _ in pivots]
    pcol = [c for _, c, _ in pivots]
    at_row = {r: t for t, r in enumerate(prow)}
    at_col = {c: t for t, c in enumerate(pcol)}
    for t in range(k):
        r, c = prow[t], pcol[t]
        del at_row[r], at_col[c]
        if r != t:
            work.row_swap(r, t)
            tr.row_swap(r, t)
            u = at_row.pop(t, None)
            if u is not None:
                prow[u] = r
                at_row[r] = u
        if c != t:
            work.col_swap(c, t)
            tr.col_swap(c, t)
            u = at_col.pop(t, None)
            if u is not None:
                pcol[u] = c
                at_col[c] = u

    # enforce the divisibility chain d_1 | d_2 | ...
    changed = True
    while changed:
        changed = False
        for t in range(k - 1):
            a = work.get(t, t)
            b = work.get(t + 1, t + 1)
            if a and b % a != 0:
                work.col_add(t, t + 1, 1)
                tr.col_add(t, t + 1, 1)
                _eliminate_at(work, tr, t, t)
                changed = True

    diagonal = []
    for t in range(k):
        d = work.get(t, t)
        if d < 0:
            work.row_negate(t)
            tr.row_negate(t)
            d = -d
        diagonal.append(d)

    result = SmithNormalForm(M.nrows, M.ncols, tuple(diagonal))
    if tr.left:
        result.U = SparseIntMatrix(M.nrows, M.nrows, tr.U.entries())
        result.U_inv = SparseIntMatrix(M.nrows, M.nrows, tr.Uinv.entries())
    if tr.right:
        result.V = SparseIntMatrix(M.ncols, M.ncols, tr.V.entries())
        result.V_inv = SparseIntMatrix(M.ncols, M.ncols, tr.Vinv.entries())
    return result


def smith_normal_form(M: SparseIntMatrix, transforms: bool | str = True,
                      verify: bool | str = "auto") -> SmithNormalForm:
    """Smith normal form with unimodular transforms ``U * M * V = D``.

    ``transforms`` may be True/"both", "left", "right", or False to skip
    tracking.  ``verify`` re-multiplies the certificate exactly (needs both
    transforms); with ``"auto"`` the check is exhaustive for small matrices
    and sampled on a deterministic column subset for large ones.
    """
    result = _snf_core(M, transforms)
    if transforms in (True, "both") and verify:
        full = verify is True or max(M.nrows, M.ncols) <= 400
        _check_certificate(M, result, full)
    return result


def invariant_factors(M: SparseIntMatrix) -> tuple[int, tuple[int, ...]]:
    """(rank, full diagonal) without transform tracking; fast path."""
    result = _snf_core(M, track=False)
    return result.rank, result.diagonal


def _check_certificate(M: SparseIntMatrix, snf: SmithNormalForm, full: bool) -> None:
    D = snf.diagonal_matrix()
    if full:
        if snf.U.matmul(M).matmul(snf.V) != D:
            raise HomologyError("SNF certificate failed: U*M*V != D")
        return
    cols = list(range(M.ncols))
    sample = cols[:: max(1, len(cols) // 32)] if cols else []
    vcols = snf.V.columns()
    dcols = D.columns()
    for j in sample:
        vec = {r: v for r, v in vcols.get(j, ())}
        got = snf.U.matvec(M.matvec(vec))
        want = {r: v for r, v in dcols.get(j, ())}
        if got != want:
            raise HomologyError("SNF certificate failed on sampled column")


def is_prime(p: int) -> bool:
    """Trial division; moduli are small."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def rank_mod_p(M: SparseIntMatrix, p: int) -> int:
    """Rank of M over the prime field F_p by sparse elimination."""
    if not is_prime(p):
        raise HomologyError(f"modulus {p} is not a prime")
    work = _Work([(r, c, v % p) for r, c, v in M.entries if v % p], M.nrows, M.ncols)

    def clear(r, c):
        # clear column c in the other rows, then drop the pivot row: the rank
        # needs no back-substitution, and no done row stays in a column
        pivot_row = work.rows.pop(r)
        for cc in pivot_row:
            work.cols[cc].discard(r)
        inv = pow(pivot_row[c], -1, p)
        for rr in list(work.cols[c]):
            q = -work.rows[rr][c] * inv
            for cc, v in pivot_row.items():
                work._set(rr, cc, (work.get(rr, cc) + q * v) % p)
        return 1

    # every stored entry is nonzero, hence a unit of F_p
    return len(_eliminate(work, bool, clear))


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

    def __init__(self, ranks, boundaries, labels=None, truncated=False, check=True):
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
        if check:
            for k in range(2, self.top_degree + 1):
                if not self.boundary(k - 1).matmul(self.boundary(k)).is_zero():
                    raise HomologyError(f"d o d != 0 between degrees {k} and {k - 2}")

    def boundary(self, k: int) -> SparseIntMatrix:
        if k in self.boundaries:
            return self.boundaries[k]
        nrows = self.ranks[k - 1] if 0 <= k - 1 <= self.top_degree else 0
        ncols = self.ranks[k] if 0 <= k <= self.top_degree else 0
        return SparseIntMatrix.zeros(nrows, ncols)

    def label(self, degree: int, index: int):
        if self.labels is None:
            return index
        return self.labels[degree][index]


def normalized_chains(S: TruncatedSimplicialSet, with_labels: bool = True) -> ChainComplexZ:
    """Normalized chains: generators are the nondegenerate cells.

    The boundary is the alternating face sum, with faces that land on
    degenerate cells contributing zero.
    """
    D = S.truncation
    pos: list[np.ndarray] = []
    ranks: list[int] = []
    for k in range(D + 1):
        mask = S.nondegenerate(k)
        p = np.full(S.counts[k], -1, dtype=np.int64)
        p[mask] = np.arange(int(mask.sum()), dtype=np.int64)
        pos.append(p)
        ranks.append(int(mask.sum()))

    boundaries = {}
    for k in range(1, D + 1):
        if ranks[k] == 0 or ranks[k - 1] == 0:
            continue
        nd = np.nonzero(S.nondegenerate(k))[0]
        entries = []
        fk = S.faces[k][nd]
        for i in range(k + 1):
            rows = pos[k - 1][fk[:, i]]
            keep = rows >= 0
            sign = -1 if i % 2 else 1
            cols = np.arange(len(nd), dtype=np.int64)[keep]
            entries.extend(zip(rows[keep].tolist(), cols.tolist(),
                               [sign] * int(keep.sum())))
        boundaries[k] = SparseIntMatrix(ranks[k - 1], ranks[k], entries)

    labels = None
    if with_labels:
        labels = [tuple(S.payload(k, int(i)) for i in np.nonzero(S.nondegenerate(k))[0])
                  for k in range(D + 1)]
    return ChainComplexZ(ranks, boundaries, labels=labels, truncated=True)


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


def homology(C: ChainComplexZ, mod: int | None = None) -> HomologyResult:
    """Homology groups of a complex over Z (default) or F_p (``mod=p``).

    Over Z the ranks and invariant factors come from Smith normal forms of
    consecutive boundaries; over F_p from mod-p elimination.  The top
    degree of a truncated complex is flagged unreliable unless its chain
    group vanishes.
    """
    top = C.top_degree
    if mod is None:
        ranks = {}
        factors = {}
        for k in range(1, top + 1):
            r, diag = invariant_factors(C.boundary(k))
            ranks[k] = r
            factors[k] = tuple(d for d in diag if d > 1)
        groups = []
        for k in range(top + 1):
            betti = C.ranks[k] - ranks.get(k, 0) - ranks.get(k + 1, 0)
            groups.append(HomologyGroup(k, betti, factors.get(k + 1, ())))
    else:
        ranks = {k: rank_mod_p(C.boundary(k), mod) for k in range(1, top + 1)}
        groups = [HomologyGroup(k, C.ranks[k] - ranks.get(k, 0) - ranks.get(k + 1, 0))
                  for k in range(top + 1)]
    unreliable = frozenset({top} if (C.truncated and C.ranks[top] > 0) else set())
    return HomologyResult(tuple(groups), unreliable, mod)


def homology_of_sset(S: TruncatedSimplicialSet, mod: int | None = None) -> HomologyResult:
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
    __slots__ = ("z", "r", "snf_bnd", "pres", "kept", "moduli", "betti")


class HomologyCoordinates:
    """SNF-derived coordinate systems on the homology of a complex.

    Expresses cycles in a fixed basis of each homology group (torsion
    coordinates are reported modulo their order), and produces cycle
    representatives for the chosen generators.  Intended for the small
    complexes on which induced maps are computed.
    """

    def __init__(self, C: ChainComplexZ):
        self.complex = C
        self._data: dict[int, _DegreeData] = {}

    def _degree(self, k: int) -> _DegreeData:
        if k in self._data:
            return self._data[k]
        C = self.complex
        n_k = C.ranks[k] if 0 <= k <= C.top_degree else 0
        data = _DegreeData()
        snf_bnd = (smith_normal_form(C.boundary(k), transforms="right")
                   if k >= 1 else None)
        data.snf_bnd = snf_bnd
        data.r = snf_bnd.rank if snf_bnd else 0
        data.z = n_k - data.r
        # present H_k as Z^z / image of the next boundary, in kernel coordinates
        bnd_next = C.boundary(k + 1)
        if snf_bnd is not None:
            in_kernel = snf_bnd.V_inv.matmul(bnd_next)
        else:
            in_kernel = bnd_next
        entries = [(r - data.r, c, v) for r, c, v in in_kernel.entries if r >= data.r]
        if any(r < data.r for r, _, _ in in_kernel.entries):
            raise HomologyError("boundaries are not cycles; complex is inconsistent")
        X = SparseIntMatrix(data.z, bnd_next.ncols, entries)
        data.pres = smith_normal_form(X, transforms="left")
        diag = data.pres.diagonal
        kept = [i for i, d in enumerate(diag) if d > 1]
        data.betti = data.z - data.pres.rank
        data.kept = kept + list(range(data.pres.rank, data.z))
        data.moduli = tuple([diag[i] for i in kept] + [0] * data.betti)
        self._data[k] = data
        return data

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
        data = self._degree(k)
        pos = data.kept[j]
        x = {r: v for r, v in data.pres.U_inv.columns().get(pos, ())}
        if data.snf_bnd is None:
            return x
        vcols = data.snf_bnd.V.columns()
        out: dict[int, int] = {}
        for t, coef in x.items():
            for r, v in vcols.get(data.r + t, ()):
                acc = out.get(r, 0) + coef * v
                if acc:
                    out[r] = acc
                else:
                    del out[r]
        return out

    def coords_of_cycle(self, k: int, vec: dict[int, int]) -> tuple[int, ...]:
        """Coordinates of a cycle in the homology basis at degree k."""
        data = self._degree(k)
        if data.snf_bnd is not None:
            w = data.snf_bnd.V_inv.matvec(vec)
            if any(r < data.r and v for r, v in w.items()):
                raise HomologyError("vector is not a cycle")
            x = {r - data.r: v for r, v in w.items() if r >= data.r}
        else:
            x = dict(vec)
        y = data.pres.U.matvec(x)
        coords = []
        for j, pos in enumerate(data.kept):
            m = data.moduli[j]
            val = y.get(pos, 0)
            coords.append(val % m if m else val)
        return tuple(coords)


def chain_map_matrices(f: SSetMap) -> dict[int, SparseIntMatrix]:
    """Normalized chain map of a simplicial map.

    A nondegenerate source cell maps to its image when that image is
    nondegenerate and to zero otherwise.
    """
    src, dst = f.source, f.target
    out = {}
    for k in range(src.truncation + 1):
        src_mask = src.nondegenerate(k)
        dst_mask = dst.nondegenerate(k)
        src_pos = np.full(src.counts[k], -1, dtype=np.int64)
        src_pos[src_mask] = np.arange(int(src_mask.sum()), dtype=np.int64)
        dst_pos = np.full(dst.counts[k], -1, dtype=np.int64)
        dst_pos[dst_mask] = np.arange(int(dst_mask.sum()), dtype=np.int64)
        nd = np.nonzero(src_mask)[0]
        images = f.assignment[k][nd]
        rows = dst_pos[images]
        keep = rows >= 0
        entries = list(zip(rows[keep].tolist(),
                           np.arange(len(nd), dtype=np.int64)[keep].tolist(),
                           [1] * int(keep.sum())))
        out[k] = SparseIntMatrix(int(dst_mask.sum()), int(src_mask.sum()), entries)
    return out


def induced_map(f: SSetMap, degree: int,
                src_coords: HomologyCoordinates | None = None,
                dst_coords: HomologyCoordinates | None = None) -> list[list[int]]:
    """Matrix of f_* on homology in the SNF-derived bases.

    Rows index target generators, columns source generators; entries are
    reduced modulo the target torsion orders.  Pass precomputed
    coordinate systems to amortize repeated calls.  A degree outside
    0..truncation of the source raises HomologyError before any work.
    """
    if not 0 <= degree <= f.source.truncation:
        raise HomologyError(f"degree {degree} out of the source's range "
                            f"0..{f.source.truncation}")
    if src_coords is None:
        src_coords = HomologyCoordinates(normalized_chains(f.source, with_labels=False))
    if dst_coords is None:
        dst_coords = HomologyCoordinates(normalized_chains(f.target, with_labels=False))
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


# ----------------------------------------------------------------------
# quotients of homology by extra relations
# ----------------------------------------------------------------------

class AbelianQuotient:
    """Quotient of a group Z^g with torsion ``moduli`` by extra vectors.

    Presented by Smith normal form; supports membership tests for "is this
    class zero in the quotient".
    """

    def __init__(self, moduli: tuple[int, ...], extra: list[dict[int, int]]):
        g = len(moduli)
        cols: list[dict[int, int]] = [
            {i: m} for i, m in enumerate(moduli) if m]
        cols.extend(extra)
        entries = [(r, j, v) for j, col in enumerate(cols) for r, v in col.items()]
        self.generators = g
        self.relations = SparseIntMatrix(g, len(cols), entries)
        self.snf = smith_normal_form(self.relations, transforms="left")

    def group(self, degree: int) -> HomologyGroup:
        torsion = tuple(d for d in self.snf.diagonal if d > 1)
        betti = self.generators - self.snf.rank
        return HomologyGroup(degree, betti, torsion)

    def reduce(self, vec_coords) -> tuple[int, ...]:
        """Canonical coordinates of an element in the quotient."""
        vec = {i: v for i, v in enumerate(vec_coords) if v}
        y = self.snf.U.matvec(vec)
        out = []
        diag = self.snf.diagonal
        for i in range(self.generators):
            val = y.get(i, 0)
            if i < len(diag) and diag[i]:
                val %= diag[i]
            out.append(val)
        return tuple(out)

    def is_zero(self, vec_coords) -> bool:
        return all(v == 0 for v in self.reduce(vec_coords))
