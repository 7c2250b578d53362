"""Differential tests of the elimination kernel against a full-scan reference,
and of ``homology`` against a per-boundary reference.

The first reference is the kernel as it was before the unit-pivot queue:
every pivot comes from a Markowitz scan of all remaining entries.  The
second is ``homology`` as it was before it reduced the complex: every
boundary eliminated whole, with no generator dropped.  Both are kept here
only as oracles; they share the row/column primitives of
``finsub.homology`` but none of the pivot search or reduction.
"""

from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finsub.constructions import CONSTRUCTIONS
from finsub.homology import (ChainComplexZ, HomologyGroup, HomologyResult, SparseIntMatrix,
                             _eliminate_at, _Transforms, _Work, homology,
                             invariant_factors, normalized_chains, rank_mod_p,
                             smith_normal_form)
from finsub.spaces import builtin_space
from test_orbits import complexes


def _full_scan_pivot(work, done_rows, done_cols):
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


def reference_invariant_factors(M):
    """Diagonal of the Smith form, pivoting by full scan on every step."""
    work = _Work(M.entries, M.nrows, M.ncols)
    tr = _Transforms(M.nrows, M.ncols, False)
    done_rows, done_cols, pivots = set(), set(), []
    while True:
        pick = _full_scan_pivot(work, done_rows, done_cols)
        if pick is None:
            break
        r, c = pick
        pivots.append(_eliminate_at(work, tr, r, c))
        done_rows.add(r)
        done_cols.add(c)
    # the invariant factors of diag(d_1, ..., d_k), by pairwise gcd/lcm
    diag = [abs(d) for d in pivots]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            diag[i], diag[j] = g, a // g * b
    return len(diag), tuple(diag)


def reference_rank_mod_p(M, p):
    """Rank over F_p, pivoting by full scan and clearing only the pivot column."""
    work = _Work([(r, c, v % p) for r, c, v in M.entries if v % p], M.nrows, M.ncols)
    rank = 0
    done_rows, done_cols = set(), set()
    while True:
        pick = _full_scan_pivot(work, done_rows, done_cols)
        if pick is None:
            return rank
        r, c = pick
        inv = pow(work.get(r, c), -1, p)
        for rr in [x for x in work.cols.get(c, set()) if x != r]:
            q = (-work.get(rr, c) * inv) % p
            if q:
                for cc, v in list(work.rows.get(r, {}).items()):
                    work._set(rr, cc, (work.get(rr, cc) + q * v) % p)
        done_rows.add(r)
        done_cols.add(c)
        rank += 1


# Mostly zeros, units and small non-units: sparse enough that the queue
# runs dry before elimination ends, dense enough for gcd steps to create
# units by fill-in.
_ENTRY = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3, 4, 6, -6, 9])


def _matrices():
    return st.integers(1, 7).flatmap(lambda nrows: st.integers(1, 7).flatmap(
        lambda ncols: st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols),
                               min_size=nrows, max_size=nrows)))


def _is_identity(A, n):
    return A == SparseIntMatrix.identity(n)


@settings(max_examples=300, deadline=None)
@given(_matrices())
# no unit anywhere: the first pivot comes from the residual scan, and
# its gcd steps create the units the queue then takes
@example([[2, 3], [3, 5]])
@example([[6, 4, 9], [4, 6, 2], [9, 2, 6]])
# a unit pivot turns a unit-free column into one with a unit
@example([[1, 2, 0], [1, 3, 2], [0, 2, 4]])
def test_kernel_matches_full_scan_reference(rows):
    M = SparseIntMatrix.from_dense(rows)
    rank, diag = reference_invariant_factors(M)
    assert invariant_factors(M) == (rank, diag)
    for p in (2, 3, 5):
        assert rank_mod_p(M, p) == reference_rank_mod_p(M, p)

    both = smith_normal_form(M, transforms="both")
    assert both.diagonal == diag
    assert both.verify_unimodular()
    left = smith_normal_form(M, transforms="left")
    assert left.diagonal == diag and left.V is None
    assert _is_identity(left.U.matmul(left.U_inv), M.nrows)
    # rows of U*M past the rank vanish
    assert all(r < rank for r, _, _ in left.U.matmul(M).entries)
    right = smith_normal_form(M, transforms="right")
    assert right.diagonal == diag and right.U is None
    assert _is_identity(right.V.matmul(right.V_inv), M.ncols)
    # columns of M*V past the rank are a kernel basis
    assert all(c < rank for _, c, _ in M.matmul(right.V).entries)
    none = smith_normal_form(M, transforms=False)
    assert none.diagonal == diag and none.U is None and none.V is None


def test_rank_mod_p_ignores_done_rows():
    # after the pivot at (0, 0) the done row 0 still holds a unit in
    # column 1, which no longer has any entry in an undone row; pivoting
    # on it would count the rank as 2
    assert rank_mod_p(SparseIntMatrix.from_dense([[1, 1], [1, 1]]), 2) == 1
    assert rank_mod_p(SparseIntMatrix.from_dense([[1, 2], [2, 1]]), 3) == 1


def reference_homology(C, mod=None):
    """Homology from the rank and torsion of every whole boundary."""
    top = C.top_degree
    ranks, factors = {}, {}
    for k in range(1, top + 1):
        if mod is None:
            ranks[k], diag = invariant_factors(C.boundary(k))
            factors[k] = tuple(d for d in diag if d > 1)
        else:
            ranks[k] = rank_mod_p(C.boundary(k), mod)
    groups = tuple(HomologyGroup(k, C.ranks[k] - ranks.get(k, 0) - ranks.get(k + 1, 0),
                                 factors.get(k + 1, ()))
                   for k in range(top + 1))
    unreliable = frozenset({top} if C.truncated and C.ranks[top] else ())
    return HomologyResult(groups, unreliable, mod)


def _assert_matches_reference(C):
    for mod in (None, 2, 3):
        assert homology(C, mod) == reference_homology(C, mod)


@settings(max_examples=60, deadline=None)
@given(spec=complexes(), construction=st.sampled_from(["sp", "sub", "based_sub3"]),
       n=st.integers(2, 3))
def test_homology_matches_per_boundary_reference(spec, construction, n):
    C = normalized_chains(CONSTRUCTIONS[construction].build(spec, n).space,
                          with_labels=False)
    assume(sum(C.ranks) <= 3000)   # keeps the reference under a second
    _assert_matches_reference(C)


@pytest.mark.parametrize("construction, space, n", [
    ("space", "rp2", 1),       # H_1 = Z/2
    ("sp", "rp2", 2),          # H_1 = H_3 = Z/2
    ("sp", "sphere3", 2),      # H_5 = Z/2
])
def test_homology_with_torsion_matches_per_boundary_reference(construction, space, n):
    built = CONSTRUCTIONS[construction].build(builtin_space(space), n)
    _assert_matches_reference(normalized_chains(built.space, with_labels=False))


def test_gcd_step_pivot_pairs_no_generator_away():
    # Z --(2, 3)^T--> Z^2 --(3 -2)--> Z is exact.  d_2 has no unit, so its
    # pivot follows a gcd step that mixes both rows of C_1; dropping the
    # pivot row from d_1 would leave (0 -2) and report H_0 = Z/2.
    C = ChainComplexZ((1, 2, 1), {1: SparseIntMatrix.from_dense([[3, -2]]),
                                  2: SparseIntMatrix.from_dense([[2], [3]])})
    assert [str(g) for g in homology(C)] == ["0", "0", "0"]
    _assert_matches_reference(C)
