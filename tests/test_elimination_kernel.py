"""Differential tests of the elimination kernel against the kernel it
replaced and against a full-scan reference, of the Smith form's placement
against a swap-and-negate reference, of ``homology`` against a
per-boundary reference, and of ``HomologyCoordinates`` against
whole-boundary coordinates.

The first reference is the kernel as it was before it took its unit
pivots from ``_reduce``: every pivot goes through ``_eliminate_at``, unit
pivots from the pivot queue and the rest from a full scan.  The second is
the kernel as it was before the pivot queue: every pivot comes from a
Markowitz scan of all remaining entries.  The third is the Smith form as
it was before the pivots stayed in place: every pivot swapped onto the
diagonal, the swaps mirrored on U, U_inv, V and V_inv, and the signs fixed
by negating rows.  The fourth is ``homology`` as it was before it reduced
the complex: every boundary eliminated whole, with no generator dropped.
The fifth is ``HomologyCoordinates`` as it was before it reduced the
complex: Smith forms with transforms of every whole boundary.

All are kept here only as oracles.  All share the row/column primitives of
``finsub.homology``, and the first also shares its pivot queue.  The third
calls the kernel ``_eliminate`` and tests only the placement.  The fourth
and fifth call ``invariant_factors``, ``rank_mod_p`` and
``smith_normal_form`` on whole boundaries: they share the kernel and the
placement, but not the reduction of the complex.
"""

import random
from fractions import Fraction
from importlib import import_module
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finsub.constructions import CONSTRUCTIONS, cylinder_chain_model, sub3_homology_via_coproduct
from finsub.fundamental import fundamental_presentation
from finsub.homology import (INT64_ENTRY_BOUND, ChainComplexZ, HomologyCoordinates,
                             HomologyError, HomologyGroup, HomologyResult, SmithNormalForm,
                             SparseIntMatrix, _coreduce, _eliminate, _eliminate_at,
                             _PivotQueue, _snf_core, _Transforms, _unit_z, _Work,
                             homology, invariant_factors, normalized_chains, rank_mod_p,
                             smith_normal_form)
from finsub.spaces import builtin_space
from finsub.surface import builtin_presentation, sp_chain_complex
from conftest import import_perfbench
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


def reference_eliminate(work, tr):
    """The kernel with every pivot cleared in place by ``_eliminate_at``:
    unit pivots from the queue, skipping done columns, and the rest from a
    full scan of the lines not yet done."""
    queue = _PivotQueue(work, _unit_z)
    done_rows, done_cols, pivots = set(), set(), []
    while True:
        pick = queue.pop()
        while pick is not None and pick[1] in done_cols:
            pick = queue.pop()
        queued = pick is not None
        if not queued:
            pick = _full_scan_pivot(work, done_rows, done_cols)
            if pick is None:
                return pivots
        r, c = pick
        touched = list(work.rows[r])
        pivots.append((r, c, _eliminate_at(work, tr, r, c)))
        done_rows.add(r)
        done_cols.add(c)
        if queued:
            # a unit pivot changes only the columns of its row
            queue.push(touched)
        else:
            # gcd steps can change any column of the residual
            queue.push(cc for cc in work.cols if cc not in done_cols)


def test_pivot_queue_drops_stale_entries_and_pushes_nothing():
    # column 0 grows from one entry to two after its first push; _reduce
    # pushes every column a pivot changes, so the fresh entry is queued and
    # pop drops the stale one
    work = _Work([(0, 0, 1)], 2, 1)
    queue = _PivotQueue(work, _unit_z)
    work.rows[1] = {0: 1}
    work.cols[0].add(1)
    queue.push([0])
    pushed = []
    queue.push = pushed.append
    assert queue.pop() == (0, 0)
    assert pushed == [] and queue.heap == []


def _kernel_run(eliminate, M):
    """The pivots, final work and transforms of one kernel run on M."""
    work = _Work(M.entries, M.nrows, M.ncols)
    tr = _Transforms(M.nrows, M.ncols, "both")
    pivots = eliminate(work, tr)
    return (pivots, SparseIntMatrix(M.nrows, M.ncols, work.entries()),
            *(SparseIntMatrix(A.nrows, A.ncols, A.entries())
              for A in (tr.U, tr.Uinv, tr.V, tr.Vinv)))


def _assert_valid_kernel_run(M, run):
    """U M V is the final work, U and V are unimodular, and the final work
    holds exactly the pivots."""
    pivots, work, U, U_inv, V, V_inv = run
    assert U.matmul(M).matmul(V) == work
    assert _is_identity(U.matmul(U_inv), M.nrows)
    assert _is_identity(V.matmul(V_inv), M.ncols)
    assert sorted(work.entries) == sorted(pivots)


def _exponent_sums(pres):
    """The exponent-sum matrix of a presentation, generators by relators."""
    entries = [(abs(g) - 1, j, 1 if g > 0 else -1)
               for j, w in enumerate(pres.relators) for g in w]
    return SparseIntMatrix(pres.generator_count, len(pres.relators), entries)


@pytest.mark.parametrize("construction, space, n", [
    ("sp", "torus", 2), ("sp", "rp2", 2), ("sub", "circle3", 3),
    ("sub", "wedge_circles2", 3)])
def test_kernel_matches_in_place_reference_exactly(construction, space, n):
    # every boundary and the pi_1 exponent-sum matrix: the same pivots in
    # the same order, the same final work and the same four transforms
    built = CONSTRUCTIONS[construction].build(builtin_space(space), n)
    C = normalized_chains(built.space, with_labels=False)
    matrices = list(C.boundaries.values()) + [_exponent_sums(fundamental_presentation(
        built.space))]
    for M in matrices:
        run = _kernel_run(_eliminate, M)
        assert run == _kernel_run(reference_eliminate, M)
        _assert_valid_kernel_run(M, run)


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
    return _invariants_of_diagonal(pivots)


def _invariants_of_diagonal(pivots):
    """(rank, invariant factors) of diag(d_1, ..., d_k), by pairwise gcd/lcm."""
    diag = [abs(d) for d in pivots]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            diag[i], diag[j] = g, a // g * b
    return len(diag), tuple(diag)


def _row_swap(work, i, j):
    if i == j:
        return
    ri, rj = work.rows.pop(i, {}), work.rows.pop(j, {})
    for c in ri:
        work.cols[c].discard(i)
    for c in rj:
        work.cols[c].discard(j)
    for r, row in ((i, rj), (j, ri)):
        if row:
            work.rows[r] = row
            for c in row:
                work.cols[c].add(r)


def _col_swap(work, i, j):
    if i == j:
        return
    for r in list(work.cols.get(i, set()) | work.cols.get(j, set())):
        row = work.rows.get(r, {})
        vi, vj = row.get(i, 0), row.get(j, 0)
        work._set(r, i, vj)
        work._set(r, j, vi)


def reference_smith_normal_form(M, track):
    """The Smith form, every pivot swapped onto the diagonal in discovery
    order before the divisibility pass, and each negative pivot's row
    negated after it."""
    work = _Work(M.entries, M.nrows, M.ncols)
    tr = _Transforms(M.nrows, M.ncols, track)
    pivots = _eliminate(work, tr)
    k = len(pivots)
    prow = [r for r, _, _ in pivots]
    pcol = [c for _, c, _ in pivots]
    for t in range(k):
        r, c = prow[t], pcol[t]
        _row_swap(work, r, t)
        _col_swap(work, c, t)
        if tr.left:
            _row_swap(tr.U, r, t)
            _col_swap(tr.Uinv, r, t)
        if tr.right:
            _col_swap(tr.V, c, t)
            _row_swap(tr.Vinv, c, t)
        # the pivot lines still to come that stood at place t now stand at r, c
        prow[t + 1:] = [r if x == t else x for x in prow[t + 1:]]
        pcol[t + 1:] = [c if x == t else x for x in pcol[t + 1:]]
    changed = True
    while changed:
        changed = False
        for t in range(k - 1):
            if work.get(t + 1, t + 1) % work.get(t, t):
                work.col_combine(t, t + 1, 1, 1, 0, 1)
                tr.col_combine(t, t + 1, 1, 1, 0, 1)
                _eliminate_at(work, tr, t, t)
                changed = True
    diagonal = []
    for t in range(k):
        d = work.get(t, t)
        if d < 0 and tr.left:
            for c in list(tr.U.rows.get(t, {})):
                tr.U.rows[t][c] *= -1
            for r in list(tr.Uinv.cols.get(t, set())):
                tr.Uinv.rows[r][t] *= -1
        diagonal.append(abs(d))
    result = SmithNormalForm(M.nrows, M.ncols, tuple(diagonal))
    if tr.left:
        result.U = SparseIntMatrix(M.nrows, M.nrows, tr.U.entries())
        result.U_inv = SparseIntMatrix(M.nrows, M.nrows, tr.Uinv.entries())
    if tr.right:
        result.V = SparseIntMatrix(M.ncols, M.ncols, tr.V.entries())
        result.V_inv = SparseIntMatrix(M.ncols, M.ncols, tr.Vinv.entries())
    return result


def _assert_placement_matches_reference(M):
    for track in ("both", "left", "right"):
        assert _snf_core(M, track) == reference_smith_normal_form(M, track)


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
    _assert_placement_matches_reference(M)


@settings(max_examples=300, deadline=None)
@given(_matrices())
# the non-unit pivot's gcd steps walk the rows of its column in another
# order than in the reference, and the pivots after it differ
@example([[0, -2, -3, 3, 0], [-6, 3, -1, 1, 6], [3, -2, -1, 6, -2], [0, 0, -3, 6, 3],
          [0, -1, -6, 0, -1]])
def test_kernel_matches_in_place_reference_on_random_matrices(rows):
    # the residual's pivots may differ from the reference's, so only the
    # rank, the invariant factors and the certificates are compared
    M = SparseIntMatrix.from_dense(rows)
    run, reference = _kernel_run(_eliminate, M), _kernel_run(reference_eliminate, M)
    assert _invariants_of_diagonal([d for _, _, d in run[0]]) == invariant_factors(M)
    assert (_invariants_of_diagonal([d for _, _, d in reference[0]])
            == invariant_factors(M))
    _assert_valid_kernel_run(M, run)
    _assert_valid_kernel_run(M, reference)


def _spread_matrix(rng):
    """A random integer matrix on a few rows and columns whose indices are
    spread over 37 to 1 024 times their count, so that Python's sets and
    dicts of them iterate in an order that depends on their history."""
    m, n, spread = rng.randint(2, 6), rng.randint(2, 6), rng.randint(37, 1024)
    rows, cols = rng.sample(range(spread * m), m), rng.sample(range(spread * n), n)
    values = [0, 0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -6, 9]
    return SparseIntMatrix(spread * m, spread * n, [
        (r, c, v) for r in rows for c in cols if (v := rng.choice(values))])


def test_kernel_transforms_do_not_depend_on_insertion_order():
    # the same matrix built from shuffled entry lists gives the same U, U_inv,
    # V and V_inv: the gcd steps visit the lines in ascending order
    rng = random.Random(2021)
    for _ in range(40):
        M = _spread_matrix(rng)
        entries = list(M.entries)
        runs = []
        for _ in range(3):
            rng.shuffle(entries)
            work = _Work(entries, M.nrows, M.ncols)
            tr = _Transforms(M.nrows, M.ncols, "both")
            _eliminate(work, tr)
            runs.append([sorted(A.entries()) for A in (tr.U, tr.Uinv, tr.V, tr.Vinv)])
        assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("construction, space, n", [
    ("sp", "torus", 2), ("sp", "rp2", 2), ("sub", "circle3", 3)])
def test_placement_matches_swap_reference_on_boundaries(construction, space, n):
    C = normalized_chains(CONSTRUCTIONS[construction].build(builtin_space(space), n).space,
                          with_labels=False)
    for M in C.boundaries.values():
        _assert_placement_matches_reference(M)


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


def _complex(ranks, dense, truncated=False):
    return ChainComplexZ(ranks, {k: SparseIntMatrix.from_dense(rows)
                                 for k, rows in dense.items()}, truncated=truncated)


def _two_simplex():
    """The 2-simplex cut at degree 2, which the pre-pass pairs away whole."""
    return _complex((3, 3, 1), {1: [[-1, -1, 0], [1, 0, -1], [0, 1, 1]], 2: [[1], [-1], [1]]},
                    truncated=True)


def _array_complex(value):
    return ChainComplexZ((1, 1), {1: SparseIntMatrix.from_arrays(
        1, 1, *(np.array([x], dtype=np.int64) for x in (0, 0, value)))})


def _stalled_rp2():
    """RP^2 from two edges e0, e1 from v0 to v1 and a face f with
    d f = 2 (e1 - e0).  v0 is critical and e0 pairs with v1, whose image
    is v0 by fill; then f's one live entry is the 2 on e1, so f is not
    paired, and e1 and f are left to the Smith forms."""
    return _complex((2, 2, 1), {1: [[-1, -1], [1, 1]], 2: [[-2], [2]]})


def _fill_beyond_entry_bound(w):
    """d_1 = [[w, 1], [1, w]] on v0, v1 and a, c: v0 is critical, a pairs
    with v1, whose image is -w v0, and c's Morse boundary is 1 - w^2; v0
    and c are the Morse complex's cells 0 in degrees 0 and 1."""
    return _complex((2, 2), {1: [[w, 1], [1, w]]})


def test_stalled_and_filled_cells_reach_the_morse_boundary():
    assert _critical_counts(_stalled_rp2()) == [1, 1, 1]
    assert [str(g) for g in homology(_stalled_rp2())] == ["Z", "Z/2", "0"]
    w = INT64_ENTRY_BOUND - 1
    morse, critical, _, _ = _coreduce(_fill_beyond_entry_bound(w))
    assert [c.tolist() for c in critical] == [[0], [1]]
    # the entries are int64, and the fill past the bound is a Python int
    assert morse.boundary(1).entries == ((0, 0, 1 - w * w),)
    assert morse.boundary(1).arrays[2].dtype == object


@pytest.mark.parametrize("make", [
    # H_0 = Z/2, with vertex 0 critical and the edge not paired
    lambda: _complex((1, 1), {1: [[2]]}),
    lambda: cylinder_chain_model(builtin_space("torus")),
    lambda: sp_chain_complex(builtin_presentation("torus"), 2),
    lambda: ChainComplexZ((3,), {}),
    lambda: ChainComplexZ((0,), {}),
    _two_simplex,
    # a long diameter, so the coreductions take many rounds
    lambda: normalized_chains(CONSTRUCTIONS["sp"].build(builtin_space("circle40"), 2).space,
                              with_labels=False),
    # entries beyond int64 and at INT64_ENTRY_BOUND are stored as Python
    # ints, and the pre-pass runs on them as on int64 values
    lambda: _complex((2, 1), {1: [[2 ** 70], [-(2 ** 70)]]}),
    lambda: _array_complex(INT64_ENTRY_BOUND),
    lambda: _array_complex(-INT64_ENTRY_BOUND),
    # a cell whose one live entry is 2 is not paired
    _stalled_rp2,
    # fill past INT64_ENTRY_BOUND from entries below it
    lambda: _fill_beyond_entry_bound(INT64_ENTRY_BOUND - 1),
    lambda: _fill_beyond_entry_bound(-(1 << 40)),
], ids=["d1-is-2", "cylinder-torus", "surface-sp2-torus", "degree-0-rank-3",
        "degree-0-rank-0", "top-paired-away", "sp2-circle40", "beyond-int64",
        "at-entry-bound", "at-minus-entry-bound", "stalled-rp2", "fill-beyond-bound",
        "fill-beyond-int64"])
def test_coreduction_matches_per_boundary_reference(make):
    _assert_matches_reference(make())


def _critical_counts(C):
    return list(_coreduce(C)[0].ranks)


def test_vertex_zero_is_the_first_critical_cell():
    # no augmentation is needed: d_1 = (2) pairs nothing, since its one
    # entry is not a unit, and gives H_0 = Z/2
    assert [str(g) for g in homology(_complex((1, 1), {1: [[2]]}))] == ["Z/2", "0"]
    assert _critical_counts(_complex((1, 1), {1: [[2]]})) == [1, 1]
    assert _critical_counts(_complex((2, 1), {1: [[2 ** 70], [-(2 ** 70)]]})) == [2, 1]
    assert [str(g) for g in homology(ChainComplexZ((3,), {}))] == ["Z^3"]
    # the cut 2-simplex leaves vertex 0 alone
    C = _two_simplex()
    morse, critical, _, _ = _coreduce(C)
    assert [c.tolist() for c in critical] == [[0], [], []]
    assert morse.ranks == (1, 0, 0)
    assert homology(C).unreliable == frozenset({2})


def test_coreduction_shrinks_what_the_unit_reduction_sees(monkeypatch):
    # homology() and HomologyCoordinates each reduce Sub_3(S^2) by one call
    # of _coreduce, and the Smith forms see only its Morse complex: the 7
    # critical cells that the coreductions leave of all 13 125
    module = import_module("finsub.homology")
    calls, critical, smith = [], [], []
    coreduce, snf_core = module._coreduce, module._snf_core

    def record_coreduce(C):
        out = coreduce(C)
        calls.append(sum(C.ranks))
        critical.append(sum(out[0].ranks))
        return out

    def record_snf_core(M, track):
        smith.append(max(M.nrows, M.ncols))
        return snf_core(M, track)

    monkeypatch.setattr(module, "_coreduce", record_coreduce)
    monkeypatch.setattr(module, "_snf_core", record_snf_core)
    C = normalized_chains(CONSTRUCTIONS["sub"].build(builtin_space("sphere2"), 3).space,
                          with_labels=False)
    assert sum(C.ranks) == 13125
    assert [str(g) for g in homology(C)] == ["Z", "0", "0", "0", "Z + Z/2", "0", "Z", "0"]
    coords = HomologyCoordinates(C)
    assert calls == [13125, 13125] and critical == [7, 7]
    assert smith and max(smith) <= 7
    assert [str(coords.group(k)) for k in (0, 4, 6)] == ["Z", "Z + Z/2", "Z"]


def test_sp2_torus_leaves_its_betti_numbers_in_every_benchmark_labelling():
    # the Morse complex of SP^2(T) is minimal: 1, 2, 2, 2, 1 critical cells
    # and zero boundaries, so the Smith forms have nothing left to do
    workloads = import_perfbench("workloads")
    for seed in range(4):
        for inputs in workloads.build_inputs("smith-bound", seed):
            spec = workloads.spaces.load_complex(inputs["torus"])
            C = normalized_chains(CONSTRUCTIONS["sp"].build(spec, 2).space, with_labels=False)
            morse = _coreduce(C)[0]
            assert morse.ranks == (1, 2, 2, 2, 1, 0)
            assert all(M.is_zero() for M in morse.boundaries.values())


class ReferenceHomologyCoordinates:
    """Homology coordinates from Smith forms of the whole boundaries: a
    right Smith form of d_k gives a basis of the cycles, and a left Smith
    form presents H_k as the cycles modulo the image of d_(k+1)."""

    def __init__(self, C):
        self.complex = C
        self._data = {}

    def _degree(self, k):
        if k in self._data:
            return self._data[k]
        C = self.complex
        n_k = C.ranks[k] if 0 <= k <= C.top_degree else 0
        snf_bnd = smith_normal_form(C.boundary(k), transforms="right") if k >= 1 else None
        r = snf_bnd.rank if snf_bnd else 0
        z = n_k - r
        bnd_next = C.boundary(k + 1)
        in_kernel = snf_bnd.V_inv.matmul(bnd_next) if snf_bnd is not None else bnd_next
        assert all(row >= r for row, _, _ in in_kernel.entries)
        X = SparseIntMatrix(z, bnd_next.ncols,
                            [(row - r, c, v) for row, c, v in in_kernel.entries])
        pres = smith_normal_form(X, transforms="left")
        diag = pres.diagonal
        torsion = [i for i, d in enumerate(diag) if d > 1]
        kept = torsion + list(range(pres.rank, z))
        moduli = tuple([diag[i] for i in torsion] + [0] * (z - pres.rank))
        self._data[k] = (snf_bnd, r, pres, kept, moduli)
        return self._data[k]

    def generator_count(self, k):
        return len(self._degree(k)[3])

    def moduli(self, k):
        return self._degree(k)[4]

    def generator_cycle(self, k, j):
        snf_bnd, r, pres, kept, _ = self._degree(k)
        x = {row: v for row, v in pres.U_inv.columns().get(kept[j], ())}
        if snf_bnd is None:
            return x
        return snf_bnd.V.matvec({r + t: v for t, v in x.items()})

    def coords_of_cycle(self, k, vec):
        snf_bnd, r, pres, kept, moduli = self._degree(k)
        if snf_bnd is not None:
            w = snf_bnd.V_inv.matvec(vec)
            if any(row < r for row in w):
                raise HomologyError("vector is not a cycle")
            vec = {row - r: v for row, v in w.items() if row >= r}
        y = pres.U.matvec(vec)
        return tuple(y.get(pos, 0) % m if m else y.get(pos, 0)
                     for pos, m in zip(kept, moduli))


def _determinant(rows):
    """Determinant of a square integer matrix by exact elimination over Q."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


def _assert_coordinates_match_reference(C):
    """Equal groups and moduli in every degree (and none outside 0..top),
    generators that are cycles with unit coordinates, zero coordinates on
    boundaries, and a free part whose reference coordinates are unimodular."""
    coords, reference = HomologyCoordinates(C), ReferenceHomologyCoordinates(C)
    for k in range(-1, C.top_degree + 2):
        moduli = coords.moduli(k)
        assert moduli == reference.moduli(k), k
        n = len(moduli)
        cycles = [coords.generator_cycle(k, j) for j in range(n)]
        for j, z in enumerate(cycles):
            assert C.boundary(k).matvec(z) == {}, (k, j)
            assert coords.coords_of_cycle(k, z) == tuple(int(i == j) for i in range(n))
        d_next = C.boundary(k + 1)
        chain = {c: c % 5 - 2 for c in range(d_next.ncols)}
        for b in [d_next.matvec(chain)] + [d_next.matvec({c: 1})
                                            for c in range(min(3, d_next.ncols))]:
            assert coords.coords_of_cycle(k, b) == (0,) * n, k
        free = [j for j, m in enumerate(moduli) if m == 0]
        old = [reference.coords_of_cycle(k, cycles[j]) for j in free]
        assert abs(_determinant([[old[j][i] for j in range(len(free))] for i in free])) == 1


@pytest.mark.parametrize("construction, space", [
    (construction, space) for construction in ("sp", "based_sub3")
    for space in ("torus", "rp2", "sphere2", "wedge_circles2")] + [("sub", "sphere2")])
def test_coordinates_match_whole_boundary_reference(construction, space):
    n = 2 if construction == "sp" else 3
    C = normalized_chains(CONSTRUCTIONS[construction].build(builtin_space(space), n).space,
                          with_labels=False)
    _assert_coordinates_match_reference(C)


def _two_circles():
    """Two disjoint triangles: H_0 = Z^2 on the critical vertices 0 and 3,
    to which the other vertices map by fill."""
    d1 = [[0] * 6 for _ in range(6)]
    for e, (u, v) in enumerate([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]):
        d1[u][e], d1[v][e] = -1, 1
    return _complex((6, 6), {1: d1})


@pytest.mark.parametrize("make", [
    _two_circles,
    lambda: _complex((1, 1), {1: [[2]]}),
    _two_simplex,
    lambda: _complex((2, 1), {1: [[2 ** 70], [-(2 ** 70)]]}),
    lambda: _array_complex(INT64_ENTRY_BOUND),
    lambda: _array_complex(-INT64_ENTRY_BOUND),
    _stalled_rp2,
    lambda: _fill_beyond_entry_bound(INT64_ENTRY_BOUND - 1),
    lambda: _fill_beyond_entry_bound(-(1 << 40)),
], ids=["two-circles", "d1-is-2", "top-paired-away", "beyond-int64", "at-entry-bound",
        "at-minus-entry-bound", "stalled-rp2", "fill-beyond-bound", "fill-beyond-int64"])
def test_coordinates_through_the_coreduction_match_reference(make):
    _assert_coordinates_match_reference(make())


@pytest.mark.parametrize("space", ["torus", "rp2", "sphere2", "wedge_circles2"])
def test_coordinates_on_the_coproduct_quotients_match_reference(space):
    # each quotient is a two-term complex of torsion orders and differences
    # diag_* - j_*, whose entries need not be units
    model = sub3_homology_via_coproduct(builtin_space(space))
    for coords in model.quotients.values():
        _assert_coordinates_match_reference(coords.complex)


@settings(max_examples=40, deadline=None)
@given(spec=complexes(), construction=st.sampled_from(["space", "sp", "sub", "based_sub3"]),
       n=st.integers(2, 3))
def test_coordinates_match_whole_boundary_reference_on_random_complexes(spec, construction, n):
    C = normalized_chains(CONSTRUCTIONS[construction].build(spec, n).space,
                          with_labels=False)
    assume(sum(C.ranks) <= 3000)   # keeps the reference under a second
    _assert_coordinates_match_reference(C)
