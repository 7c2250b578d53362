import importlib
from dataclasses import replace
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsub.homology import (INT64_ENTRY_BOUND, SMALL_ENTRIES, ChainComplexZ, HomologyError,
                             HomologyGroup, HomologyCoordinates, SparseIntMatrix, _normalized,
                             _normalized_small, euler_characteristic, homology, homology_of_sset,
                             induced_map, invariant_factors, is_prime, normalized_chains,
                             SmithNormalForm, rank_mod_p, smith_normal_form,
                             universal_coefficients_consistent)
from finsub.simplicial import from_ordered_complex
from finsub.spaces import builtin_space
from xn_reference import (SSetMap, compose_maps, identity_map, power,
                          reference_finite_subset_space)


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------

def test_snf_identity():
    s = smith_normal_form(SparseIntMatrix.identity(4))
    assert s.diagonal == (1, 1, 1, 1)
    assert s.U == SparseIntMatrix.identity(4) or s.verify_unimodular()


def test_snf_textbook_2x2():
    # dense oracle for [[2,4],[6,8]]: d1 = gcd of entries = 2,
    # d1*d2 = |det| = |16 - 24| = 8, so the form is diag(2, 4)
    m = SparseIntMatrix.from_dense([[2, 4], [6, 8]])
    entries = [2, 4, 6, 8]
    d1 = gcd(gcd(2, 4), gcd(6, 8))
    det = abs(2 * 8 - 4 * 6)
    assert (d1, det // d1) == (2, 4)
    s = smith_normal_form(m)
    assert s.diagonal == (2, 4)
    assert s.verify_unimodular()


@pytest.mark.parametrize("mode", ["both", "left", "right"])
def test_snf_verifies_the_transforms_it_carries(mode):
    m = SparseIntMatrix.from_dense([[2, 4], [6, 8]])
    s = smith_normal_form(m, mode)
    assert (s.U is None, s.V is None) == (mode == "right", mode == "left")
    assert s.verify_unimodular()
    # a carried pair whose product is not the identity is caught
    double = SparseIntMatrix.from_dense([[2, 0], [0, 2]])
    if s.U is not None:
        assert not replace(s, U=double).verify_unimodular()
    if s.V is not None:
        assert not replace(s, V_inv=double).verify_unimodular()


def test_snf_without_transforms_verifies_nothing():
    assert not SmithNormalForm(2, 2, (2, 4)).verify_unimodular()


def test_snf_zero_matrix():
    s = smith_normal_form(SparseIntMatrix.zeros(3, 5))
    assert s.diagonal == ()
    assert s.rank == 0


def _dense_rank_over_q(rows):
    # fraction-free Gaussian elimination oracle
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_snf_random_certificates(nrows, ncols, data):
    rows = [[data.draw(st.integers(-15, 15)) for _ in range(ncols)]
            for _ in range(nrows)]
    m = SparseIntMatrix.from_dense(rows)
    s = smith_normal_form(m)
    assert s.verify_unimodular()
    # divisibility chain, positive diagonal
    assert all(d > 0 for d in s.diagonal)
    assert all(b % a == 0 for a, b in zip(s.diagonal, s.diagonal[1:]))
    # rank agrees with a rational-elimination oracle
    assert s.rank == _dense_rank_over_q(rows)
    # first invariant factor is the gcd of all entries
    entries = [v for row in rows for v in row if v]
    if entries:
        g = 0
        for v in entries:
            g = gcd(g, abs(v))
        assert s.diagonal[0] == g
    # the transform-free path agrees
    rank, diag = invariant_factors(m)
    assert (rank, diag) == (s.rank, s.diagonal)


def test_rank_mod_p_oracle():
    # over F_p the rank is the number of invariant factors not divisible by p
    rows = [[2, 4, 0], [1, 3, 5], [3, 7, 5]]
    m = SparseIntMatrix.from_dense(rows)
    _, diag = invariant_factors(m)
    for p in (2, 3, 5, 7):
        expected = sum(1 for d in diag if d % p != 0)
        assert rank_mod_p(m, p) == expected


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15])
def test_rank_mod_p_rejects_non_prime(p):
    with pytest.raises(HomologyError, match="not a prime"):
        rank_mod_p(SparseIntMatrix.identity(2), p)


def test_rank_mod_p_rejects_a_modulus_above_the_bound():
    with pytest.raises(HomologyError, match="2\\^31"):
        rank_mod_p(SparseIntMatrix.identity(2), 2305843009213693951)
    assert rank_mod_p(SparseIntMatrix.identity(2), 2147483647) == 2


def test_homology_mod_p_tests_its_modulus_once():
    # homology over F_p checks the modulus, then rank_mod_p checks it again
    # on each boundary; trial division up to 2^15.5 takes milliseconds
    C = normalized_chains(from_ordered_complex(builtin_space("sphere2"), 3), with_labels=False)
    is_prime.cache_clear()
    assert [h.betti for h in homology(C, 2147483647)] == [1, 0, 1, 0]
    assert is_prime.cache_info().misses == 1


@pytest.mark.parametrize("transforms", [False, True, "none", None])
def test_smith_normal_form_takes_three_modes(transforms):
    with pytest.raises(HomologyError, match="transforms"):
        smith_normal_form(SparseIntMatrix.identity(2), transforms=transforms)


# ----------------------------------------------------------------------
# chain complexes and homology
# ----------------------------------------------------------------------

def test_normalized_chains_circle():
    S = from_ordered_complex(builtin_space("circle3"), 2)
    C = normalized_chains(S)
    assert C.ranks == (3, 3, 0)
    h = homology(C)
    assert [str(g) for g in h.groups] == ["Z", "Z", "0"]


def test_rp2_torsion():
    S = from_ordered_complex(builtin_space("rp2"), 3)
    h = homology_of_sset(S)
    assert [str(g) for g in h.groups] == ["Z", "Z/2", "0", "0"]
    h2 = homology_of_sset(S, mod=2)
    assert [g.betti for g in h2.groups] == [1, 1, 1, 0]
    assert universal_coefficients_consistent(h, h2, 2)


def test_boundary_squared_checked():
    with pytest.raises(HomologyError, match="d o d"):
        ChainComplexZ((1, 2, 1),
                      {1: SparseIntMatrix.from_dense([[1, 1]]),
                       2: SparseIntMatrix.from_dense([[1], [0]])})


def test_euler_characteristic_power():
    S = from_ordered_complex(builtin_space("circle3"), 2)
    P, _ = power(S, 2)
    C = normalized_chains(P)
    assert euler_characteristic(C) == 0
    h = homology(C)
    assert sum((-1) ** k * g.betti for k, g in enumerate(h.groups)) == 0


def test_truncation_reliability_flag():
    # chains truncated with cells at the top level: top degree unreliable
    S = from_ordered_complex(builtin_space("circle3"), 1)
    C = normalized_chains(S)
    h = homology(C)
    assert h.unreliable == frozenset({1})
    # with one more level the top rank vanishes and everything is reliable
    S2 = from_ordered_complex(builtin_space("circle3"), 2)
    assert homology(normalized_chains(S2)).unreliable == frozenset()


def test_homology_group_validation():
    with pytest.raises(HomologyError):
        HomologyGroup(1, 0, (4, 2))  # not a divisibility chain
    with pytest.raises(HomologyError):
        HomologyGroup(1, 0, (1,))


def test_induced_map_identity():
    S = from_ordered_complex(builtin_space("torus"), 3)
    C = normalized_chains(S, with_labels=False)
    coords = HomologyCoordinates(C)
    for k in (0, 1, 2):
        m = induced_map(identity_map(S), k, coords, coords)
        n = coords.generator_count(k)
        assert m == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_induced_map_functoriality():
    S = from_ordered_complex(builtin_space("circle3"), 2)
    P, coordinates = power(S, 2)
    proj = SSetMap(P, S, tuple(c[0] for c in coordinates), name="proj0")
    coords_p = HomologyCoordinates(normalized_chains(P, with_labels=False))
    coords_s = HomologyCoordinates(normalized_chains(S, with_labels=False))
    # composing with the identity reproduces the projection matrix
    comp = compose_maps(identity_map(S), proj)
    a = induced_map(proj, 1, coords_p, coords_s)
    b = induced_map(comp, 1, coords_p, coords_s)
    assert a == b


def test_induced_map_checks_degree_first(monkeypatch):
    # the package re-exports a function named homology over the submodule
    homology_module = importlib.import_module("finsub.homology")

    def no_chains(*args, **kwargs):
        raise AssertionError("chains built before the degree check")

    f = identity_map(from_ordered_complex(builtin_space("circle3"), 2))
    coords = HomologyCoordinates(normalized_chains(f.source, with_labels=False))
    for name in ("normalized_chains", "chain_map_matrices"):
        monkeypatch.setattr(homology_module, name, no_chains)
    for degree in (-1, 3):
        with pytest.raises(HomologyError, match="out of"):
            induced_map(f, degree, coords, coords)


def test_coordinates_roundtrip_rp2():
    S = from_ordered_complex(builtin_space("rp2"), 3)
    C = normalized_chains(S, with_labels=False)
    coords = HomologyCoordinates(C)
    assert str(coords.group(1)) == "Z/2"
    cycle = coords.generator_cycle(1, 0)
    assert coords.coords_of_cycle(1, cycle) == (1,)
    doubled = {k: 2 * v for k, v in cycle.items()}
    assert coords.coords_of_cycle(1, doubled) == (0,)


def test_coords_reject_non_cycle():
    S = from_ordered_complex(builtin_space("circle3"), 2)
    C = normalized_chains(S, with_labels=False)
    coords = HomologyCoordinates(C)
    with pytest.raises(HomologyError, match="cycle"):
        coords.coords_of_cycle(1, {0: 1})  # a single edge is not a cycle
    # a generator index outside C_k is rejected, not dropped
    for k, vec in ((1, {999: 1}), (0, {999: 5}), (0, {-1: 1})):
        with pytest.raises(HomologyError, match="outside"):
            coords.coords_of_cycle(k, vec)


def test_coordinates_outside_the_degrees_have_no_generators():
    C = normalized_chains(from_ordered_complex(builtin_space("circle3"), 2), with_labels=False)
    coords = HomologyCoordinates(C)
    for k in (-1, C.top_degree + 1):
        assert coords.generator_count(k) == 0
        assert coords.moduli(k) == ()
        assert coords.group(k).is_zero
        assert coords.coords_of_cycle(k, {}) == ()


def test_coordinates_reduce_sp2_torus_to_its_homology():
    # SP^2(T) has chain ranks (28, 378, 1232, 1470, 588, 0) and Betti numbers
    # (1, 2, 2, 2, 1): the coreduction leaves a Morse complex with zero boundaries,
    # and vertex 0, the first critical cell, is the generator of H_0
    from finsub.constructions import symmetric_product

    C = normalized_chains(symmetric_product(builtin_space("torus"), 2).space,
                          with_labels=False)
    coords = HomologyCoordinates(C)
    residual = coords.residual
    assert isinstance(residual, ChainComplexZ)
    assert residual.ranks == (1, 2, 2, 2, 1, 0)
    assert [str(coords.group(k)) for k in range(6)] == ["Z", "Z^2", "Z^2", "Z^2", "Z", "0"]
    assert coords.generator_cycle(0, 0) == {0: 1}


def _relations_and_vector():
    """A g x m relation matrix R, as its columns, and a vector u + R c."""
    return st.integers(1, 5).flatmap(lambda g: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=g, max_size=g), max_size=5),
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 3]), min_size=g, max_size=g),
        st.lists(st.integers(-3, 3), min_size=5, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(_relations_and_vector())
def test_degree_0_coordinates_present_the_cokernel(drawn):
    # H_0 of Z^m --R--> Z^g is the cokernel Z^g / R Z^m.  The class of v
    # vanishes exactly when appending v to R keeps the invariant factors:
    # the cokernel of R then maps onto an isomorphic finitely generated
    # abelian group, and such a surjection is an isomorphism
    columns, u, c = drawn
    g, m = len(u), len(columns)
    v = [u[i] + sum(col[i] * x for col, x in zip(columns, c)) for i in range(g)]
    R = SparseIntMatrix(g, m, [(i, j, x) for j, col in enumerate(columns)
                               for i, x in enumerate(col)])
    coords = HomologyCoordinates(ChainComplexZ((g, m), {1: R}))
    rank, diagonal = invariant_factors(R)
    assert coords.group(0) == HomologyGroup(0, g - rank, tuple(d for d in diagonal if d > 1))
    with_v = SparseIntMatrix(g, m + 1, R.entries + tuple((i, m, x) for i, x in enumerate(v)))
    in_image = invariant_factors(with_v) == (rank, diagonal)
    vector = {i: x for i, x in enumerate(v) if x}
    assert (not any(coords.coords_of_cycle(0, vector))) == in_image


def test_sparse_matrix_ops():
    a = SparseIntMatrix.from_dense([[1, 2], [3, 4]])
    b = SparseIntMatrix.from_dense([[0, 1], [1, 0]])
    assert a.matmul(b).to_dense() == [[2, 1], [4, 3]]
    assert a.matvec({0: 1, 1: 1}) == {0: 3, 1: 7}
    for stray in ({5: 1}, {-1: 3}):   # rejected, not dropped
        with pytest.raises(HomologyError, match="outside"):
            SparseIntMatrix.from_dense([[1, -1]]).matvec(stray)
    with pytest.raises(HomologyError):
        SparseIntMatrix(1, 1, [(0, 5, 3)])


_EDGE_VALUES = (INT64_ENTRY_BOUND - 1, INT64_ENTRY_BOUND, 1 << 70)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_short_entry_lists_normalize_as_the_numpy_path(nrows, ncols, data):
    """``_normalized_small`` sums, sorts and types entries in plain Python;
    the arrays and their dtypes are those of ``_normalized``, which
    ``SparseIntMatrix`` takes past SMALL_ENTRIES entries.  Entries cancel,
    sit at the int64 bound or beyond int64, come as numpy ints next to
    Python ints beyond int64, or fall outside the matrix."""
    value = st.integers(-3, 3) | st.sampled_from(_EDGE_VALUES).flatmap(
        lambda v: st.sampled_from((v, -v)))
    entry = st.tuples(st.integers(-1, nrows), st.integers(-1, ncols), value)
    entries = data.draw(st.lists(entry, max_size=SMALL_ENTRIES // 2))
    entries += [(r, c, -v) for r, c, v in data.draw(st.lists(st.sampled_from(entries),
                                                             max_size=len(entries)))
                ] if entries else []
    if nrows and ncols and data.draw(st.booleans()):
        inside = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), value)
        entries += data.draw(st.lists(inside, min_size=SMALL_ENTRIES + 1,
                                      max_size=SMALL_ENTRIES + 4))
    if data.draw(st.booleans()):
        entries = [(np.int64(r), np.int32(c), np.int64(v) if abs(v) < 1 << 63 else v)
                   for r, c, v in entries]
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    paths = (lambda: SparseIntMatrix(nrows, ncols, entries).arrays,
             lambda: _normalized(nrows, ncols, rows, cols, np.array(vals, dtype=object)))
    try:
        want = _normalized_small(nrows, ncols, entries)
    except HomologyError:
        for path in paths:
            with pytest.raises(HomologyError, match="entry out of range"):
                path()
        return
    for path in paths:
        for a, b in zip(path(), want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_numpy_ints_sum_with_big_ints_past_the_short_path():
    for big in (1 << 70, -(1 << 70)):
        entries = [(0, 0, np.int64(5)), (0, 0, big)] + [(1, i, 1) for i in range(40)]
        assert SparseIntMatrix(2, 40, entries).entries[0] == (0, 0, big + 5)


def test_induced_map_functoriality_on_composite():
    # pi o q through SP^3 equals the matrix product of the induced maps
    from finsub.homology import chain_map_matrices, induced_matrix_from_chain_map

    sub = reference_finite_subset_space(builtin_space("circle3"), 3, with_filtration=False)
    q, pi = sub.maps["q"], sub.maps["pi"]
    composite = compose_maps(pi, q)
    coords = {obj: HomologyCoordinates(normalized_chains(obj, with_labels=False))
              for obj in (q.source, q.target, pi.target)}
    for k in range(4):
        a = induced_matrix_from_chain_map(chain_map_matrices(q)[k], k,
                                          coords[q.source], coords[q.target])
        b = induced_matrix_from_chain_map(chain_map_matrices(pi)[k], k,
                                          coords[pi.source], coords[pi.target])
        c = induced_matrix_from_chain_map(chain_map_matrices(composite)[k], k,
                                          coords[q.source], coords[pi.target])
        n_src = coords[q.source].generator_count(k)
        n_mid = coords[q.target].generator_count(k)
        n_dst = coords[pi.target].generator_count(k)
        moduli = coords[pi.target].moduli(k)
        product = [[sum(b[i][t] * a[t][j] for t in range(n_mid))
                    for j in range(n_src)]
                   for i in range(n_dst)]
        reduce = lambda m: [[(v % moduli[i]) if moduli[i] else v for v in row]
                            for i, row in enumerate(m)]
        assert reduce(product) == reduce(c), k
