import importlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsub.homology import (ChainComplexZ, HomologyError, HomologyGroup,
                             HomologyCoordinates, SparseIntMatrix,
                             euler_characteristic, homology, homology_of_sset,
                             induced_map, invariant_factors, normalized_chains,
                             rank_mod_p, smith_normal_form,
                             universal_coefficients_consistent)
from finsub.simplicial import from_ordered_complex, identity_map, power, projections
from finsub.spaces import builtin_space


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------

def test_snf_identity():
    s = smith_normal_form(SparseIntMatrix.identity(4), verify=True)
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
    s = smith_normal_form(m, verify=True)
    assert s.diagonal == (2, 4)
    assert s.verify_unimodular()


def test_snf_zero_matrix():
    s = smith_normal_form(SparseIntMatrix.zeros(3, 5), verify=True)
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
    s = smith_normal_form(m, verify=True)
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
    proj = projections(S, 2)
    coords_p = HomologyCoordinates(normalized_chains(proj[0].source, with_labels=False))
    coords_s = HomologyCoordinates(normalized_chains(S, with_labels=False))
    # composing with the identity reproduces the projection matrix
    from finsub.simplicial import compose_maps, identity_map as ident
    comp = compose_maps(ident(S), proj[0])
    a = induced_map(proj[0], 1, coords_p, coords_s)
    b = induced_map(comp, 1, coords_p, coords_s)
    assert a == b


def test_induced_map_checks_degree_first(monkeypatch):
    # the package re-exports a function named homology over the submodule
    homology_module = importlib.import_module("finsub.homology")

    def no_chains(*args, **kwargs):
        raise AssertionError("chains built before the degree check")

    f = identity_map(from_ordered_complex(builtin_space("circle3"), 2))
    monkeypatch.setattr(homology_module, "normalized_chains", no_chains)
    for degree in (-1, 3):
        with pytest.raises(HomologyError, match="out of"):
            induced_map(f, degree)


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


def test_sparse_matrix_ops():
    a = SparseIntMatrix.from_dense([[1, 2], [3, 4]])
    b = SparseIntMatrix.from_dense([[0, 1], [1, 0]])
    assert a.matmul(b).to_dense() == [[2, 1], [4, 3]]
    assert a.transpose().to_dense() == [[1, 3], [2, 4]]
    assert a.matvec({0: 1, 1: 1}) == {0: 3, 1: 7}
    with pytest.raises(HomologyError):
        SparseIntMatrix(1, 1, [(0, 5, 3)])


def test_induced_map_functoriality_on_composite():
    # pi o q through SP^3 equals the matrix product of the induced maps
    from finsub.constructions import finite_subset_space
    from finsub.homology import chain_map_matrices, induced_matrix_from_chain_map
    from finsub.simplicial import compose_maps

    sub = finite_subset_space(builtin_space("circle3"), 3, with_filtration=False)
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
