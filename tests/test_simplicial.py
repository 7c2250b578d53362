import time
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsub.homology import euler_characteristic, homology_of_sset, normalized_chains
from finsub.simplicial import (SimplicialError, TruncatedSimplicialSet, cell_cap,
                               from_ordered_complex)
from finsub.spaces import builtin_space, load_complex
from test_orbits import complexes
from xn_reference import (SSetMap, _normalize_pairs, collapse, compose_maps,
                          degenerate_tower, identity_map, power, quotient, same_cells,
                          sub_object)


@pytest.fixture(scope="module")
def circle():
    return from_ordered_complex(builtin_space("circle3"), 2)


def _projections(S, n):
    """The n coordinate projections S^n -> S, checked as simplicial maps."""
    P, coordinates = power(S, n)
    return tuple(SSetMap(P, S, tuple(c[t] for c in coordinates), name=f"proj{t}")
                 for t in range(n))


def test_circle_nondegenerate_counts(circle):
    assert circle.nondeg_counts() == (3, 3, 0)


def test_circle_level2_count_against_enumeration(circle):
    # oracle: monotone triples over {0,1,2} whose support is a simplex
    simplices = builtin_space("circle3").simplex_set
    oracle = [t for t in combinations_with_replacement(range(3), 3)
              if tuple(sorted(set(t))) in simplices]
    assert circle.counts[2] == len(oracle) == 9


def test_sphere_nondegenerate_counts():
    S = from_ordered_complex(builtin_space("sphere2"), 3)
    assert S.nondeg_counts() == (4, 6, 4, 0)


def test_truncation_below_dimension_rejected():
    with pytest.raises(SimplicialError):
        from_ordered_complex(builtin_space("sphere2"), 1)


def scan_ordered_complex(spec, truncation):
    """The cells of an ordered complex found by scanning every monotone
    vertex tuple, C(V + k, k + 1) of them at level k: per level the cells
    in lexicographic order, and the face and degeneracy tables as lists.
    This was ``from_ordered_complex`` before it read the orbit engine's
    ``Sequences`` table; it is kept here as that table's oracle."""
    levels, index = [], []
    for k in range(truncation + 1):
        cells = [t for t in combinations_with_replacement(range(spec.vertex_count), k + 1)
                 if tuple(sorted(set(t))) in spec.simplex_set]
        levels.append(cells)
        index.append({t: i for i, t in enumerate(cells)})
    faces = [[[index[k - 1][t[:i] + t[i + 1:]] for i in range(k + 1)] for t in levels[k]]
             for k in range(1, truncation + 1)]
    degens = [[[index[k + 1][t[:j + 1] + t[j:]] for j in range(k + 1)] for t in levels[k]]
              for k in range(truncation)]
    return levels, faces, degens


def _assert_matches_scan(spec, truncation):
    S = from_ordered_complex(spec, truncation)
    levels, faces, degens = scan_ordered_complex(spec, truncation)
    assert S.counts == tuple(len(cells) for cells in levels)
    assert [[S.payload(k, i) for i in range(S.counts[k])]
            for k in range(truncation + 1)] == levels
    assert [S.faces[k].tolist() for k in range(1, truncation + 1)] == faces
    assert [S.degens[k].tolist() for k in range(truncation)] == degens


@pytest.mark.parametrize("name", ["interval", "circle3", "circle4", "sphere2", "sphere3",
                                  "torus", "rp2", "wedge_circles2"])
@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_from_ordered_complex_matches_the_scan(name, extra):
    spec = builtin_space(name)
    _assert_matches_scan(spec, spec.dimension + extra)


@settings(max_examples=100, deadline=None)
@given(spec=complexes(), extra=st.integers(0, 3))
def test_from_ordered_complex_matches_the_scan_on_random_complexes(spec, extra):
    _assert_matches_scan(spec, spec.dimension + extra)


def test_from_ordered_complex_scales_with_the_cells():
    # the scan visits C(203, 4), about 69 million, tuples at level 3
    start = time.perf_counter()
    S = from_ordered_complex(builtin_space("circle200"), 3)
    assert time.perf_counter() - start < 1.0
    assert S.counts == (200, 400, 600, 800)


def test_payloads_are_lex_sorted(circle):
    for k in range(circle.truncation + 1):
        payloads = [circle.payload(k, i) for i in range(circle.counts[k])]
        assert payloads == sorted(payloads)


def test_power_square_of_circle(circle):
    P, coordinates = power(circle, 2)
    # triangulated torus: nondegenerate cells and Euler characteristic
    assert P.nondeg_counts() == (9, 27, 18)
    assert euler_characteristic(normalized_chains(P)) == 0
    h = homology_of_sset(P)
    assert [str(g) for g in h.groups] == ["Z", "Z^2", "Z"]
    # the top level still carries cells, so degree 2 is flagged
    assert h.unreliable == frozenset({2})
    assert [c.shape for c in coordinates] == [(2, n) for n in P.counts]
    proj = _projections(circle, 2)
    assert len(proj) == 2
    for t, p in enumerate(proj):
        assert same_cells(p.source, P)
        assert p.target is circle
        for k in range(P.truncation + 1):
            assert np.array_equal(p.assignment[k], coordinates[k][t])


def test_power_one_is_identity(circle):
    P, _ = power(circle, 1)
    assert same_cells(P, circle)


def test_power_of_interval_is_contractible():
    I = from_ordered_complex(builtin_space("interval"), 2)
    P, _ = power(I, 2)
    groups = homology_of_sset(P).groups
    assert [str(g) for g in groups] == ["Z", "0", "0"]


def test_quotient_empty_relation(circle):
    Q, proj = quotient(circle, {})
    assert same_cells(Q, circle)
    assert all(np.array_equal(a, np.arange(len(a))) for a in proj.assignment)


def test_quotient_collapse_vertices_gives_wedge(circle):
    # gluing the three vertices of the triangle gives a wedge of 3 circles
    Q, _ = quotient(circle, {0: ([0, 1], [1, 2])})
    groups = homology_of_sset(Q).groups
    assert groups[0].betti == 1
    assert groups[1].betti == 3 and not groups[1].torsion
    assert euler_characteristic(normalized_chains(Q)) == -2


def test_quotient_closure_under_faces(circle):
    # seed swaps at the top level only; faces force them all the way down
    P, _ = power(circle, 2)
    M2 = circle.counts[2]
    idx2 = np.arange(P.counts[2], dtype=np.int64)
    swapped2 = (idx2 % M2) * M2 + idx2 // M2
    Q, proj = quotient(P, {2: (idx2, swapped2)})
    for k in (0, 1):
        Mk = circle.counts[k]
        idx = np.arange(P.counts[k], dtype=np.int64)
        swapped = (idx % Mk) * Mk + idx // Mk
        assert np.array_equal(proj.assignment[k], proj.assignment[k][swapped])


def test_quotient_closure_under_degeneracies(circle):
    # seed a vertex swap; its degeneracies must be identified one level up
    P, _ = power(circle, 2)
    M0, M1 = circle.counts[0], circle.counts[1]
    Q, proj = quotient(P, {0: ([0 * M0 + 1], [1 * M0 + 0])})
    s0 = circle.degens[0][0, 0]
    s1 = circle.degens[0][1, 0]
    assert proj.assignment[1][s0 * M1 + s1] == proj.assignment[1][s1 * M1 + s0]


def test_sub_object_closure_violation(circle):
    # a lone edge without its endpoints is not a subcomplex
    with pytest.raises(SimplicialError, match="closed"):
        sub_object(circle, lambda level, payload: level == 1 and payload == (0, 1))


def test_sub_object_vertex_star(circle):
    # cells supported on vertex 0 form a point subobject
    A, incl = sub_object(circle, lambda level, payload: set(payload) == {0})
    assert A.counts[0] == 1
    assert incl.target is circle
    groups = homology_of_sset(A).groups
    assert [str(g) for g in groups] == ["Z", "0", "0"]


def test_collapse_whole_space_is_point(circle):
    A, incl = sub_object(circle, lambda level, payload: True)
    Q, _ = collapse(circle, incl)
    assert Q.counts[0] == 1
    assert Q.nondeg_counts() == (1, 0, 0)


def test_compose_maps_and_identity(circle):
    ident = identity_map(circle)
    comp = compose_maps(ident, ident)
    assert all(np.array_equal(a, b) for a, b in
               zip(comp.assignment, ident.assignment))
    proj = _projections(circle, 2)
    back = compose_maps(ident, proj[0])
    assert all(np.array_equal(a, b) for a, b in
               zip(back.assignment, proj[0].assignment))


def test_compose_maps_mismatch(circle):
    proj = _projections(circle, 2)
    with pytest.raises(SimplicialError, match="source"):
        compose_maps(proj[0], proj[0])


def test_map_validation_catches_noncommuting(circle):
    bad = [np.arange(n, dtype=np.int64) for n in circle.counts]
    bad[0] = np.roll(bad[0], 1)
    with pytest.raises(SimplicialError, match="commute"):
        SSetMap(circle, circle, tuple(bad))


def test_degenerate_tower(circle):
    t0 = degenerate_tower(circle, 1, 0)
    assert circle.payload(0, t0) == (1,)
    t2 = degenerate_tower(circle, 1, 2)
    assert circle.payload(2, t2) == (1, 1, 1)
    assert not circle.nondegenerate(2)[t2]


def test_dump_smoke(circle, capsys):
    circle.dump()
    out = capsys.readouterr().out
    assert "level 0: 3 cells" in out


def test_validation_rejects_broken_faces(circle):
    faces = [None] + [f.copy() for f in circle.faces[1:]]
    faces[1][0, 0] = (faces[1][0, 0] + 1) % circle.counts[0]
    degens = [s.copy() for s in circle.degens[:-1]]
    with pytest.raises(SimplicialError):
        from finsub.simplicial import TruncatedSimplicialSet
        TruncatedSimplicialSet(circle.truncation, circle.counts, faces, degens,
                               circle.payload)


def test_cell_cap_rejects_malformed_values(monkeypatch):
    for value in ("abc", "-1", "1.5", "²"):
        monkeypatch.setenv("FINSUB_CELL_CAP", value)
        with pytest.raises(SimplicialError, match="FINSUB_CELL_CAP"):
            cell_cap()
    for value, cap in (("0", 0), (" 100", 100), ("100\n", 100), ("1_000", 1000)):
        monkeypatch.setenv("FINSUB_CELL_CAP", value)
        assert cell_cap() == cap


# ----------------------------------------------------------------------
# differential test of quotient against a union-find reference
# ----------------------------------------------------------------------

def reference_quotient(S, pairs):
    """Quotient by a union-find saturation queue, one cell pair at a time.

    This is the quotient as it was before the levelwise component
    labelling; it is kept here only as an oracle.
    """
    by_level = _normalize_pairs(pairs)
    D = S.truncation
    parent = [list(range(c)) for c in S.counts]
    size = [[1] * c for c in S.counts]

    def find(p, x):
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    stack = []
    for level, (arr_a, arr_b) in sorted(by_level.items(), reverse=True):
        stack.extend(zip([level] * len(arr_a), arr_a.tolist(), arr_b.tolist()))
    while stack:
        k, a, b = stack.pop()
        pk = parent[k]
        ra, rb = find(pk, a), find(pk, b)
        if ra == rb:
            continue
        sk = size[k]
        if sk[ra] < sk[rb]:
            ra, rb = rb, ra
        pk[rb] = ra
        sk[ra] += sk[rb]
        if k > 0:
            pk1 = parent[k - 1]
            for x, y in zip(S.faces[k][a].tolist(), S.faces[k][b].tolist()):
                if find(pk1, x) != find(pk1, y):
                    stack.append((k - 1, x, y))
        if k < D:
            pk1 = parent[k + 1]
            for x, y in zip(S.degens[k][a].tolist(), S.degens[k][b].tolist()):
                if find(pk1, x) != find(pk1, y):
                    stack.append((k + 1, x, y))

    # classes ordered by their minimal member
    class_of, reps = [], []
    for k in range(D + 1):
        n = S.counts[k]
        roots = np.array([find(parent[k], i) for i in range(n)], dtype=np.int64)
        uniq, inverse = np.unique(roots, return_inverse=True)
        mins = np.full(len(uniq), n, dtype=np.int64)
        np.minimum.at(mins, inverse, np.arange(n, dtype=np.int64))
        order = np.argsort(mins, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order] = np.arange(len(uniq), dtype=np.int64)
        class_of.append(rank[inverse])
        reps.append(mins[order])
    faces = [None] + [class_of[k - 1][S.faces[k][reps[k]]] for k in range(1, D + 1)]
    degens = [class_of[k + 1][S.degens[k][reps[k]]] for k in range(D)]
    Q = TruncatedSimplicialSet(D, [len(r) for r in reps], faces, degens,
                               lambda level, i: S.payload(level, int(reps[level][i])))
    return Q, SSetMap(S, Q, tuple(class_of))


_DELTA2 = '{"vertices": 3, "simplices": [[0, 1, 2]], "name": "delta2"}'
_POWERS = {"circle3^2": ("circle3", 2), "interval^3": ("interval", 3),
           "delta2^2": (None, 2)}


@lru_cache(maxsize=None)
def _small_power(key):
    name, n = _POWERS[key]
    spec = load_complex(_DELTA2) if name is None else builtin_space(name)
    return power(from_ordered_complex(spec, 2), n)[0]


@st.composite
def _relations(draw):
    """A small power and generating pairs at some of its levels.

    ``top`` and ``vertex`` seed one end of the tower only, so the closure
    must run down the faces or up the degeneracies; ``chain`` links a
    random selection of cells in a path, as :func:`collapse` does.
    """
    key = draw(st.sampled_from(sorted(_POWERS)))
    P = _small_power(key)
    D = P.truncation
    kind = draw(st.sampled_from(["top", "vertex", "levels", "chain"]))
    if kind == "top":
        levels = [D]
    elif kind == "vertex":
        levels = [0]
    else:
        levels = draw(st.lists(st.integers(0, D), min_size=1, max_size=D + 1,
                               unique=True))
    pairs = {}
    for k in levels:
        cell = st.integers(0, P.counts[k] - 1)
        if kind == "chain":
            chain = sorted(draw(st.sets(cell, max_size=8)))
            a, b = chain[:-1], chain[1:]
        else:
            a = draw(st.lists(cell, min_size=1, max_size=5))
            b = draw(st.lists(cell, min_size=len(a), max_size=len(a)))
        pairs[k] = (np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    return key, pairs


@settings(max_examples=300, deadline=None)
@given(_relations())
def test_quotient_matches_union_find(relation):
    key, pairs = relation
    P = _small_power(key)
    Q, proj = quotient(P, pairs)
    R, ref = reference_quotient(P, pairs)
    assert Q.counts == R.counts
    assert same_cells(Q, R)
    assert len(proj.assignment) == len(ref.assignment)
    for got, want in zip(proj.assignment, ref.assignment):
        assert np.array_equal(got, want)
