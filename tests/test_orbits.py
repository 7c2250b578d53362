"""The orbit engine against the quotient constructions it replaces."""

import json
import random
import time
import tracemalloc
from importlib import import_module

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finsub import orbits
from finsub.cli import main
from finsub.constructions import finite_subset_space, reduced, symmetric_product
from finsub.homology import SparseIntMatrix, chain_map_matrices, normalized_chains
from finsub.simplicial import (CellCapExceeded, NondegenerateComplex, NondegenerateMap,
                               SimplicialError)
from finsub.spaces import OrderedComplexSpec, builtin_space, load_complex
from xn_reference import (REFERENCE_BUILDERS, chain_mismatches, collapse,
                          engine_mismatches, reference_fat_diagonal)

# the package's homology() function shadows the submodule as an attribute
homology = import_module("finsub.homology")


@st.composite
def complexes(draw, vertices=5, extra=4):
    """A connected complex on at most ``vertices`` vertices, of dimension at
    most 2, with at most ``extra`` edges and triangles besides a spanning
    tree, a random vertex order and a random basepoint."""
    count = draw(st.integers(1, vertices))
    perm = draw(st.permutations(range(count)))
    simplices = [[v] for v in range(count)]
    for v in range(1, count):   # a spanning tree keeps it connected
        simplices.append([draw(st.integers(0, v - 1)), v])
    if count > 1:
        simplex = st.lists(st.integers(0, count - 1), min_size=2, max_size=3, unique=True)
        simplices += draw(st.lists(simplex, max_size=extra))
    return load_complex(json.dumps({
        "vertices": count,
        "simplices": [sorted(perm[v] for v in s) for s in simplices],
        "basepoint": draw(st.integers(0, count - 1)),
    }))


MIN_N = {"sp": 1, "sub": 1, "based_sub3": 2, "fat": 2, "reduced_sp": 2, "reduced_sub": 2}


@settings(max_examples=200, deadline=None)
@given(spec=complexes(), construction=st.sampled_from(sorted(REFERENCE_BUILDERS)),
       n=st.integers(1, 3))
def test_engine_matches_reference(spec, construction, n):
    """Equal ranks, boundary matrices, labels and cell counts of the space
    and its parts, equal chain maps of every structure map and equal pi_1
    presentations, on complexes whose X^n stays small."""
    if construction == "based_sub3":
        n = 2
    assume(n >= MIN_N[construction])
    truncation = n * spec.dimension + 1
    assume(sum(N ** n for N in orbits.sequence_counts(spec, truncation)) <= 300_000)
    assert engine_mismatches(construction, spec, n) == []


@pytest.mark.parametrize("construction", sorted(REFERENCE_BUILDERS))
def test_engine_matches_reference_on_the_torus(construction):
    assert engine_mismatches(construction, builtin_space("torus"), 2) == []


FORMS = ("sp", "sub", "fat", "reduced_sp", "reduced_sub")


@pytest.mark.parametrize("construction, space, n",
                         [(c, "circle3", n) for n in (2, 3, 4) for c in FORMS]
                         + [(c, "sphere2", 2) for c in FORMS] + [("based_sub3", "torus", None)])
def test_engine_matches_reference_on_the_suite_models(construction, space, n):
    assert engine_mismatches(construction, builtin_space(space), n) == []


@pytest.mark.parametrize("space, n", [("circle3", 2), ("circle3", 3), ("sphere2", 2)])
def test_sp_modulo_the_fat_diagonal(space, n):
    """The engine's SP^n/fat is the collapse of the quotient's fat diagonal,
    whose homology is that of the engine's Sub_n/Sub_(n-1)."""
    spec = builtin_space(space)
    fat = reference_fat_diagonal(spec, n)
    collapsed, _ = collapse(fat.parts["sp"], fat.maps["incl_fat"])
    _, (engine,) = orbits.build(spec, n, [(orbits.sp_over_fat_form(n), "SP/fat")])
    assert chain_mismatches(engine, collapsed, "SP/fat") == []
    assert homology.homology_of_sset(collapsed).groups == \
        homology.homology_of_sset(reduced(spec, n, "sub").space).groups


@pytest.mark.parametrize("construction, space, n", [("sp", "circle3", 2), ("sub", "circle3", 3),
                                                    ("sp", "sphere2", 2),
                                                    ("based_sub3", "torus", None)])
def test_quotient_constructions_revalidate(construction, space, n):
    S = REFERENCE_BUILDERS[construction](builtin_space(space), n).space
    S.validate()
    C = normalized_chains(S, with_labels=False)
    assert all(C.boundary(k - 1).matmul(C.boundary(k)).is_zero()
               for k in range(2, C.top_degree + 1))


def test_engine_builds_no_product_and_no_quotient(monkeypatch):
    """No module of the package builds X^n or a quotient of it
    (tests/test_imports.py); the engine builds no TruncatedSimplicialSet
    either."""
    from finsub import simplicial

    def refuse(*args, **kwargs):
        raise AssertionError("the engine built every cell of a simplicial set")

    monkeypatch.setattr(simplicial, "from_ordered_complex", refuse)
    monkeypatch.setattr(simplicial.TruncatedSimplicialSet, "validate", refuse)
    sub = finite_subset_space(builtin_space("sphere2"), 3)
    assert sub.space.nondeg_counts() == (14, 161, 1014, 3040, 4576, 3360, 960, 0)
    assert sub.space.total_cells() == 632220


def test_cap_is_checked_before_enumeration(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration reached")

    monkeypatch.setattr(orbits.Sequences, "__init__", refuse)
    with pytest.raises(CellCapExceeded, match="cap"):
        symmetric_product(builtin_space("sphere3"), 11)
    assert main(["homology", "--space", "builtin:sphere3", "--construction", "sp",
                 "--n", "14"]) == 3
    assert "FINSUB_CELL_CAP" in capsys.readouterr().err


def test_cap_is_checked_before_the_downward_closure(monkeypatch):
    """S^24 has 2^26 - 2 simplices; its largest simplex alone puts Sub_2 over
    the cap."""
    def refuse(self):
        raise AssertionError("the downward closure was formed")

    monkeypatch.setattr(OrderedComplexSpec, "simplex_set", property(refuse))
    with pytest.raises(CellCapExceeded, match="cap"):
        finite_subset_space(builtin_space("sphere24"), 2)


def test_cap_counts_all_cells(monkeypatch):
    """The cap compares the cells, degenerate ones included, of X, SP^3 and
    Sub_3 together."""
    spec = builtin_space("circle3")
    sub = finite_subset_space(spec, 3, with_filtration=False)
    assert sub.space.total_cells() == 1050
    total = sum(S.total_cells() for S in (sub.parts["base"], sub.maps["pi"].source, sub.space))
    assert total == 45 + 1275 + 1050
    monkeypatch.setenv("FINSUB_CELL_CAP", str(total - 1))
    with pytest.raises(CellCapExceeded):
        finite_subset_space(spec, 3, with_filtration=False)
    monkeypatch.setenv("FINSUB_CELL_CAP", str(total))
    finite_subset_space(spec, 3, with_filtration=False)


def test_cap_stops_counting_once_passed():
    """SP^10000 of a circle has a cell count of thousands of digits; the
    check stops at the cap instead of summing and printing it."""
    start = time.perf_counter()
    with pytest.raises(CellCapExceeded, match="cap") as exc:
        symmetric_product(builtin_space("circle3"), 10_000)
    assert time.perf_counter() - start < 1.0
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("name", ["torus", "sphere3", "circle300"])
def test_grow_table_matches_its_definition(name):
    spec = builtin_space(name)
    simplices = sorted(spec.simplex_set)
    index = {s: i for i, s in enumerate(simplices)}
    V = spec.vertex_count
    expected = {(i, v): index[t] for i, s in enumerate(simplices) for v in range(V)
                if (t := tuple(sorted(set(s) | {v}))) in index}
    keys, grown = orbits._grow(simplices, index, V)
    assert keys.tolist() == sorted(keys.tolist())
    pairs = zip(*(a.tolist() for a in divmod(keys, V)))
    assert dict(zip(pairs, grown.tolist())) == expected
    assert len(keys) == len(expected)


def test_sequences_memory_grows_with_cells_not_cells_times_vertices():
    # dense simplices x V and N_1 x V tables of int64 would take 256 MB each
    spec = builtin_space("circle4000")
    tracemalloc.start()
    try:
        X = orbits.Sequences(spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.counts == [4000, 8000]
    assert peak < 64 * 2 ** 20


def _assert_nondegenerate_rows_are_covered(spec, most=3):
    # OrbitSpace takes these rows without checking their cover again
    for n in range(1, most + 1):
        X = orbits.Sequences(spec, orbits.default_truncation(spec, n))
        for k in range(X.truncation + 1):
            for sets in (False, True):
                assert X.covered(X.nondegenerate_rows(k, n, sets), k).all()


@pytest.mark.parametrize("name", ["interval", "circle3", "circle4", "sphere2", "sphere3",
                                  "torus", "rp2", "wedge_circles2"])
def test_nondegenerate_rows_are_covered(name):
    # SP^3 of the 3-sphere, truncated at level 10, alone would take seconds
    _assert_nondegenerate_rows_are_covered(builtin_space(name), 2 if name == "sphere3" else 3)


@settings(max_examples=50, deadline=None)
@given(spec=complexes())
def test_nondegenerate_rows_are_covered_on_random_complexes(spec):
    _assert_nondegenerate_rows_are_covered(spec)


def _form(faces, ranks):
    return NondegenerateComplex("t", ranks, [None] + faces, ranks, lambda k, i: i)


def test_face_identity_is_checked():
    # the 2-simplex: vertices 0, 1, 2; edges 01, 02, 12; faces d0, d1, d2
    edges = np.array([[1, 0], [2, 0], [2, 1]])
    _form([edges, np.array([[2, 1, 0]])], (3, 3, 1))
    with pytest.raises(SimplicialError, match="face identity"):
        _form([edges, np.array([[2, 0, 1]])], (3, 3, 1))
    with pytest.raises(SimplicialError, match="out of range"):
        _form([edges, np.array([[3, 1, 0]])], (3, 3, 1))


def test_map_is_checked_to_commute_with_faces():
    edges = np.array([[1, 0], [2, 0], [2, 1]])
    tri = _form([edges, np.array([[2, 1, 0]])], (3, 3, 1))
    swap = [np.array([1, 0, 2]), np.array([0, 1, 2]), np.array([0])]
    with pytest.raises(SimplicialError, match="commute"):
        NondegenerateMap(tri, tri, swap)
    NondegenerateMap(tri, tri, [np.arange(3), np.arange(3), np.arange(1)])


@pytest.mark.parametrize("block", [1, 2, 7, homology.PRODUCT_BLOCK])
def test_product_is_zero_in_blocks(monkeypatch, block):
    monkeypatch.setattr(homology, "PRODUCT_BLOCK", block)
    C = normalized_chains(symmetric_product(builtin_space("sphere2"), 2).space)
    for k in range(2, C.top_degree + 1):
        assert C.boundary(k - 1).product_is_zero(C.boundary(k))
    d2, d3 = C.boundary(2), C.boundary(3)
    r, c, v = (a.copy() for a in d3.arrays)
    v[random.Random(block).randrange(len(v))] *= -1
    broken = SparseIntMatrix.from_arrays(d3.nrows, d3.ncols, r, c, v)
    assert not d2.product_is_zero(broken)
    assert not d2.matmul(broken).is_zero()


def test_product_is_zero_bounds_its_memory():
    # A = (1 | -1) on 1024 rows and B all ones on 2 x 1280 vanish together
    # after 2 621 440 entry products, more than 2^21; the blocks of
    # PRODUCT_BLOCK products keep the peak far below their one-block cost
    n, m = 1024, 1280
    A = SparseIntMatrix.from_arrays(n, 2, np.repeat(np.arange(n), 2), np.tile([0, 1], n),
                                    np.tile([1, -1], n))
    B = SparseIntMatrix.from_arrays(2, m, np.repeat([0, 1], m), np.tile(np.arange(m), 2),
                                    np.ones(2 * m, dtype=np.int64))
    tracemalloc.start()
    try:
        assert A.product_is_zero(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


BOUND = homology.INT64_ENTRY_BOUND
# values on both sides of the int64 bound, of int64 itself and beyond it
VALUES = [0, 1, -1, BOUND - 1, 1 - BOUND, BOUND, -BOUND, 2 ** 62, -(2 ** 62),
          2 ** 70, -(2 ** 70)]


def _matrix_entries(nrows, ncols):
    return st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                              st.sampled_from(VALUES)), max_size=10)


@settings(max_examples=300, deadline=None)
@given(entries=_matrix_entries(3, 4), other=_matrix_entries(4, 2))
@example(entries=[(0, 0, BOUND - 1), (0, 0, BOUND - 1)], other=[])
@example(entries=[(0, 0, 2 ** 62), (0, 0, 2 ** 62), (0, 0, -(2 ** 62))], other=[])
@example(entries=[(0, 0, 2 ** 70), (0, 1, BOUND - 1)],
         other=[(0, 0, BOUND - 1), (1, 0, -(2 ** 70))])
@example(entries=[(1, 2, BOUND - 1), (1, 3, BOUND - 1)], other=[(2, 1, 1), (3, 1, -1)])
def test_from_arrays_matches_the_constructor(entries, other):
    total = {}
    for r, c, v in entries:
        total[r, c] = total.get((r, c), 0) + v
    stored = tuple(sorted((r, c, v) for (r, c), v in total.items() if v))
    rows, cols, vals = (list(t) for t in zip(*entries)) if entries else ([], [], [])
    fits = all(abs(v) < 2 ** 63 for v in vals)
    a = SparseIntMatrix.from_arrays(3, 4, np.array(rows, dtype=np.int64),
                                    np.array(cols, dtype=np.int64),
                                    np.array(vals, dtype=np.int64 if fits else object))
    b = SparseIntMatrix(3, 4, entries)
    assert a == b and a.nnz == b.nnz and a.entries == b.entries == stored
    # int64 exactly when every stored value is below the bound, after sums
    small = all(abs(v) < BOUND for _, _, v in stored)
    assert (a.arrays[2].dtype == np.int64) == (b.arrays[2].dtype == np.int64) == small
    B = SparseIntMatrix(4, 2, other)
    assert a.product_is_zero(B) == a.matmul(B).is_zero()


def test_from_arrays_normalizes_its_entries_once(monkeypatch):
    calls = []
    normalized = homology._normalized
    monkeypatch.setattr(homology, "_normalized",
                        lambda *args: calls.append(args) or normalized(*args))
    M = SparseIntMatrix.from_arrays(2, 3, np.array([1, 0, 1]), np.array([0, 2, 0]),
                                    np.array([4, 5, -4]))
    assert len(calls) == 1
    assert M.entries == ((0, 2, 5),) and M.nrows == 2 and M.ncols == 3


@pytest.mark.parametrize("entry", [(2, 0, 1), (-1, 0, 1), (0, 4, 1), (2 ** 70, 0, 1),
                                   (0, -(2 ** 70), 1)])
def test_entries_out_of_range_are_rejected(entry):
    with pytest.raises(homology.HomologyError, match="out of range"):
        SparseIntMatrix(2, 4, [entry])


def test_sp2_torus_matrices_hold_int64_values():
    sp = symmetric_product(builtin_space("torus"), 2)
    C = normalized_chains(sp.space, with_labels=False)
    assert C.boundaries and all(M.arrays[2].dtype == np.int64 for M in C.boundaries.values())
    maps = [M for f in sp.maps.values() for M in chain_map_matrices(f).values()]
    assert maps and all(M.arrays[2].dtype == np.int64 for M in maps)
