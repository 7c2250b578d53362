"""The orbit engine against the quotient constructions it replaces."""

import json
import random
import time
from importlib import import_module

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finsub import orbits
from finsub.cli import main
from finsub.constructions import finite_subset_space, symmetric_product
from finsub.homology import SparseIntMatrix, normalized_chains
from finsub.reference import REFERENCE_BUILDERS, engine_mismatches
from finsub.simplicial import (CellCapExceeded, NondegenerateComplex, NondegenerateMap,
                               SimplicialError)
from finsub.spaces import OrderedComplexSpec, builtin_space, load_complex

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


def test_engine_builds_no_product_and_no_quotient(monkeypatch):
    from finsub import simplicial

    def refuse(*args, **kwargs):
        raise AssertionError("the engine reached the X^n -> quotient path")

    for name in ("power", "quotient", "from_ordered_complex"):
        monkeypatch.setattr(simplicial, name, refuse)
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
    expected = [[index.get(tuple(sorted(set(s) | {v})), -1)
                 for v in range(spec.vertex_count)] for s in simplices]
    assert orbits._grow(simplices, index, spec.vertex_count).tolist() == expected


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
    r, c, v = (a.copy() for a in d3._arrays)
    v[random.Random(block).randrange(len(v))] *= -1
    broken = SparseIntMatrix.from_arrays(d3.nrows, d3.ncols, r, c, v)
    assert not d2.product_is_zero(broken)
    assert not d2.matmul(broken).is_zero()


def test_from_arrays_matches_the_constructor():
    rng = np.random.default_rng(3)
    rows, cols = rng.integers(0, 5, 40), rng.integers(0, 6, 40)
    vals = rng.integers(-2, 3, 40)
    a = SparseIntMatrix.from_arrays(5, 6, rows, cols, vals)
    b = SparseIntMatrix(5, 6, zip(rows.tolist(), cols.tolist(), vals.tolist()))
    assert a == b and a.nnz == b.nnz
