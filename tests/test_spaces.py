import json
from itertools import combinations

import pytest

from finsub.spaces import ComplexError, OrderedComplexSpec, builtin_space, load_complex


def test_load_circle_json():
    spec = load_complex('{"name":"circle3","vertices":3,"simplices":[[0,1],[0,2],[1,2]]}')
    assert spec.vertex_count == 3
    assert spec.dimension == 1
    assert spec.maximal_simplices == ((0, 1), (0, 2), (1, 2))


def test_load_boundary_of_tetrahedron():
    spec = load_complex('{"vertices":4,"simplices":[[0,1,2],[0,1,3],[0,2,3],[1,2,3]]}')
    assert spec.dimension == 2
    assert len(spec.maximal_simplices) == 4


def test_duplicate_vertex_rejected():
    with pytest.raises(ComplexError, match="duplicate|increasing"):
        load_complex('{"vertices":2,"simplices":[[0,0]]}')


def test_unsorted_simplex_rejected():
    with pytest.raises(ComplexError):
        load_complex('{"vertices":2,"simplices":[[1,0]]}')


def test_out_of_range_rejected():
    with pytest.raises(ComplexError, match="range"):
        load_complex('{"vertices":2,"simplices":[[0,5]]}')


def test_disconnected_rejected():
    with pytest.raises(ComplexError, match="disconnected|no simplex"):
        load_complex('{"vertices":4,"simplices":[[0,1],[2,3]]}')


def test_uncovered_vertices_are_counted_not_listed():
    with pytest.raises(ComplexError, match="belong to no simplex") as exc:
        load_complex('{"vertices": 1000000, "simplices": [[0, 1]]}')
    assert len(str(exc.value)) < 200 and "999998" in str(exc.value)


def test_parse_failure():
    with pytest.raises(ComplexError, match="parse"):
        load_complex("not json")


def test_serialize_roundtrip():
    for name in ["interval", "circle3", "circle5", "sphere1", "sphere2",
                 "sphere3", "torus", "rp2", "wedge_circles2"]:
        spec = builtin_space(name)
        assert load_complex(spec.serialize()) == spec


def test_sphere2_is_tetrahedron_boundary():
    spec = builtin_space("sphere2")
    assert spec.vertex_count == 4
    assert spec.maximal_simplices == tuple(combinations(range(4), 3))


def _face_counts(spec):
    by_dim = {}
    for s in spec.simplex_set:
        by_dim[len(s) - 1] = by_dim.get(len(s) - 1, 0) + 1
    return by_dim


def test_torus_euler_count():
    # minimal 7-vertex torus: 7 vertices, 21 edges, 14 triangles, chi = 0
    spec = builtin_space("torus")
    counts = _face_counts(spec)
    assert (counts[0], counts[1], counts[2]) == (7, 21, 14)
    assert counts[0] - counts[1] + counts[2] == 0
    # closed surface: each edge lies in exactly two triangles
    for edge in combinations(range(7), 2):
        containing = [t for t in spec.maximal_simplices if set(edge) <= set(t)]
        assert len(containing) == 2


def test_rp2_euler_count():
    spec = builtin_space("rp2")
    counts = _face_counts(spec)
    assert (counts[0], counts[1], counts[2]) == (6, 15, 10)
    assert counts[0] - counts[1] + counts[2] == 1
    for edge in combinations(range(6), 2):
        containing = [t for t in spec.maximal_simplices if set(edge) <= set(t)]
        assert len(containing) == 2


def test_builtin_parameter_spellings():
    assert builtin_space("circle(4)") == builtin_space("circle4")
    assert builtin_space("sphere(2)") == builtin_space("sphere2")


def test_builtin_errors():
    with pytest.raises(ComplexError):
        builtin_space("circle2")
    with pytest.raises(ComplexError):
        builtin_space("sphere0")
    with pytest.raises(ComplexError):
        builtin_space("klein_bottle")


def test_wedge_circles():
    spec = builtin_space("wedge_circles3")
    assert spec.vertex_count == 7
    assert len(spec.maximal_simplices) == 9
    assert spec.dimension == 1


BAD_JSON = [
    '{"vertices": 3, "simplices": [[0, 1], [1, 2], [0, 2]], "basepoint": "x"}',
    '{"vertices": 3, "simplices": [[0, 1], [1, 2], [0, 2]], "basepoint": null}',
    '{"vertices": 3, "simplices": [[0, 1.7], [1, 2], [0, 2]]}',
    '{"vertices": 3, "simplices": [[0, 1], [1, 2], [0, 2]], "basepoint": 1.9}',
    '{"vertices": true, "simplices": [[0]]}',
    '{"vertices": 3, "simplices": [[0, true], [1, 2], [0, 2]]}',
    '{"vertices": 3, "simplices": {"0": [0, 1]}}',
    '{"vertices": 3, "simplices": [[0, 1], 2]}',
    '{"vertices": 3, "simplices": "012"}',
    '{"vertices": 3}',
]


@pytest.mark.parametrize("text", BAD_JSON)
def test_load_complex_accepts_only_integers_and_lists(text):
    with pytest.raises(ComplexError):
        load_complex(text)
