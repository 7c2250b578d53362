import numpy as np
import pytest
from hypothesis import given, settings

from finsub.constructions import (based_subset3, cylinder_chain_model,
                                  fat_diagonal, finite_subset_space, reduced,
                                  sub3_homology_via_coproduct,
                                  symmetric_product)
from finsub.homology import (ChainComplexZ, HomologyCoordinates, SparseIntMatrix,
                             chain_map_matrices, euler_characteristic, homology,
                             homology_of_sset, induced_matrix_from_chain_map,
                             normalized_chains)
from finsub.spaces import builtin_space, load_complex
from test_orbits import complexes
from xn_reference import (compose_maps, degenerate_tower, direct_subset_quotient,
                          reference_finite_subset_space, reference_symmetric_product,
                          same_cells, sub_object)


def groups_str(result):
    return [str(g) for g in result.groups]


@pytest.fixture(scope="module")
def circle():
    return builtin_space("circle3")


@pytest.fixture(scope="module")
def sphere(request):
    return builtin_space("sphere2")


# ----------------------------------------------------------------------
# symmetric products
# ----------------------------------------------------------------------

def test_sp1_is_the_space(circle):
    sp = reference_symmetric_product(circle, 1)
    assert same_cells(sp.space, sp.parts["base"])


def test_sp2_circle_is_moebius(circle):
    sp = symmetric_product(circle, 2)
    assert groups_str(homology_of_sset(sp.space)) == ["Z", "Z", "0", "0"]


def test_sp2_sphere_is_cp2(sphere):
    sp = symmetric_product(sphere, 2)
    assert groups_str(homology_of_sset(sp.space)) == ["Z", "0", "Z", "0", "Z", "0"]
    assert euler_characteristic(normalized_chains(sp.space)) == 3


def test_sp2_wedge_of_two_circles_is_torus_like():
    w = builtin_space("wedge_circles2")
    sp = symmetric_product(w, 2)
    assert groups_str(homology_of_sset(sp.space)) == ["Z", "Z^2", "Z", "0"]


def test_structure_maps_agree_on_basepoint(circle):
    sp = reference_symmetric_product(circle, 2)
    # j_n and diag agree on the basepoint tower at every level
    X = sp.parts["base"]
    for k in range(X.truncation + 1):
        t = degenerate_tower(X, circle.basepoint, k)
        assert sp.maps["j_n"].assignment[k][t] == sp.maps["diag"].assignment[k][t]


# ----------------------------------------------------------------------
# finite subset spaces
# ----------------------------------------------------------------------

def test_sub1_is_the_space(circle):
    sub = reference_finite_subset_space(circle, 1, with_filtration=False)
    assert same_cells(sub.space, sub.parts["base"])


def test_sub2_equals_sp2(circle):
    sub = reference_finite_subset_space(circle, 2)
    sp = reference_symmetric_product(circle, 2)
    assert same_cells(sub.space, sp.space)


def test_sub3_circle_is_s3(circle):
    sub = finite_subset_space(circle, 3, with_filtration=False)
    h = homology_of_sset(sub.space)
    assert groups_str(h) == ["Z", "0", "0", "Z", "0"]
    assert h.unreliable == frozenset()
    assert euler_characteristic(normalized_chains(sub.space)) == 0


def test_sub4_circle_is_s3(circle):
    sub = finite_subset_space(circle, 4, with_filtration=False)
    assert groups_str(homology_of_sset(sub.space)) == ["Z", "0", "0", "Z", "0", "0"]


def test_composite_projection_equals_direct_quotient(circle):
    sub = reference_finite_subset_space(circle, 3, with_filtration=False)
    composite = compose_maps(sub.maps["pi"], sub.maps["q"])
    direct, proj = direct_subset_quotient(circle, 3)
    assert same_cells(direct, sub.space)
    assert all(np.array_equal(a, b)
               for a, b in zip(composite.assignment, proj.assignment))


def test_filtration_subobject_matches_smaller_subset_space(circle):
    sub = finite_subset_space(circle, 3, with_filtration=True)
    prev = sub.parts["filtration_sub"]
    sub2 = finite_subset_space(circle, 2, with_filtration=False)
    h_prev = homology_of_sset(prev)
    h_sub2 = homology_of_sset(sub2.space)
    top = max(prev.truncation, sub2.space.truncation)
    assert [str(h_prev.group(k)) for k in range(top + 1)] == \
        [str(h_sub2.group(k)) for k in range(top + 1)]


def test_singleton_inclusion_is_valid(circle):
    sub = finite_subset_space(circle, 3, with_filtration=False)
    j = sub.maps["j"]
    assert j.source is sub.parts["base"]
    assert j.target is sub.space


# ----------------------------------------------------------------------
# fat diagonal
# ----------------------------------------------------------------------

def test_fat_diagonal_two_is_the_space(circle):
    fat = fat_diagonal(circle, 2)
    assert groups_str(homology_of_sset(fat.space)) == ["Z", "Z", "0", "0"]


def test_fat_diagonal_three_of_circle_is_torus(circle):
    fat = fat_diagonal(circle, 3)
    assert groups_str(homology_of_sset(fat.space)) == ["Z", "Z^2", "Z", "0", "0"]


def test_fat_diagonal_two_of_sphere(sphere):
    fat = fat_diagonal(sphere, 2)
    assert groups_str(homology_of_sset(fat.space)) == \
        ["Z", "0", "Z", "0", "0", "0"]


def test_diagonal_subobject_is_the_space(circle):
    sp = reference_symmetric_product(circle, 2)
    diag, _ = sub_object(sp.space, lambda level, payload: len(set(payload)) == 1)
    assert groups_str(homology_of_sset(diag)) == ["Z", "Z", "0", "0"]


# ----------------------------------------------------------------------
# reduced constructions
# ----------------------------------------------------------------------

def test_reduced_sub2_circle_is_rp2(circle):
    red = reduced(circle, 2, "sub")
    assert groups_str(homology_of_sset(red.space)) == ["Z", "Z/2", "0", "0"]


def test_reduced_sp2_circle_acyclic(circle):
    red = reduced(circle, 2, "sp")
    assert groups_str(homology_of_sset(red.space)) == ["Z", "0", "0", "0"]


def test_reduced_sp2_sphere_is_s4(sphere):
    red = reduced(sphere, 2, "sp")
    assert groups_str(homology_of_sset(red.space)) == \
        ["Z", "0", "0", "0", "Z", "0"]


def test_reduced_sub2_sphere(sphere):
    red = reduced(sphere, 2, "sub")
    assert groups_str(homology_of_sset(red.space)) == \
        ["Z", "0", "Z/2", "0", "Z", "0"]


# ----------------------------------------------------------------------
# the three models of Sub_3(X, x0)
# ----------------------------------------------------------------------

EXPECTED_BASED = {
    "circle3": ["Z", "0", "0"],
    "sphere2": ["Z", "0", "0", "0", "Z"],
    "torus": ["Z", "0", "Z", "Z^2", "Z"],
}


@pytest.mark.parametrize("name", ["circle3", "sphere2", "torus"])
def test_three_models_agree(name):
    spec = builtin_space(name)
    top = 2 * spec.dimension
    expected = EXPECTED_BASED[name]

    quotient_h = homology_of_sset(based_subset3(spec).space)
    assert [str(quotient_h.group(k)) for k in range(top + 1)] == expected

    cylinder_h = homology(cylinder_chain_model(spec))
    assert [str(cylinder_h.group(k)) for k in range(top + 1)] == expected

    model = sub3_homology_via_coproduct(spec)
    assert [str(g) for g in model.groups] == expected


def test_based_maps_are_consistent(sphere):
    based = based_subset3(sphere)
    # alpha composed with the diagonal equals alpha composed with the
    # basepoint inclusion (that is exactly the gluing relation)
    jx0 = based.maps["j_x0"]
    diag = based.maps["diag_based"]
    assert all(np.array_equal(a, b)
               for a, b in zip(jx0.assignment, diag.assignment))


def test_torus_fundamental_class_survives():
    model = sub3_homology_via_coproduct(builtin_space("torus"))
    # the generator of H_2(T) has nonzero image although primitive
    # degree-1 classes die
    assert not model.image_is_zero(2, "j", 0)
    assert not model.image_is_zero(2, "diag", 0)
    n_src = len(model.j_matrix[1][0]) if model.j_matrix[1] else 0
    assert n_src == 2
    for g in range(n_src):
        assert model.image_is_zero(1, "j", g)


def test_diag_multiplication_by_two(sphere):
    sp = symmetric_product(sphere, 2)
    coords_x = HomologyCoordinates(normalized_chains(sp.parts["base"],
                                                     with_labels=False))
    coords_sp = HomologyCoordinates(normalized_chains(sp.space,
                                                      with_labels=False))
    F = chain_map_matrices(sp.maps["diag"])[2]
    matrix = induced_matrix_from_chain_map(F, 2, coords_x, coords_sp)
    assert [[abs(v) for v in row] for row in matrix] == [[2]]
    F = chain_map_matrices(sp.maps["j_n"])[2]
    matrix = induced_matrix_from_chain_map(F, 2, coords_x, coords_sp)
    assert [[abs(v) for v in row] for row in matrix] == [[1]]


def reference_cylinder_chain_model(spec):
    """The cylinder model assembled column by column: the chains of SP^2(X)
    and a generator |c| in degree k+1 over each nondegenerate k-cell c of X
    except the basepoint vertex, with d|c| = j(c) - diag(c) - |dc|."""
    sp = symmetric_product(spec, 2)
    X = sp.parts["base"]
    CSP = normalized_chains(sp.space, with_labels=False)
    CX = normalized_chains(X, with_labels=False)
    J = chain_map_matrices(sp.maps["j_n"])
    DG = chain_map_matrices(sp.maps["diag"])

    keep = {}
    for k in range(X.truncation + 1):
        cells = list(range(CX.ranks[k]))
        if k == 0:
            cells.remove(spec.basepoint)
        keep[k] = cells
    shift_rank = {k + 1: len(cells) for k, cells in keep.items()}

    top = CSP.top_degree
    ranks = [CSP.ranks[k] + shift_rank.get(k, 0) for k in range(top + 1)]
    boundaries = {}
    for k in range(1, top + 1):
        entries = list(CSP.boundary(k).entries)
        cols = keep.get(k - 1, [])
        jm, dm = J.get(k - 1), DG.get(k - 1)
        if cols and jm is not None:
            jcols, dcols = jm.columns(), dm.columns()
            for j, c in enumerate(cols):
                col = CSP.ranks[k] + j
                acc = {}
                for r, v in jcols.get(c, ()):
                    acc[r] = acc.get(r, 0) + v
                for r, v in dcols.get(c, ()):
                    acc[r] = acc.get(r, 0) - v
                entries.extend((r, col, v) for r, v in acc.items() if v)
            if k - 1 >= 1:
                rows_prev = {c: i for i, c in enumerate(keep[k - 2])}
                bx = CX.boundary(k - 1).columns()
                for j, c in enumerate(cols):
                    col = CSP.ranks[k] + j
                    for r, v in bx.get(c, ()):
                        if r in rows_prev:
                            entries.append((CSP.ranks[k - 1] + rows_prev[r], col, -v))
        boundaries[k] = SparseIntMatrix(ranks[k - 1], ranks[k], entries)
    return ChainComplexZ(ranks, boundaries, truncated=True)


def assert_same_chains(C, D):
    assert C.ranks == D.ranks
    for k in range(1, C.top_degree + 1):
        assert C.boundary(k) == D.boundary(k), k


ONE_VERTEX = '{"vertices": 1, "simplices": [[0]]}'


@pytest.mark.parametrize("name", ["circle3", "sphere2", "torus", "sphere3", "rp2",
                                  "wedge_circles2", "interval"])
def test_cylinder_is_the_column_assembly(name):
    spec = builtin_space(name)
    assert_same_chains(cylinder_chain_model(spec), reference_cylinder_chain_model(spec))


def test_cylinder_of_a_point_is_the_column_assembly():
    spec = load_complex(ONE_VERTEX)
    assert_same_chains(cylinder_chain_model(spec), reference_cylinder_chain_model(spec))
    assert [str(g) for g in homology(cylinder_chain_model(spec)).groups] == ["Z", "0"]


@settings(max_examples=40, deadline=None)
@given(spec=complexes())
def test_cylinder_is_the_column_assembly_on_random_complexes(spec):
    assert_same_chains(cylinder_chain_model(spec), reference_cylinder_chain_model(spec))


def test_cylinder_model_sphere3():
    h = homology(cylinder_chain_model(builtin_space("sphere3")))
    assert [str(h.group(k)) for k in range(7)] == \
        ["Z", "0", "0", "0", "0", "Z/2", "0"]


def test_steenrod_splitting_rank_bound():
    # H_k(X) embeds in H_k(SP^n X): ranks can only grow
    for name, n in [("circle3", 2), ("torus", 2), ("sphere2", 2), ("rp2", 2)]:
        spec = builtin_space(name)
        sp = symmetric_product(spec, n)
        hx = homology_of_sset(sp.parts["base"])
        hsp = homology_of_sset(sp.space)
        for k in range(spec.dimension + 1):
            assert hx.group(k).betti <= hsp.group(k).betti, (name, k)
