"""The source paper's theorems as properties of random complexes.

Each fact is computed from X alone in plain Python integers, with no finsub
formula, and compared with the ranks (nondegenerate cell counts), the pi_1
presentations or the homology of the spaces finsub builds:

- chi(Sub_n X) = sum_{k=1}^{n} C(chi(X), k), with generalized binomials,
  so chi(X) < 0 works;
- Macdonald: chi(SP^n X) = C(chi(X) + n - 1, n);
- Sub_n(X) is simply connected for n >= 3 and connected X, and Tietze moves
  reach the empty presentation of its pi_1, so no pi_1 is inconclusive;
- Sub_n(X) is (n + r - 2)-connected when X is r-connected (the source
  paper; Tuffley, "Connectivity of finite subset spaces of cell
  complexes"), so its reduced homology vanishes in degrees up to n + r - 2;
- SP^n of a closed orientable surface of genus g is a closed orientable
  2n-manifold with torsion-free homology, and Macdonald's formula gives its
  Betti numbers: b_k is the coefficient of x^n t^k in
  (1 + xt)^(2g) / ((1 - x)(1 - xt^2)), so b_k = b_(2n-k) and H_2n = Z;
- SP^n(RP^2) = RP^2n, whose homology is Z/2 in each odd degree below 2n
  and 0 in each even degree from 2 to 2n;
- Dold (*Ann. Math.* 1958): H_*(SP^n X) depends only on H_*(X), so over Z
  and over F_2 it is the same for X, for X with its vertices relabelled and
  for the barycentric subdivision of X, both built here from X's simplices.
"""

import json
import random
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsub.constructions import finite_subset_space, symmetric_product
from finsub.fundamental import fundamental_presentation, tietze_simplify
from finsub.homology import homology, homology_of_sset
from finsub.spaces import builtin_space, load_complex
from finsub.surface import builtin_presentation, sp_chain_complex
from test_orbits import complexes


def _binomial(x, k):
    """C(x, k) for any integer x: x (x - 1) ... (x - k + 1) / k!."""
    numerator = 1
    for i in range(k):
        numerator *= x - i
    return numerator // factorial(k)


def _euler(spec):
    """chi(X) from the downward closure of X's maximal simplices."""
    faces = {face for simplex in spec.maximal_simplices
             for size in range(1, len(simplex) + 1)
             for face in combinations(simplex, size)}
    return sum((-1) ** (len(face) - 1) for face in faces)


def _euler_of(space):
    return sum((-1) ** k * r for k, r in enumerate(space.ranks))


@settings(max_examples=200, deadline=None)
@given(spec=complexes(vertices=6, extra=6), n=st.sampled_from([2, 3]))
def test_euler_characteristics_and_simple_connectivity(spec, n):
    chi = _euler(spec)
    built = finite_subset_space(spec, n, with_filtration=False)
    assert _euler_of(built.space) == sum(_binomial(chi, k) for k in range(1, n + 1))
    assert _euler_of(built.maps["pi"].source) == _binomial(chi + n - 1, n)
    if n == 3:
        simplified = tietze_simplify(fundamental_presentation(built.space))
        assert (simplified.generator_count, simplified.relators) == (0, ())


def _assert_reduced_homology_vanishes(space, up_to):
    groups = homology_of_sset(space).groups
    assert (groups[0].betti, groups[0].torsion) == (1, ())
    assert all(groups[i].is_zero for i in range(1, up_to + 1))


@settings(max_examples=100, deadline=None)
@given(spec=complexes(vertices=6, extra=6), n=st.sampled_from([2, 3]))
def test_subset_spaces_of_connected_complexes_are_n_minus_2_connected(spec, n):
    # X connected: r = 0
    space = finite_subset_space(spec, n, with_filtration=False).space
    _assert_reduced_homology_vanishes(space, n - 2)


def test_sub3_of_the_2_sphere_is_2_connected():
    # S^2 simply connected: r = 1, so H~_i(Sub_3 S^2) = 0 for i <= 2
    space = finite_subset_space(builtin_space("sphere2"), 3, with_filtration=False).space
    _assert_reduced_homology_vanishes(space, 2)


def _macdonald_betti(g, n):
    """b_0..b_2n of SP^n of a genus-g surface: in the expansion of
    (1 + xt)^(2g) / ((1 - x)(1 - xt^2)), x^n t^k collects C(2g, i) from
    each term x^i t^i of the numerator times x^b t^(2b) and x^a with
    i + a + b = n and i + 2b = k."""
    betti = [0] * (2 * n + 1)
    for i in range(min(2 * g, n) + 1):
        for b in range(n - i + 1):
            betti[i + 2 * b] += comb(2 * g, i)
    return betti


def _assert_macdonald(groups, g, n):
    top = 2 * n
    assert [(h.betti, h.torsion) for h in groups[:top + 1]] == \
        [(b, ()) for b in _macdonald_betti(g, n)]
    assert all(h.is_zero for h in groups[top + 1:])
    # Poincare duality of a closed orientable 2n-manifold
    assert [h.betti for h in groups[:top + 1]] == [h.betti for h in groups[top::-1]]
    assert (groups[top].betti, groups[top].torsion) == (1, ())


GENUS = {"sphere": 0, "torus": 1, "genus2": 2}


@pytest.mark.parametrize("name", sorted(GENUS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_products_of_surfaces_on_the_surface_model(name, n):
    groups = homology(sp_chain_complex(builtin_presentation(name), n)).groups
    _assert_macdonald(groups, GENUS[name], n)


@pytest.mark.parametrize("name, g, n", [("torus", 1, 2), ("sphere2", 0, 1),
                                        ("sphere2", 0, 2), ("sphere2", 0, 3)])
def test_symmetric_products_of_surfaces_on_the_engine(name, g, n):
    _assert_macdonald(homology_of_sset(symmetric_product(builtin_space(name), n).space).groups,
                      g, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_products_of_rp2_are_projective_spaces(n):
    groups = homology(sp_chain_complex(builtin_presentation("rp2"), n)).groups
    assert (groups[0].betti, groups[0].torsion) == (1, ())
    assert all((groups[k].betti, groups[k].torsion) == (0, (2,)) for k in range(1, 2 * n, 2))
    assert all(groups[k].is_zero for k in range(2, 2 * n + 1, 2))
    assert all(h.is_zero for h in groups[2 * n + 1:])


def _complex(name, vertex_count, simplices):
    return load_complex(json.dumps({"name": name, "vertices": vertex_count,
                                    "simplices": [sorted(s) for s in simplices]}))


def _relabelled(spec, seed):
    perm = list(range(spec.vertex_count))
    random.Random(seed).shuffle(perm)
    return _complex(f"{spec.name}-relabelled", spec.vertex_count,
                    [[perm[v] for v in s] for s in spec.maximal_simplices])


def _subdivided(spec):
    """sd X: a vertex for each face of X, and a simplex for each chain of
    faces; the maximal chains are the flags {v_0} < {v_0, v_1} < ... of
    each maximal simplex, one for each order of its vertices."""
    faces = sorted({frozenset(face) for simplex in spec.maximal_simplices
                    for size in range(1, len(simplex) + 1)
                    for face in combinations(simplex, size)},
                   key=lambda face: (len(face), sorted(face)))
    index = {face: i for i, face in enumerate(faces)}
    flags = [[index[frozenset(order[:i])] for i in range(1, len(order) + 1)]
             for simplex in spec.maximal_simplices for order in permutations(simplex)]
    return _complex(f"sd-{spec.name}", len(faces), flags)


def _sp_homology(spec, n):
    space = symmetric_product(spec, n).space
    return [[(h.betti, h.torsion) for h in homology_of_sset(space, mod=p).groups]
            for p in (None, 2)]


@pytest.mark.parametrize("name, n", [("circle3", 2), ("circle3", 3), ("circle4", 3),
                                     ("sphere2", 2), ("rp2", 2), ("torus", 2)])
def test_dold_homology_of_symmetric_products_is_a_homotopy_invariant(name, n):
    # circle3 and sphere2 bound a simplex, so each relabelling leaves them
    # as they are; circle4, rp2 and torus are relabelled for real
    spec = builtin_space(name)
    expected = _sp_homology(spec, n)
    assert _sp_homology(_relabelled(spec, seed=n), n) == expected
    assert _sp_homology(_subdivided(spec), n) == expected
