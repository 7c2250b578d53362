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
  complexes"), so its reduced homology vanishes in degrees up to n + r - 2.
"""

from itertools import combinations
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from finsub.constructions import finite_subset_space
from finsub.fundamental import fundamental_presentation, tietze_simplify
from finsub.homology import homology_of_sset
from finsub.spaces import builtin_space
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
