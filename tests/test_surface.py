from math import comb

import pytest

from finsub.homology import homology, homology_of_sset
from finsub.constructions import symmetric_product
from finsub.spaces import builtin_space
from finsub.surface import (MonomialCell, SurfaceModelError,
                            SurfacePresentation, builtin_presentation,
                            load_surface_presentation, monomial_cells,
                            sp_chain_complex, top_homology_report)


def test_presentation_parsing():
    pres = load_surface_presentation('{"r":2,"word":[1,2,-1,-2]}')
    assert pres == SurfacePresentation(2, (1, 2, -1, -2), "")
    with pytest.raises(SurfaceModelError):
        load_surface_presentation('{"r":1,"word":[2]}')
    with pytest.raises(SurfaceModelError):
        load_surface_presentation("nope")
    with pytest.raises(SurfaceModelError, match="parse failure"):
        load_surface_presentation("[" * 200_000)


def test_disk_boundary_coefficients():
    assert builtin_presentation("torus").disk_boundary() == (0, 0)
    assert builtin_presentation("rp2").disk_boundary() == (2,)
    assert builtin_presentation("klein").disk_boundary() == (2, 0)
    assert builtin_presentation("genus2").disk_boundary() == (0, 0, 0, 0)


def test_generator_count_matches_binomial_sum():
    # oracle: sum of C(r, l) over all pairs (l, k) with l + k <= n
    for r, n in [(0, 3), (1, 2), (2, 2), (2, 3), (4, 2)]:
        expected = sum(comb(r, l)
                       for l in range(r + 1) for k in range(n + 1) if l + k <= n)
        assert len(monomial_cells(r, n)) == expected


def test_monomial_validation():
    with pytest.raises(SurfaceModelError):
        MonomialCell((2, 1), 0)
    with pytest.raises(SurfaceModelError):
        MonomialCell((1,), -1)
    assert MonomialCell((1, 3), 2).degree == 6


def test_sphere_model_is_complex_projective_space():
    C = sp_chain_complex(builtin_presentation("sphere"), 3)
    assert [str(g) for g in homology(C).groups] == \
        ["Z", "0", "Z", "0", "Z", "0", "Z"]


def test_torus_model_matches_quotient_model():
    C = sp_chain_complex(builtin_presentation("torus"), 2)
    surface_h = [str(g) for g in homology(C).groups]
    assert surface_h == ["Z", "Z^2", "Z^2", "Z^2", "Z"]
    quotient_h = homology_of_sset(symmetric_product(builtin_space("torus"), 2).space)
    assert surface_h == [str(quotient_h.group(k)) for k in range(5)]


def test_rp2_model_matches_quotient_model():
    C = sp_chain_complex(builtin_presentation("rp2"), 2)
    surface_h = [str(g) for g in homology(C).groups]
    quotient_h = homology_of_sset(symmetric_product(builtin_space("rp2"), 2).space)
    assert surface_h == [str(quotient_h.group(k)) for k in range(5)]
    surface_f2 = [g.betti for g in homology(C, mod=2).groups]
    quotient_f2 = homology_of_sset(symmetric_product(builtin_space("rp2"), 2).space,
                                   mod=2)
    assert surface_f2 == [quotient_f2.group(k).betti for k in range(5)]


def test_sphere_model_matches_quotient_model():
    C = sp_chain_complex(builtin_presentation("sphere"), 2)
    surface_h = [str(g) for g in homology(C).groups]
    quotient_h = homology_of_sset(symmetric_product(builtin_space("sphere2"), 2).space)
    assert surface_h == [str(quotient_h.group(k)) for k in range(5)]


def test_rp2_top_dimension():
    report = top_homology_report(builtin_presentation("rp2"), 2)
    assert not report.orientable
    assert report.top_z.is_zero
    assert report.top_f2.betti == 1


def test_torus_top_dimension():
    report = top_homology_report(builtin_presentation("torus"), 3)
    assert report.orientable
    assert str(report.top_z) == "Z"
    assert report.below_f2.betti == 2  # = number of circle generators


def test_genus2_mod2_rank():
    report = top_homology_report(builtin_presentation("genus2"), 2)
    assert report.below_f2.betti == 4


def test_klein_bottle_top():
    report = top_homology_report(builtin_presentation("klein"), 2)
    assert not report.orientable
    assert report.top_z.is_zero
    assert report.top_f2.betti == 1
    assert report.below_f2.betti == 2


def test_open_presentation_rejected_for_top_report():
    pres = SurfacePresentation(2, (1, 2))  # letters used once: has boundary
    with pytest.raises(SurfaceModelError, match="closed"):
        top_homology_report(pres, 2)
