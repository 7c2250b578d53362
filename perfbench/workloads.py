"""Inputs and queries of the benchmark's workloads.

Every query starts from the JSON text of its input complex, as a separate
``finsub homology`` or ``finsub map`` call would, and calls finsub through
module attributes so that the tracer's wrappers see each call.  The seed
relabels the vertices (and with them the basepoint) of every input
complex; answers do not depend on the labelling, the matrices do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

import checks

# import_module, because the package re-exports a function named homology
# that shadows the submodule as an attribute of finsub.
cons = import_module("finsub.constructions")
fund = import_module("finsub.fundamental")
hom = import_module("finsub.homology")
spaces = import_module("finsub.spaces")
surf = import_module("finsub.surface")

# Each pass of a run uses the next of these labelling sets, so a run that
# measures several passes averages over several labellings.
LABELLINGS = 16

SIMPLEX2_JSON = '{"vertices": 3, "simplices": [[0, 1, 2]]}'

INPUTS: dict[str, Callable[[], spaces.OrderedComplexSpec]] = {
    "circle3": lambda: spaces.builtin_space("circle3"),
    "circle4": lambda: spaces.builtin_space("circle4"),
    "simplex2": lambda: spaces.load_complex(SIMPLEX2_JSON),
    "wedge2": lambda: spaces.builtin_space("wedge_circles2"),
    "torus": lambda: spaces.builtin_space("torus"),
    "sphere2": lambda: spaces.builtin_space("sphere2"),
    "sphere3": lambda: spaces.builtin_space("sphere3"),
}


@dataclass(frozen=True)
class Query:
    name: str
    input: str
    run: Callable[[str], object]
    check: Callable[[object, str, dict], list[str]]


def _groups(result) -> checks.Groups:
    return tuple((g.betti, tuple(g.torsion)) for g in result)


def _homology(sset, mod=None) -> checks.Groups:
    return _groups(hom.homology(hom.normalized_chains(sset, with_labels=False), mod=mod))


def sub_homology(n: int):
    def run(text):
        spec = spaces.load_complex(text)
        return _homology(cons.finite_subset_space(spec, n, with_filtration=False).space)
    return run


def _sp2(mod=None):
    def run(text):
        return _homology(cons.symmetric_product(spaces.load_complex(text), 2).space, mod)
    return run


def _based_sub3(text):
    return _homology(cons.based_subset3(spaces.load_complex(text)).space)


def _coproduct(text):
    model = cons.sub3_homology_via_coproduct(spaces.load_complex(text))
    return {"groups": _groups(model.groups),
            "j_image_nonzero": not model.image_is_zero(2, "j", 0)}


def _pi1(construction: str):
    def run(text):
        spec = spaces.load_complex(text)
        if construction == "sp":
            sset = cons.symmetric_product(spec, 2).space
        else:
            sset = cons.finite_subset_space(spec, 3, with_filtration=False).space
        pres = fund.fundamental_presentation(sset)
        simple = fund.tietze_simplify(pres)
        ab = fund.abelianization(pres)
        return {"generators_in": pres.generator_count,
                "generators_out": simple.generator_count,
                "relators_out": len(simple.relators),
                "abelianization": (ab.betti, tuple(ab.torsion))}
    return run


def _induced_h2(map_name: str):
    """``finsub map --name <map_name> --degree 2`` on SP^2."""
    def run(text):
        f = cons.symmetric_product(spaces.load_complex(text), 2).maps[map_name]
        src = hom.HomologyCoordinates(hom.normalized_chains(f.source, with_labels=False))
        dst = hom.HomologyCoordinates(hom.normalized_chains(f.target, with_labels=False))
        F = hom.chain_map_matrices(f)[2]
        matrix = hom.induced_matrix_from_chain_map(F, 2, src, dst)
        return tuple(tuple(row) for row in matrix)
    return run


WORKLOADS: dict[str, tuple[Query, ...]] = {
    # Enumeration and quotienting dominate; the chain complexes are small.
    "build-bound": (
        Query("sub4-circle3", "circle3", sub_homology(4), checks.sub4_circle),
        Query("sub4-circle4", "circle4", sub_homology(4), checks.sub4_circle),
        Query("sub3-simplex2", "simplex2", sub_homology(3), checks.sub3_contractible),
        Query("sub3-wedge2", "wedge2", sub_homology(3), checks.sub3_graph),
    ),
    # Integer Smith normal form (invariant_factors) dominates.
    "smith-bound": (
        Query("sp2-torus", "torus", _sp2(), checks.sp2_torus),
        Query("based-sub3-torus", "torus", _based_sub3, checks.based_sub3_torus),
        Query("sp2-sphere3", "sphere3", _sp2(), checks.sp2_sphere3),
    ),
    # The elimination kernel in its other modes (mod p, tracked transforms),
    # next to pi_1.
    "maps-mod-p-pi1": (
        Query("sp2-torus-f2", "torus", _sp2(mod=2), checks.sp2_torus_f2),
        Query("coproduct-torus", "torus", _coproduct, checks.coproduct_torus),
        Query("pi1-sp2-torus", "torus", _pi1("sp"), checks.pi1_sp2_torus),
        Query("pi1-sub3-wedge2", "wedge2", _pi1("sub"), checks.pi1_trivial),
        Query("map-diag-sphere2", "sphere2", _induced_h2("diag"), checks.diag_sphere2),
        Query("map-jn-sphere2", "sphere2", _induced_h2("j_n"), checks.jn_sphere2),
    ),
}


def relabel(spec: spaces.OrderedComplexSpec, rng: random.Random) -> spaces.OrderedComplexSpec:
    """The same complex with its vertices (and basepoint) permuted."""
    perm = list(range(spec.vertex_count))
    rng.shuffle(perm)
    simplices = sorted(tuple(sorted(perm[v] for v in s)) for s in spec.maximal_simplices)
    return spaces.OrderedComplexSpec(spec.name, spec.vertex_count, tuple(simplices),
                                     basepoint=perm[spec.basepoint])


def build_inputs(workload: str, seed: int) -> list[dict[str, str]]:
    """LABELLINGS sets of relabelled input complexes, as JSON text."""
    rng = random.Random(seed)
    names = sorted({q.input for q in WORKLOADS[workload]})
    base = {name: INPUTS[name]() for name in names}
    return [{name: relabel(base[name], rng).serialize() for name in names}
            for _ in range(LABELLINGS)]


def oracles(workload: str) -> dict:
    """Reference answers computed outside the timed region."""
    if workload != "smith-bound":
        return {}
    chains = surf.sp_chain_complex(surf.builtin_presentation("torus"), 2)
    return {"surface_sp2_torus": _groups(hom.homology(chains))}
