"""Symmetric products, finite subset spaces, and their relatives.

SP^n(X), Sub_n(X), Sub_3(X, x0), the fat diagonal and the reduced
(collapsed) variants are built by the orbit engine (``orbits``) from their
nondegenerate cells: multisets or sets of cells of X whose ascent masks
cover every position, with no X^n and no quotient.  Each result is an
``orbits.OrbitSpace`` with its structure maps as ``NondegenerateMap``s,
which normalized chains, induced maps and pi_1 read directly; the tests
check them against the quotients of X^n they equal.  Only the space is
built with the result: each map and part, with the spaces only it needs
(X, or SP^n for ``pi`` and ``alpha``), is built on its first read.  Two
further models of the based three-fold subset space Sub_3(X, x0), a
cylinder chain model (the mapping cone of j_2 - diag) and a coproduct
model on homology, are checked against the quotient model.

``CONSTRUCTIONS`` is the one registry from a construction name (the
``--construction`` choices of the command line, and the constructions
verification cases name) to its builder of (space, n).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from functools import partial

from . import orbits
from .homology import (ChainComplexZ, HomologyCoordinates, HomologyGroup,
                       SparseIntMatrix, chain_map_matrices,
                       induced_matrix_from_chain_map, normalized_chains)
from .simplicial import SimplicialError
from .spaces import OrderedComplexSpec, load_space
from .surface import load_surface, sp_chain_complex


@dataclass
class ConstructionResult:
    """A constructed space together with its named structure maps and parts.

    ``space`` is built with the result; the engine builders give ``maps``
    and ``parts`` as :class:`orbits.Lazy` mappings, whose entries (and the
    spaces they alone need) are built on their first read.  A map whose
    face check fails raises :class:`SimplicialError` there.
    """

    space: object
    maps: Mapping[str, object]
    parts: Mapping[str, object] = field(default_factory=dict)


def _parts(spaces: orbits.Lazy, *keys: str) -> orbits.Lazy:
    """The spaces of these keys as the parts of a result, each on first read."""
    return orbits.Lazy({key: partial(spaces.__getitem__, key) for key in keys})


def symmetric_product(spec: OrderedComplexSpec, n: int) -> ConstructionResult:
    """SP^n(X): multisets of n cells of X.

    Maps: ``j_n`` (basepoint inclusion x -> x x0^(n-1)) and ``diag``
    (n-fold diagonal), both from X (``parts["base"]``).
    """
    if n < 1:
        raise SimplicialError("symmetric_product requires n >= 1")
    spaces = orbits.build(spec, n, {"sp": (orbits.sp_form(n), f"SP^{n}({spec.name})")})
    SP = spaces["sp"]
    maps = {"j_n": lambda: orbits.orbit_map(spaces["base"], SP, "j_n", orbits.with_tower),
            "diag": lambda: orbits.orbit_map(spaces["base"], SP, "diag", orbits.repeat)}
    return ConstructionResult(SP, orbits.Lazy(maps), _parts(spaces, "base"))


def finite_subset_space(spec: OrderedComplexSpec, n: int,
                        with_filtration: bool = True) -> ConstructionResult:
    """Sub_n(X): nonempty sets of at most n cells of X.

    Maps: ``pi`` (SP^n -> Sub_n), ``j`` (singleton inclusion), ``j_n``
    (x -> {x, x0}) and, for n >= 2 with the filtration, ``incl_sub_prev``
    (the subobject ``parts["filtration_sub"]`` of sets of fewer than n
    members, isomorphic to Sub_{n-1}).
    """
    if n < 1:
        raise SimplicialError("finite_subset_space requires n >= 1")
    forms = {"sp": (orbits.sp_form(n), f"SP^{n}({spec.name})"),
             "sub": (orbits.sub_form(n), f"Sub_{n}({spec.name})")}
    filtration = with_filtration and n >= 2
    if filtration:
        forms["filtration_sub"] = (orbits.prev_form(n), f"Sub_{n - 1}({spec.name})")
    spaces = orbits.build(spec, n, forms)
    Sub = spaces["sub"]
    maps = {"pi": lambda: orbits.orbit_map(spaces["sp"], Sub, "pi"),
            "j": lambda: orbits.orbit_map(spaces["base"], Sub, "j", orbits.repeat),
            "j_n": lambda: orbits.orbit_map(spaces["base"], Sub, "pi*j_n", orbits.with_tower)}
    parts = ("base",)
    if filtration:
        maps["incl_sub_prev"] = lambda: orbits.orbit_map(spaces["filtration_sub"], Sub, "incl")
        parts += ("filtration_sub",)
    return ConstructionResult(Sub, orbits.Lazy(maps), _parts(spaces, *parts))


def fat_diagonal(spec: OrderedComplexSpec, n: int) -> ConstructionResult:
    """Multisets with a repeated member, with their inclusion into SP^n."""
    if n < 2:
        raise SimplicialError("fat_diagonal requires n >= 2")
    spaces = orbits.build(spec, n, {"sp": (orbits.sp_form(n), f"SP^{n}({spec.name})"),
                                    "fat": (orbits.fat_form(n), f"fat_diagonal_{n}({spec.name})")})
    fat = spaces["fat"]
    maps = {"incl_fat": lambda: orbits.orbit_map(fat, spaces["sp"], "incl")}
    return ConstructionResult(fat, orbits.Lazy(maps), _parts(spaces, "base", "sp"))


def based_subset3(spec: OrderedComplexSpec) -> ConstructionResult:
    """Sub_3(X, x0): the sets of at most three cells that contain the
    basepoint, the quotient of SP^2(X) gluing the diagonal {x, x} of every
    cell to its basepoint-padded {x, x0}.

    Maps: ``alpha`` (SP^2 -> quotient), ``j_x0`` (x -> {x, x0}) and
    ``diag_based`` (x -> {x, x}), which is the same map.
    """
    spaces = orbits.build(spec, 2, {"sp": (orbits.sp_form(2), f"SP^2({spec.name})"),
                                    "based": (orbits.based_form(), f"Sub_3({spec.name},x0)")})
    B = spaces["based"]
    maps = {"alpha": lambda: orbits.orbit_map(spaces["sp"], B, "alpha"),
            "j_x0": lambda: orbits.orbit_map(spaces["base"], B, "j_x0", orbits.with_tower),
            "diag_based": lambda: orbits.orbit_map(spaces["base"], B, "alpha*diag",
                                                   orbits.repeat)}
    return ConstructionResult(B, orbits.Lazy(maps), _parts(spaces, "base"))


def _sp2_chains(spec: OrderedComplexSpec):
    """The chains of X and of SP^2(X), and the chain maps of j_2 and diag."""
    sp = symmetric_product(spec, 2)
    return (normalized_chains(sp.parts["base"], with_labels=False),
            normalized_chains(sp.space, with_labels=False),
            chain_map_matrices(sp.maps["j_n"]), chain_map_matrices(sp.maps["diag"]))


def cylinder_chain_model(spec: OrderedComplexSpec) -> ChainComplexZ:
    """Chain model of Sub_3(X, x0): the mapping cone of j_2 - diag, from the
    reduced chains of X (without the basepoint vertex) into the chains of
    SP^2(X), which glues each diagonal pair {x, x} to {x, x0}.

    Degree k is C_k(SP^2 X) + C~_(k-1)(X), with boundary
    ``[[d_SP, J - D], [0, -d_X~]]``: d|c| = j(c) - diag(c) - |dc|.
    """
    CX, CSP, J, D = _sp2_chains(spec)

    def tilde(k, i):   # generator i of C_k(X) in C~_k(X), or None
        return i if k else (None if i == spec.basepoint else i - (i > spec.basepoint))
    ranks = [CSP.ranks[0]] + [CSP.ranks[k] + CX.ranks[k - 1] - (k == 1)
                              for k in range(1, CSP.top_degree + 1)]
    boundaries = {}
    for k in range(1, CSP.top_degree + 1):
        shift = CSP.ranks[k]
        entries = list(CSP.boundary(k).entries)
        for f, sign in ((J[k - 1], 1), (D[k - 1], -1)):
            entries += [(r, shift + tilde(k - 1, c), sign * v) for r, c, v in f.entries
                        if tilde(k - 1, c) is not None]
        entries += [(CSP.ranks[k - 1] + tilde(k - 2, r), shift + c, -v)
                    for r, c, v in CX.boundary(k - 1).entries
                    if tilde(k - 2, r) is not None]
        boundaries[k] = SparseIntMatrix(ranks[k - 1], ranks[k], entries)
    return ChainComplexZ(ranks, boundaries, truncated=True)


KINDS = ("sp", "sub")


def reduced(spec: OrderedComplexSpec, n: int, kind: str) -> ConstructionResult:
    """Reduced construction: SP^n/SP^(n-1) or Sub_n/Sub_(n-1).

    SP^(n-1) sits inside SP^n as the multisets containing the basepoint;
    Sub_(n-1) inside Sub_n as the sets of fewer than n members.  Maps:
    ``proj`` (from ``parts["total"]``) and ``incl`` (of the subobject).
    """
    if n < 2:
        raise SimplicialError("reduced constructions need n >= 2")
    if kind not in KINDS:
        raise SimplicialError(f"kind must be one of {KINDS}")
    if kind == "sp":
        forms = {"total": (orbits.sp_form(n), f"SP^{n}({spec.name})"),
                 "sub": (orbits.tower_form(n), f"SP^{n - 1}({spec.name})"),
                 "quotient": (orbits.reduced_sp_form(n), f"SP^{n}({spec.name})/SP^{n - 1}")}
    else:
        forms = {"total": (orbits.sub_form(n), f"Sub_{n}({spec.name})"),
                 "sub": (orbits.prev_form(n), f"Sub_{n - 1}({spec.name})"),
                 "quotient": (orbits.reduced_sub_form(n), f"Sub_{n}({spec.name})/Sub_{n - 1}")}
    spaces = orbits.build(spec, n, forms)
    Q = spaces["quotient"]
    maps = {"proj": lambda: orbits.orbit_map(spaces["total"], Q, "proj"),
            "incl": lambda: orbits.orbit_map(spaces["sub"], spaces["total"], "incl")}
    return ConstructionResult(Q, orbits.Lazy(maps), _parts(spaces, "total"))


@dataclass
class CoproductModelResult:
    """Homology of Sub_3(X, x0) as a quotient of the homology of SP^2(X).

    ``quotients[k]`` presents H_k(SP^2 X) / (diag_* - j_*) H_k(X) as the
    degree-0 homology coordinates of the relation complex (see
    :func:`sub3_homology_via_coproduct`);
    ``j_matrix``/``diag_matrix`` give the induced maps in the chosen
    homology bases, so images of specific classes can be tested.
    """

    groups: tuple[HomologyGroup, ...]
    quotients: dict[int, HomologyCoordinates]
    j_matrix: dict[int, list[list[int]]]
    diag_matrix: dict[int, list[list[int]]]

    def image_is_zero(self, degree: int, which: str, generator: int) -> bool:
        """Is the image of a homology generator of X zero in the quotient?"""
        matrix = (self.j_matrix if which == "j" else self.diag_matrix)[degree]
        vec = {i: row[generator] for i, row in enumerate(matrix) if row[generator]}
        return not any(self.quotients[degree].coords_of_cycle(0, vec))


def sub3_homology_via_coproduct(spec: OrderedComplexSpec) -> CoproductModelResult:
    """Homology of Sub_3(X, x0) from the homology of SP^2(X).

    Computes H_*(SP^2 X) with explicit bases, the maps induced by the
    basepoint inclusion j and the diagonal, and divides out the subgroup
    generated by (diag_* - j_*) of every generator of H_*(X).  In degree k
    the quotient is H_0 of the two-term complex Z^m -> Z^g on the g
    generators of H_k(SP^2 X), whose m columns are the orders of its
    torsion generators and the images (diag_* - j_*) of H_k(X).
    """
    CX, CSP, Jm, Dm = _sp2_chains(spec)
    coords_sp = HomologyCoordinates(CSP)
    coords_x = HomologyCoordinates(CX)

    top = 2 * spec.dimension
    groups = []
    quotients = {}
    j_matrix = {}
    diag_matrix = {}
    for k in range(top + 1):
        jk = induced_matrix_from_chain_map(Jm[k], k, coords_x, coords_sp)
        dk = induced_matrix_from_chain_map(Dm[k], k, coords_x, coords_sp)
        j_matrix[k], diag_matrix[k] = jk, dk
        moduli = coords_sp.moduli(k)
        relations = [{i: m} for i, m in enumerate(moduli) if m]
        relations.extend({i: d[g] - j[g] for i, (d, j) in enumerate(zip(dk, jk))
                          if d[g] != j[g]} for g in range(coords_x.generator_count(k)))
        R = SparseIntMatrix(len(moduli), len(relations), [
            (i, c, v) for c, col in enumerate(relations) for i, v in col.items()])
        quotients[k] = HomologyCoordinates(ChainComplexZ((R.nrows, R.ncols), {1: R}))
        groups.append(replace(quotients[k].group(0), degree=k))
    return CoproductModelResult(tuple(groups), quotients, j_matrix, diag_matrix)


@dataclass(frozen=True)
class Construction:
    """How one named construction is built from (space, n).

    ``build(space, n)`` returns a ConstructionResult when ``yields`` is
    ``"sset"``, a ChainComplexZ when it is ``"chains"`` and a
    CoproductModelResult (integral groups only) when it is ``"groups"``.
    ``load`` reads the space ``build`` takes from ``builtin:NAME``, a JSON
    file path or inline JSON, and ``maps`` lists the structure maps of the
    result that ``finsub map`` offers.  Builders look the construction
    functions up at call time.
    """

    build: Callable[[object, int | None], object]
    yields: str = "sset"
    load: Callable[[str], object] = load_space
    maps: tuple[str, ...] = ()

    def chains(self, built) -> ChainComplexZ:
        """The chain complex of a result of ``build`` (not for ``"groups"``)."""
        if self.yields == "chains":
            return built
        return normalized_chains(built.space, with_labels=False)


CONSTRUCTIONS: dict[str, Construction] = {
    "space": Construction(lambda spec, n: ConstructionResult(
        orbits.build(spec, 1, {})["base"], {})),
    "sp": Construction(lambda spec, n: symmetric_product(spec, n), maps=("diag", "j_n")),
    "sub": Construction(lambda spec, n: finite_subset_space(spec, n, with_filtration=False),
                        maps=("j", "pi")),
    "based_sub3": Construction(lambda spec, n: based_subset3(spec), maps=("alpha",)),
    "fat": Construction(lambda spec, n: fat_diagonal(spec, n)),
    "reduced_sp": Construction(lambda spec, n: reduced(spec, n, "sp")),
    "reduced_sub": Construction(lambda spec, n: reduced(spec, n, "sub")),
    "cylinder": Construction(lambda spec, n: cylinder_chain_model(spec), "chains"),
    "coproduct": Construction(lambda spec, n: sub3_homology_via_coproduct(spec), "groups"),
    "surface": Construction(lambda pres, n: sp_chain_complex(pres, n), "chains",
                            load=load_surface),
}
