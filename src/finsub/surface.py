"""Economical chain model for SP^n of a one-disk 2-complex.

A closed surface (or any complex of the shape "wedge of r circles with one
attached 2-cell") has a small multiplicative cell model for its symmetric
products: generators are concatenation monomials of distinct circle cells
with a symmetric power of the disk, and the boundary is a derivation that
vanishes on circles and peels one disk factor at a time.  Integer signs
follow the Koszul convention with circle generators of odd degree, whose
squares vanish.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .homology import ChainComplexZ, HomologyGroup, SparseIntMatrix, homology
from .simplicial import CellCapExceeded, cell_cap
from .spaces import json_integer, read_json_argument


class SurfaceModelError(ValueError):
    """Invalid presentation or parameters for the surface chain model."""


@dataclass(frozen=True)
class SurfacePresentation:
    """Wedge of ``r`` circles with one 2-cell attached along ``word``.

    The word is a sequence of signed generator indices in ``1..r``; the
    empty word with r = 0 is the 2-sphere.
    """

    r: int
    word: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if self.r < 0:
            raise SurfaceModelError("negative number of circle generators")
        for g in self.word:
            if g == 0 or abs(g) > self.r:
                raise SurfaceModelError(f"attaching letter {g} out of range")

    def disk_boundary(self) -> tuple[int, ...]:
        """Abelianized attaching word: the coefficient of each circle."""
        coeffs = [0] * self.r
        for g in self.word:
            coeffs[abs(g) - 1] += 1 if g > 0 else -1
        return tuple(coeffs)

    def is_closed_surface(self) -> bool:
        """Each circle traversed exactly twice (or the sphere)."""
        if self.r == 0:
            return not self.word
        counts = [0] * self.r
        for g in self.word:
            counts[abs(g) - 1] += 1
        return all(c == 2 for c in counts)

    def orientable(self) -> bool:
        return all(c == 0 for c in self.disk_boundary())


def load_surface_presentation(text: str) -> SurfacePresentation:
    """Parse ``{"r": 2, "word": [1, 2, -1, -2]}``, all of them JSON integers."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SurfaceModelError(f"parse failure: {exc}") from None
    except RecursionError:
        raise SurfaceModelError("parse failure: JSON nested too deeply") from None
    if not isinstance(data, dict) or "r" not in data or not isinstance(data.get("word"), list):
        raise SurfaceModelError('expected {"r": an integer, "word": a list of integers}')
    return SurfacePresentation(
        json_integer(data["r"], "r", SurfaceModelError),
        tuple(json_integer(g, "a word letter", SurfaceModelError) for g in data["word"]),
        name=str(data.get("name", "")))


def builtin_presentation(name: str) -> SurfacePresentation:
    table = {
        "sphere": SurfacePresentation(0, (), "sphere"),
        "torus": SurfacePresentation(2, (1, 2, -1, -2), "torus"),
        "rp2": SurfacePresentation(1, (1, 1), "rp2"),
        "klein": SurfacePresentation(2, (1, 2, 1, -2), "klein"),
        "genus2": SurfacePresentation(4, (1, 2, -1, -2, 3, 4, -3, -4), "genus2"),
    }
    table["sphere2"] = table["sphere"]   # the built-in space name of the 2-sphere
    if name not in table:
        raise SurfaceModelError(f"unknown surface presentation {name!r} "
                                f"(known: {', '.join(table)})")
    return table[name]


def load_surface(arg: str) -> SurfacePresentation:
    """``builtin:NAME``, a bare built-in NAME, a JSON file path, or inline JSON."""
    name = arg.removeprefix("builtin:")
    if name != arg or name.isidentifier():
        return builtin_presentation(name)
    return read_json_argument(arg, load_surface_presentation)


@dataclass(frozen=True)
class MonomialCell:
    """A monomial e_{i1} * ... * e_{il} * SP^k(D) with i1 < ... < il."""

    circle_part: tuple[int, ...]
    disk_power: int

    def __post_init__(self):
        if list(self.circle_part) != sorted(set(self.circle_part)):
            raise SurfaceModelError("circle factors must be strictly increasing")
        if self.disk_power < 0:
            raise SurfaceModelError("negative disk power")

    @property
    def degree(self) -> int:
        return len(self.circle_part) + 2 * self.disk_power

    def __str__(self):
        parts = [f"e{i}" for i in self.circle_part]
        if self.disk_power:
            parts.append(f"SP^{self.disk_power}D")
        return "*".join(parts) if parts else "1"


def monomial_cells(r: int, n: int) -> list[MonomialCell]:
    """All monomials with at most n factors, ordered by degree then lex.

    Raises :class:`CellCapExceeded` before anything is enumerated when
    there are more than ``cell_cap()`` of them.
    """
    total, cap = 0, cell_cap()
    for size in range(min(r, n) + 1):
        total += comb(r, size) * (n - size + 1)
        if total > cap:
            raise CellCapExceeded(
                f"the surface model of SP^{n} with {r} circles would enumerate more "
                f"than {cap} cells (raise FINSUB_CELL_CAP to override)")
    cells = []
    for size in range(min(r, n) + 1):
        for subset in combinations(range(1, r + 1), size):
            for k in range(n - size + 1):
                cells.append(MonomialCell(subset, k))
    cells.sort(key=lambda m: (m.degree, m.disk_power, m.circle_part))
    return cells


def sp_chain_complex(pres: SurfacePresentation, n: int) -> ChainComplexZ:
    """Chain complex of SP^n for a one-disk 2-complex presentation.

    The boundary is the derivation with ``d(e_i) = 0`` and
    ``d(SP^k D) = dD * SP^(k-1) D`` where dD is the abelianized attaching
    word; monomials absorb the circle factor with a Koszul sign and vanish
    on repeats.
    """
    if n < 1:
        raise SurfaceModelError("need n >= 1")
    cells = monomial_cells(pres.r, n)
    by_degree: dict[int, list[MonomialCell]] = {}
    for m in cells:
        by_degree.setdefault(m.degree, []).append(m)
    top = 2 * n
    ranks = [len(by_degree.get(k, [])) for k in range(top + 1)]
    index = {m: i for k in by_degree for i, m in enumerate(by_degree[k])}

    coeffs = pres.disk_boundary()
    boundaries = {}
    for k in range(1, top + 1):
        entries = []
        for col, m in enumerate(by_degree.get(k, [])):
            if m.disk_power == 0:
                continue
            ell = len(m.circle_part)
            for i, c in enumerate(coeffs, start=1):
                if c == 0 or i in m.circle_part:
                    continue
                above = sum(1 for j in m.circle_part if j > i)
                sign = (-1) ** (ell + above)
                target = MonomialCell(tuple(sorted(m.circle_part + (i,))),
                                      m.disk_power - 1)
                entries.append((index[target], col, sign * c))
        boundaries[k] = SparseIntMatrix(ranks[k - 1], ranks[k], entries)

    labels = [tuple(str(m) for m in by_degree.get(k, [])) for k in range(top + 1)]
    return ChainComplexZ(ranks, boundaries, labels=labels, truncated=False)


@dataclass(frozen=True)
class TopHomologyReport:
    """Top two homology groups of SP^n of a closed surface."""

    n: int
    orientable: bool
    top_z: HomologyGroup
    top_f2: HomologyGroup
    below_z: HomologyGroup
    below_f2: HomologyGroup


def top_homology_report(pres: SurfacePresentation, n: int) -> TopHomologyReport:
    """Degrees 2n and 2n-1 of SP^n over Z and F_2, plus orientability."""
    if not pres.is_closed_surface():
        raise SurfaceModelError("top_homology_report needs a closed surface")
    C = sp_chain_complex(pres, n)
    hz = homology(C)
    h2 = homology(C, mod=2)
    return TopHomologyReport(
        n=n,
        orientable=pres.orientable(),
        top_z=hz.group(2 * n),
        top_f2=h2.group(2 * n),
        below_z=hz.group(2 * n - 1),
        below_f2=h2.group(2 * n - 1),
    )
