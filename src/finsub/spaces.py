"""Finite ordered simplicial complexes and the built-in space catalog.

A space is described by the maximal simplices of a finite simplicial
complex on vertices ``0..vertex_count-1``.  The integer order on vertices
is the global total order that makes products of the generated simplicial
sets combinatorially canonical.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from pathlib import Path


class ComplexError(ValueError):
    """Malformed or unsupported simplicial-complex description."""


@dataclass(frozen=True)
class OrderedComplexSpec:
    """A finite, connected, ordered simplicial complex.

    ``maximal_simplices`` are strictly increasing vertex tuples; the
    complex is their downward closure.  ``basepoint`` defaults to vertex 0
    and is used by every based construction downstream.
    """

    name: str
    vertex_count: int
    maximal_simplices: tuple[tuple[int, ...], ...]
    basepoint: int = 0

    def __post_init__(self):
        if self.vertex_count <= 0:
            raise ComplexError("vertex_count must be positive")
        if not self.maximal_simplices:
            raise ComplexError("at least one simplex is required")
        covered = set()
        for simplex in self.maximal_simplices:
            _check_increasing(simplex)
            if simplex[0] < 0 or simplex[-1] >= self.vertex_count:
                raise ComplexError(f"vertex index out of range in {list(simplex)}")
            covered.update(simplex)
        if len(covered) != self.vertex_count:   # covered lies in range
            missing = islice((v for v in range(self.vertex_count) if v not in covered), 3)
            raise ComplexError(f"{self.vertex_count - len(covered)} vertices, such as "
                               f"{list(missing)}, belong to no simplex")
        if not 0 <= self.basepoint < self.vertex_count:
            raise ComplexError("basepoint out of range")
        if not self._is_connected():
            raise ComplexError("complex is disconnected")

    def _is_connected(self) -> bool:
        adj: dict[int, set[int]] = {v: set() for v in range(self.vertex_count)}
        for simplex in self.maximal_simplices:
            for a, b in combinations(simplex, 2):
                adj[a].add(b)
                adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    @property
    def dimension(self) -> int:
        return max(len(s) for s in self.maximal_simplices) - 1

    @cached_property
    def simplex_set(self) -> frozenset[tuple[int, ...]]:
        """All simplices (downward closure of the maximal ones)."""
        faces: set[tuple[int, ...]] = set()
        for simplex in self.maximal_simplices:
            for k in range(1, len(simplex) + 1):
                faces.update(combinations(simplex, k))
        return frozenset(faces)

    def serialize(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "vertices": self.vertex_count,
                "simplices": [list(s) for s in self.maximal_simplices],
                "basepoint": self.basepoint,
            }
        )


def _check_increasing(simplex) -> None:
    if not simplex:
        raise ComplexError("a simplex needs at least one vertex")
    if list(simplex) != sorted(set(simplex)):
        if len(set(simplex)) != len(simplex):
            raise ComplexError(f"duplicate vertex in simplex {list(simplex)}")
        raise ComplexError(f"simplex {list(simplex)} is not strictly increasing")


def _canonical_maximal(simplices) -> tuple[tuple[int, ...], ...]:
    """The simplices that lie in no other, sorted and without repeats.

    Every simplex, maximal or not, must be strictly increasing.  Longest
    first, a simplex is compared only with the kept simplices through its
    least-used vertex: any simplex containing it passes there.
    """
    distinct = {tuple(s) for s in simplices}
    for s in distinct:
        _check_increasing(s)
    keep, through = [], {}
    for s in sorted(distinct, key=len, reverse=True):
        members = set(s)
        v = min(members, key=lambda v: len(through.get(v, ())))
        if any(members < t for t in through.get(v, ())):
            continue
        keep.append(s)
        for v in members:
            through.setdefault(v, []).append(members)
    return tuple(sorted(keep))


def json_integer(value, what: str, error=ComplexError) -> int:
    """A JSON integer; bools, floats, strings and null raise ``error``."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def load_complex(text: str) -> OrderedComplexSpec:
    """Parse the JSON description of a complex.

    Expected fields: ``vertices`` (count), ``simplices`` (list of strictly
    increasing vertex lists); optional ``name`` and ``basepoint``.  Counts,
    vertices and the basepoint must be JSON integers.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexError(f"parse failure: {exc}") from None
    except RecursionError:
        raise ComplexError("parse failure: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ComplexError("expected a JSON object")
    unknown = set(data) - {"name", "vertices", "simplices", "basepoint"}
    if unknown:
        raise ComplexError(f"unknown fields {sorted(unknown)}")
    if "vertices" not in data or "simplices" not in data:
        raise ComplexError("parse failure: 'vertices' and 'simplices' are required")
    simplices = data["simplices"]
    if not isinstance(simplices, list) or not all(isinstance(s, list) for s in simplices):
        raise ComplexError("simplices must be a list of lists")
    return OrderedComplexSpec(
        name=str(data.get("name", "")),
        vertex_count=json_integer(data["vertices"], "vertices"),
        maximal_simplices=_canonical_maximal(
            [tuple(json_integer(v, "a simplex entry") for v in s) for s in simplices]),
        basepoint=json_integer(data.get("basepoint", 0), "basepoint"),
    )


def _circle(m: int) -> OrderedComplexSpec:
    if m < 3:
        raise ComplexError("a triangulated circle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)]
    return OrderedComplexSpec(f"circle{m}", m, _canonical_maximal(edges))


def _sphere(d: int) -> OrderedComplexSpec:
    if d < 1:
        raise ComplexError("sphere dimension must be at least 1")
    simplices = combinations(range(d + 2), d + 1)
    return OrderedComplexSpec(f"sphere{d}", d + 2, _canonical_maximal(simplices))


def _torus() -> OrderedComplexSpec:
    # Minimal 7-vertex triangulation: triangles {i,i+1,i+3} and {i,i+2,i+3} mod 7.
    tris = []
    for i in range(7):
        tris.append(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    return OrderedComplexSpec("torus", 7, _canonical_maximal(tris))


def _rp2() -> OrderedComplexSpec:
    # Minimal 6-vertex triangulation (antipodal quotient of the icosahedron).
    tris = [
        (0, 1, 3),
        (0, 1, 5),
        (0, 2, 4),
        (0, 2, 5),
        (0, 3, 4),
        (1, 2, 3),
        (1, 2, 4),
        (1, 4, 5),
        (2, 3, 5),
        (3, 4, 5),
    ]
    return OrderedComplexSpec("rp2", 6, _canonical_maximal(tris))


def _wedge_circles(r: int) -> OrderedComplexSpec:
    if r < 1:
        raise ComplexError("a wedge needs at least one circle")
    edges = []
    for i in range(r):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return OrderedComplexSpec(f"wedge_circles{r}", 2 * r + 1, _canonical_maximal(edges))


_PARAM = re.compile(r"^(circle|sphere|wedge_circles)\(?(\d+)\)?$")


def builtin_space(name: str) -> OrderedComplexSpec:
    """Return a built-in space by name.

    Fixed names: ``interval``, ``torus``, ``rp2``.  Parameterized names
    accept both ``circle(5)`` and ``circle5`` spellings, likewise
    ``sphere`` and ``wedge_circles``.
    """
    fixed = {"interval": lambda: OrderedComplexSpec("interval", 2, ((0, 1),)),
             "torus": _torus,
             "rp2": _rp2}
    if name in fixed:
        return fixed[name]()
    match = _PARAM.match(name)
    if match is None:
        raise ComplexError(f"unknown builtin space {name!r}")
    kind, param = match.group(1), int(match.group(2))
    builder = {"circle": _circle, "sphere": _sphere, "wedge_circles": _wedge_circles}[kind]
    return builder(param)


def read_json_argument(arg: str, parse):
    """``parse`` applied to the JSON file at path ``arg``, else to ``arg`` itself."""
    try:
        return parse(Path(arg).read_text())
    except OSError:   # no such file, or a name too long to be one: inline JSON
        return parse(arg)


def load_space(arg: str) -> OrderedComplexSpec:
    """A complex given as ``builtin:NAME``, a JSON file path, or inline JSON."""
    name = arg.removeprefix("builtin:")
    return builtin_space(name) if name != arg else read_json_argument(arg, load_complex)
