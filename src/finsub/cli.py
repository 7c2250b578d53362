"""Command-line front end.

Subcommands: ``spaces`` lists the built-in complexes, ``homology`` computes
the homology of a construction, ``map`` prints an induced matrix on
homology, and ``verify`` runs the verification suite.  Exit status of
``verify`` is zero exactly when every required case passes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constructions import CONSTRUCTIONS
from .homology import (MODULUS_BOUND, HomologyCoordinates, HomologyError,
                       check_map_degree, homology, induced_map, is_prime,
                       normalized_chains)
from .simplicial import CellCapExceeded, SimplicialError
from .spaces import ComplexError, load_space
from .surface import SurfaceModelError
from .verify import SelectionError, catalog, run_suite

BUILTIN_NAMES = ["interval", "circle(m), m>=3", "sphere(d), d>=1", "torus",
                 "rp2", "wedge_circles(r), r>=1"]

# structure map name -> the construction whose result carries it
MAP_OWNERS = {m: name for name, entry in CONSTRUCTIONS.items() for m in entry.maps}


def _coeff_mod(coeff: str) -> int | None:
    coeff = coeff.lower()
    if coeff == "z":
        return None
    digits = coeff[1:]
    if coeff.startswith("f") and digits.isascii() and digits.isdigit():
        if len(digits) > 10 or int(digits) >= MODULUS_BOUND:
            raise ComplexError(f"modulus {digits} is not below 2^31")
        if is_prime(int(digits)):
            return int(digits)
    raise ComplexError(f"unsupported coefficient ring {coeff!r} "
                       "(use z, or fP for a prime P: f2, f3, f5, ...)")


def _vector_space(dim: int, p: int) -> str:
    """An F_p vector space, written as ``F_p^dim`` (``F_p`` for dim 1)."""
    if dim == 0:
        return "0"
    return f"F_{p}" if dim == 1 else f"F_{p}^{dim}"


def _homology_groups(args, mod: int | None) -> tuple[list, dict]:
    meta: dict = {"space": args.space, "construction": args.construction,
                  "coeff": args.coeff}
    entry = CONSTRUCTIONS[args.construction]
    space = entry.load(args.space)
    if entry.yields == "groups" and mod is not None:
        raise ComplexError(f"the {args.construction} model computes integral "
                           "homology only (use --coeff z)")
    built = entry.build(space, args.n)
    if entry.yields == "groups":
        return list(built.groups), meta
    if entry.yields == "sset":
        meta["cells"] = built.space.total_cells()
        meta["nondegenerate"] = list(built.space.nondeg_counts())
    chains = entry.chains(built)
    if args.construction == "surface":
        meta["generators"] = sum(chains.ranks)
    result = homology(chains, mod=mod)
    if result.unreliable:
        meta["unreliable_degrees"] = sorted(result.unreliable)
    return list(result.groups), meta


def _cmd_spaces(args) -> int:
    if args.emit == "json":
        print(json.dumps(BUILTIN_NAMES))
    else:
        for name in BUILTIN_NAMES:
            print(name)
    return 0


def _cmd_homology(args) -> int:
    mod = _coeff_mod(args.coeff)
    groups, meta = _homology_groups(args, mod)
    if args.emit == "json":
        print(json.dumps({"meta": meta, "groups": [g.as_dict() for g in groups]}))
    else:
        for g in groups:
            print(f"H_{g.degree} = {g if mod is None else _vector_space(g.betti, mod)}")
    return 0


def _cmd_map(args) -> int:
    spec = load_space(args.space)
    if args.name not in MAP_OWNERS:
        raise ComplexError(f"unknown map {args.name!r} (use {', '.join(MAP_OWNERS)})")
    f = CONSTRUCTIONS[MAP_OWNERS[args.name]].build(spec, args.n).maps[args.name]
    check_map_degree(f, args.degree)
    src = HomologyCoordinates(normalized_chains(f.source, with_labels=False))
    dst = HomologyCoordinates(normalized_chains(f.target, with_labels=False))
    matrix = induced_map(f, args.degree, src, dst)
    payload = {
        "map": args.name, "degree": args.degree,
        "source": str(src.group(args.degree)),
        "target": str(dst.group(args.degree)),
        "matrix": matrix,
    }
    if args.emit == "json":
        print(json.dumps(payload))
    else:
        print(f"{args.name}_* on H_{args.degree}: "
              f"{payload['source']} -> {payload['target']}")
        for row in matrix:
            print("  ", row)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite)
    if args.emit == "json":
        print(report.to_json())
    else:
        width = max((len(c.id) for c in report.cases), default=10) + 2
        for c in report.cases:
            line = f"{c.id:<{width}} {c.status:<13} {c.seconds:8.2f}s"
            if c.cells:
                line += f"  cells={c.cells}"
            if c.reason:
                line += f"  ({c.reason})"
            print(line)
        print(f"suite {report.suite!r}: "
              f"{'PASS' if report.passed else 'FAIL'} "
              f"({len(report.cases)} cases)")
    return 0 if report.passed else 1


def _cmd_cases(args) -> int:
    for case in catalog():
        print(f"{case.id:<32} [{case.tag}] {case.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsub",
        description="Exact homology of symmetric products and finite subset spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spaces", help="list built-in spaces")
    p.add_argument("--emit", choices=("table", "json"), default="table")
    p.set_defaults(fn=_cmd_spaces)

    p = sub.add_parser("homology", help="homology of a construction")
    p.add_argument("--space", required=True,
                   help="builtin:NAME, a JSON file path, or inline JSON: a complex, "
                        "or for the surface model a presentation such as "
                        '{"r": 1, "word": [1, 1]}')
    p.add_argument("--construction", choices=CONSTRUCTIONS, default="sub")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--coeff", default="z", help="z (default), f2, f3, ...")
    p.add_argument("--emit", choices=("table", "json"), default="table")
    p.set_defaults(fn=_cmd_homology)

    p = sub.add_parser("map", help="induced matrix of a structure map on homology")
    p.add_argument("--name", required=True, help="diag, j_n, j, pi or alpha")
    p.add_argument("--space", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--emit", choices=("table", "json"), default="table")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", default="paper",
                   help="paper (required cases), stretch, all, or a glob over case ids")
    p.add_argument("--emit", choices=("table", "json"), default="table")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cases", help="list verification cases")
    p.set_defaults(fn=_cmd_cases)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "n", 1) < 1:   # homology and map
            raise ComplexError(f"--n must be at least 1, not {args.n}")
        return args.fn(args)
    except (ComplexError, SurfaceModelError, SimplicialError, HomologyError,
            SelectionError, CellCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CellCapExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())
