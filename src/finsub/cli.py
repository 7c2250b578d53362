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
from pathlib import Path

from . import constructions as cons
from . import surface as surf
from .homology import (HomologyCoordinates, HomologyError, chain_map_matrices,
                       homology, induced_matrix_from_chain_map, is_prime,
                       normalized_chains)
from .spaces import ComplexError, OrderedComplexSpec, builtin_space, load_complex
from .verify import catalog, run_suite

BUILTIN_NAMES = ["interval", "circle(m), m>=3", "sphere(d), d>=1", "torus",
                 "rp2", "wedge_circles(r), r>=1"]

CONSTRUCTIONS = ("space", "sp", "sub", "based_sub3", "fat", "reduced_sp",
                 "reduced_sub", "cylinder", "coproduct", "surface")


def _load_space(arg: str) -> OrderedComplexSpec:
    if arg.startswith("builtin:"):
        return builtin_space(arg.split(":", 1)[1])
    path = Path(arg)
    if path.exists():
        return load_complex(path.read_text())
    return load_complex(arg)


def _coeff_mod(coeff: str) -> int | None:
    coeff = coeff.lower()
    if coeff == "z":
        return None
    if coeff.startswith("f") and coeff[1:].isdigit() and is_prime(int(coeff[1:])):
        return int(coeff[1:])
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
    if args.construction == "surface":
        name = args.space.split(":", 1)[-1]
        chains = surf.sp_chain_complex(surf.builtin_presentation(name), args.n)
        result = homology(chains, mod=mod)
        meta["generators"] = sum(chains.ranks)
        return list(result.groups), meta
    spec = _load_space(args.space)
    if args.construction == "coproduct":
        if mod is not None:
            raise ComplexError("the coproduct model computes integral homology "
                               "only (use --coeff z)")
        model = cons.sub3_homology_via_coproduct(spec)
        return list(model.groups), meta
    if args.construction == "cylinder":
        result = homology(cons.cylinder_chain_model(spec), mod=mod)
        if result.unreliable:
            meta["unreliable_degrees"] = sorted(result.unreliable)
        return list(result.groups), meta
    if args.construction == "space":
        from .simplicial import from_ordered_complex
        sset = from_ordered_complex(spec, spec.dimension + 1)
    elif args.construction == "sp":
        sset = cons.symmetric_product(spec, args.n).space
    elif args.construction == "sub":
        sset = cons.finite_subset_space(spec, args.n, with_filtration=False).space
    elif args.construction == "based_sub3":
        sset = cons.based_subset3(spec).space
    elif args.construction == "fat":
        sset = cons.fat_diagonal(spec, args.n).space
    elif args.construction in ("reduced_sp", "reduced_sub"):
        sset = cons.reduced(spec, args.n, args.construction.split("_")[1]).space
    else:
        raise ComplexError(f"unknown construction {args.construction!r}")
    meta["cells"] = sset.total_cells()
    meta["nondegenerate"] = list(sset.nondeg_counts())
    result = homology(normalized_chains(sset, with_labels=False), mod=mod)
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
    spec = _load_space(args.space)
    if args.name in ("diag", "j_n"):
        built = cons.symmetric_product(spec, args.n)
        f = built.maps[args.name]
    elif args.name in ("j", "pi"):
        built = cons.finite_subset_space(spec, args.n, with_filtration=False)
        f = built.maps[args.name]
    elif args.name == "alpha":
        built = cons.based_subset3(spec)
        f = built.maps["alpha"]
    else:
        raise ComplexError(f"unknown map {args.name!r} "
                           "(use diag, j_n, j, pi, alpha)")
    if not 0 <= args.degree <= f.source.truncation:
        raise HomologyError(f"degree {args.degree} out of range "
                            f"0..{f.source.truncation} for {args.name}")
    src = HomologyCoordinates(normalized_chains(f.source, with_labels=False))
    dst = HomologyCoordinates(normalized_chains(f.target, with_labels=False))
    F = chain_map_matrices(f)[args.degree]
    matrix = induced_matrix_from_chain_map(F, args.degree, src, dst)
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
    suite = args.filter if args.filter else args.suite
    report = run_suite(suite, jobs=args.jobs)
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
                   help="builtin:NAME, a JSON file path, or inline JSON")
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
                   help="paper (required cases), stretch, or all")
    p.add_argument("--filter", default=None, help="glob over case ids")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--emit", choices=("table", "json"), default="table")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cases", help="list verification cases")
    p.set_defaults(fn=_cmd_cases)
    return parser


def main(argv=None) -> int:
    from .simplicial import CellCapExceeded, SimplicialError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ComplexError, surf.SurfaceModelError, SimplicialError,
            HomologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CellCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
