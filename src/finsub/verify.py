"""Verification suite: every headline calculation as a reproducible case.

Cases are data (exact integer expectations throughout; there are no
tolerances anywhere).  Each case names its invariant, which picks the one
runner that computes and compares it, and, where it has one, a construction
of the registry ``constructions.CONSTRUCTIONS`` on a built-in space with its
n; cases over several constructions list them as labelled
``(label, construction, space, n)`` models.  A memo per run, keyed by
registry name, space and n, lets cases that need the same construction
reuse it.  Reports are deterministic, JSON-serializable, and the suite
fails exactly when a required case does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch

import numpy as np

from . import orbits
from .constructions import CONSTRUCTIONS
from .fundamental import abelianization, fundamental_presentation, tietze_simplify
from .homology import (HomologyCoordinates, HomologyGroup, SparseIntMatrix,
                       euler_characteristic, homology, induced_map, normalized_chains,
                       smith_normal_form, universal_coefficients_consistent)
from .simplicial import CellCapExceeded
from .spaces import builtin_space

STATUSES = ("pass", "fail", "inconclusive", "skipped", "error")


class SelectionError(ValueError):
    """A suite name or filter that selects no verification case."""


@dataclass(frozen=True)
class VerificationCase:
    """One verification recipe with its expected outcome.

    ``invariant`` is a key of ``_RUNNERS``; ``construction``, ``space`` and
    ``n`` name a registry construction on a built-in space; ``params``
    holds whatever else the runner reads; ``mod`` is a prime for F_p
    homology.
    """

    id: str
    description: str
    invariant: str
    construction: str | None = None
    space: str | None = None
    n: int | None = None
    expected: object = None
    params: tuple[tuple[str, object], ...] = ()
    mod: int | None = None
    tag: str = "required"
    inconclusive_fails: bool = True

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def key(self) -> tuple:
        return (self.construction, self.space, self.n)


@dataclass
class CaseReport:
    id: str
    status: str
    tag: str
    seconds: float = 0.0
    cells: int | None = None
    expected: object = None
    computed: object = None
    reason: str | None = None
    strict: bool = True

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "tag": self.tag,
            "seconds": round(self.seconds, 3),
            "cells": self.cells,
            "expected": self.expected,
            "computed": self.computed,
            "reason": self.reason,
            "strict": self.strict,
        }


@dataclass
class Report:
    suite: str
    cases: list[CaseReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """False iff a required case fails.

        A skipped required case, or one that raised, counts as a failure;
        an inconclusive pi_1 simplification fails only cases whose claim is
        decidable, which is recorded in the ``strict`` flag.
        """
        for c in self.cases:
            if c.tag != "required":
                continue
            if c.status in ("fail", "skipped", "error"):
                return False
            if c.status == "inconclusive" and c.strict:
                return False
        return True

    def as_dict(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "cases": [c.as_dict() for c in self.cases]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite", "passed", "cases"],
    "properties": {
        "suite": {"type": "string"},
        "passed": {"type": "boolean"},
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "status", "tag", "seconds"],
                "properties": {
                    "id": {"type": "string"},
                    "status": {"enum": list(STATUSES)},
                    "tag": {"enum": ["required", "stretch"]},
                    "seconds": {"type": "number"},
                    "cells": {"type": ["integer", "null"]},
                    "reason": {"type": ["string", "null"]},
                    "strict": {"type": "boolean"},
                },
            },
        },
    },
}


def _cached(cache: dict, key, build):
    """The value of ``key`` in this run's memo, built on its first request."""
    if key not in cache:
        cache[key] = build()
    return cache[key]


# ----------------------------------------------------------------------
# registry constructions, built once per run
# ----------------------------------------------------------------------

def _built(cache, construction, space, n=None):
    entry = CONSTRUCTIONS[construction]
    return _cached(cache, (construction, space, n),
                   lambda: entry.build(entry.load(f"builtin:{space}"), n))


def _chains(cache, construction, space, n=None):
    entry = CONSTRUCTIONS[construction]
    return _cached(cache, ("chains", construction, space, n),
                   lambda: entry.chains(_built(cache, construction, space, n)))


def _homology(cache, construction, space, n=None, mod=None):
    chains = _chains(cache, construction, space, n)
    return _cached(cache, ("H", construction, space, n, mod), lambda: homology(chains, mod=mod))


def _groups(cache, construction, space, n=None, mod=None) -> tuple[HomologyGroup, ...]:
    if CONSTRUCTIONS[construction].yields == "groups":   # integral only
        return _built(cache, construction, space, n).groups
    return _homology(cache, construction, space, n, mod).groups


def _cells(cache, construction, space, n=None) -> int | None:
    """Cells of a simplicial set, generators of a chain model, else None."""
    yields = CONSTRUCTIONS[construction].yields
    if yields == "groups":
        return None
    built = _built(cache, construction, space, n)
    return built.space.total_cells() if yields == "sset" else sum(built.ranks)


def _group(groups, k: int) -> HomologyGroup:
    return groups[k] if k < len(groups) else HomologyGroup(k, 0)


def _groups_to_list(groups) -> list:
    return [[g.betti, list(g.torsion)] for g in groups]


def _compare_homology(groups, expected, partial: dict | None = None):
    """Exact comparison with the expected list, beyond which every degree
    must vanish, or with a partial claim ``{degree: [betti, torsion]}``,
    whose mismatches are returned."""
    if partial is not None:
        diffs = {}
        for degree, (betti, torsion) in partial.items():
            g = _group(groups, degree)
            if (g.betti, list(g.torsion)) != (betti, list(torsion)):
                diffs[str(degree)] = [g.betti, list(g.torsion)]
        return not diffs, diffs
    top = max(len(groups), len(expected))
    want = list(expected) + [[0, []]] * (top - len(expected))
    ok = _groups_to_list(_group(groups, k) for k in range(top)) == want
    return ok, _groups_to_list(groups)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# ----------------------------------------------------------------------
# case runners, one per invariant
# ----------------------------------------------------------------------

def _run_homology_case(case, cache, report):
    report.cells = _cells(cache, *case.key)
    ok, report.computed = _compare_homology(_groups(cache, *case.key, mod=case.mod),
                                            case.expected, case.param_dict.get("partial"))
    report.status = _verdict(ok)


def _run_agreement_case(case, cache, report):
    """The labelled models have equal homology in the degrees of the
    expected list (and equal to it), or in all degrees if none is given."""
    rows = {}
    for label, construction, space, n in case.param_dict["models"]:
        groups = _groups(cache, construction, space, n)
        top = len(groups) if case.expected is None else len(case.expected)
        rows[label] = _groups_to_list(_group(groups, k) for k in range(top))
    report.computed = rows
    first = next(iter(rows.values()))
    report.status = _verdict(all(row == first for row in rows.values())
                             and (case.expected is None or first == case.expected))


def _run_pi1_case(case, cache, report):
    """The abelianization of pi_1 is the expected [betti, torsion], or, with
    nothing expected, Tietze moves must trivialize the presentation."""
    sset = _built(cache, *case.key).space
    report.cells = sset.total_cells()
    pres = fundamental_presentation(sset)
    ab = abelianization(pres)
    if case.expected is not None:
        got = [ab.betti, list(ab.torsion)]
        report.computed = {"abelianization": got}
        report.status = _verdict(got == case.expected)
        return
    simplified = tietze_simplify(pres)
    report.computed = {"generators": simplified.generator_count,
                       "relators": len(simplified.relators)}
    if simplified.is_trivial:
        report.status = "pass"
    elif not ab.is_zero:
        report.status = "fail"   # H_1 already obstructs triviality
    else:
        report.status = "inconclusive"
        report.reason = "simplification budget exhausted"


def _run_map_case(case, cache, report):
    """The induced matrix of a structure map on H_degree: between free
    groups with the expected entrywise absolute values, or, with nothing
    expected, nonzero (modulo the target orders) on the given generator."""
    p = case.param_dict
    degree = p["degree"]
    f = _built(cache, *case.key).maps[p["map"]]
    src = _cached(cache, ("coords", case.key, p["map"]), lambda: HomologyCoordinates(
        normalized_chains(f.source, with_labels=False)))
    dst = _cached(cache, ("coords", case.key),
                  lambda: HomologyCoordinates(_chains(cache, *case.key)))
    matrix = induced_map(f, degree, src, dst)
    report.computed = {"matrix": matrix}
    if case.expected is not None:
        ok = ([[abs(v) for v in row] for row in matrix] == case.expected
              and not any(src.moduli(degree) + dst.moduli(degree)))
    else:
        column = [row[p["generator"]] for row in matrix]
        ok = any(v % m if m else v for v, m in zip(column, dst.moduli(degree)))
    report.status = _verdict(ok)


def _run_coproduct_image_case(case, cache, report):
    """The image under j of a homology generator of X is nonzero in the
    coproduct model of Sub_3(X, x0)."""
    p = case.param_dict
    model = _built(cache, *case.key)
    nonzero = not model.image_is_zero(p["degree"], "j", p["generator"])
    report.computed = {"image_nonzero": nonzero}
    report.status = _verdict(nonzero)


def _run_same_cells_case(case, cache, report):
    """Sub_n(X) and SP^n(X) have the same cells: as many of all cells, and
    the same nondegenerate cells with the same faces."""
    sub = _built(cache, "sub", case.space, case.n).space
    sp = _built(cache, "sp", case.space, case.n).space
    same = (sub.counts == sp.counts and sub.ranks == sp.ranks
            and all(np.array_equal(a, b) for a, b in zip(sub.faces[1:], sp.faces[1:])))
    report.cells = sub.total_cells()
    report.computed = {"cell_isomorphic": same}
    report.status = _verdict(same)


def _run_relative_case(case, cache, report):
    """SP^n(X) modulo its fat diagonal (collapsed to a point) has the
    homology of Sub_n / Sub_(n-1)."""
    spec = builtin_space(case.space)
    form = orbits.sp_over_fat_form(case.n)
    sp_over_fat = orbits.build(spec, case.n, {"q": (form, f"SP^{case.n}({spec.name})/fat")})["q"]
    a = _groups_to_list(homology(normalized_chains(sp_over_fat, with_labels=False)).groups)
    b = _groups_to_list(_groups(cache, "reduced_sub", case.space, case.n))
    report.computed = {"sp_over_fat": a, "sub_over_prev": b}
    report.status = _verdict(a == b)


def _run_snf_case(case, cache, report):
    checks = []
    eye = SparseIntMatrix.identity(3)
    s = smith_normal_form(eye)
    checks.append(s.diagonal == (1, 1, 1) and s.verify_unimodular())
    m = SparseIntMatrix.from_dense([[2, 4], [6, 8]])
    s = smith_normal_form(m)
    checks.append(s.diagonal == (2, 4) and s.verify_unimodular())
    z = SparseIntMatrix.zeros(3, 4)
    s = smith_normal_form(z)
    checks.append(s.diagonal == ())
    rng = np.random.default_rng(12345)
    for _ in range(12):
        rows, cols = rng.integers(1, 7, size=2)
        dense = rng.integers(-9, 10, size=(rows, cols)).tolist()
        m = SparseIntMatrix.from_dense(dense)
        s = smith_normal_form(m)
        checks.append(s.verify_unimodular())
        checks.append(all(b % a == 0 for a, b in zip(s.diagonal, s.diagonal[1:])))
    report.computed = {"checks": len(checks), "failed": checks.count(False)}
    report.status = _verdict(all(checks))


def _run_dimension_bound_case(case, cache, report):
    """Sub_n(X) has no nondegenerate cells above n * dim(X)."""
    bad = []
    for name, n in case.param_dict["instances"]:
        bound = n * builtin_space(name).dimension
        counts = _built(cache, "sub", name, n).space.nondeg_counts()
        if any(c for level, c in enumerate(counts) if level > bound):
            bad.append([name, n])
    report.computed = {"violations": bad}
    report.status = _verdict(not bad)


def _run_uct_case(case, cache, report):
    """Mod-2 homology dimensions follow from integral homology."""
    bad = [[label, space, n] for label, construction, space, n in case.param_dict["models"]
           if not universal_coefficients_consistent(
               _homology(cache, construction, space, n),
               _homology(cache, construction, space, n, mod=2), 2)]
    report.computed = {"violations": bad}
    report.status = _verdict(not bad)


def _run_revalidate_case(case, cache, report):
    """Face identities and d o d = 0, re-checked explicitly on the models
    (both also run at construction time)."""
    checked, ok = [], True
    for label, construction, space, n in case.param_dict["models"]:
        _built(cache, construction, space, n).space.check()
        chains = _chains(cache, construction, space, n)
        ok = ok and all(chains.boundary(k - 1).matmul(chains.boundary(k)).is_zero()
                        for k in range(2, chains.top_degree + 1))
        checked.append([label, space, n])
    report.computed = {"revalidated": checked}
    report.status = _verdict(ok)


def _run_poincare_failure_case(case, cache, report):
    """Torsion in H_4 with trivial H_1 rules out a closed manifold."""
    groups = _groups(cache, *case.key)
    h1_zero = _group(groups, 1).is_zero
    torsion4 = list(_group(groups, 4).torsion)
    report.computed = {"H1_zero": h1_zero, "H4_torsion": torsion4}
    report.status = _verdict(h1_zero and torsion4)


def _run_euler_case(case, cache, report):
    """The Euler characteristic of each model, from chain ranks and from
    Betti numbers, is the expected one."""
    chain, betti = {}, {}
    for label, construction, space, n in case.param_dict["models"]:
        chain[label] = euler_characteristic(_chains(cache, construction, space, n))
        betti[label] = sum((-1) ** k * g.betti
                           for k, g in enumerate(_groups(cache, construction, space, n)))
    report.computed = {"chain": chain, "betti": betti}
    report.status = _verdict(chain == case.expected and betti == chain)


def _run_mismatch_selftest_case(case, cache, report):
    """Harness self-test: a deliberately wrong expectation must be reported."""
    ok, report.computed = _compare_homology(_groups(cache, *case.key), case.expected)
    report.status = _verdict(not ok)


_RUNNERS = {
    "homology": _run_homology_case,
    "agreement": _run_agreement_case,
    "pi1": _run_pi1_case,
    "map": _run_map_case,
    "coproduct_image": _run_coproduct_image_case,
    "same_cells": _run_same_cells_case,
    "relative": _run_relative_case,
    "snf": _run_snf_case,
    "dimension_bound": _run_dimension_bound_case,
    "uct": _run_uct_case,
    "revalidate": _run_revalidate_case,
    "poincare_failure": _run_poincare_failure_case,
    "euler": _run_euler_case,
    "mismatch_selftest": _run_mismatch_selftest_case,
}


def run_case(case: VerificationCase, cache: dict | None = None) -> CaseReport:
    """Execute one case, sharing constructions through ``cache``.

    Resource-cap overruns become 'skipped'; any other exception becomes
    'error' with its message as the reason, so the rest of a suite runs on.
    """
    cache = {} if cache is None else cache
    report = CaseReport(id=case.id, status="fail", tag=case.tag,
                        expected=case.expected, strict=case.inconclusive_fails)
    start = time.perf_counter()
    try:
        _RUNNERS[case.invariant](case, cache, report)
    except CellCapExceeded as exc:
        report.status = "skipped"
        report.reason = str(exc)
    except Exception as exc:
        report.status = "error"
        report.reason = f"{type(exc).__name__}: {exc}"
    report.seconds = time.perf_counter() - start
    return report


# ----------------------------------------------------------------------
# the case catalog (mirrors the acceptance criteria)
# ----------------------------------------------------------------------

def _h(*rows):
    return [[betti, list(torsion)] for betti, torsion in rows]


def _three_models(space):
    return (("models", (("quotient", "based_sub3", space, None),
                        ("cylinder", "cylinder", space, None),
                        ("coproduct", "coproduct", space, None))),)


def catalog() -> list[VerificationCase]:
    Z, Z2, O = (1, ()), (0, (2,)), (0, ())
    V = VerificationCase
    cases = [
        # 1. Sub_2(S^1) = SP^2(S^1) is the Moebius band
        V("sub2-equals-sp2", "Sub_2 and SP^2 coincide cellwise on the circle",
          "same_cells", space="circle3", n=2),
        V("mobius-sp2-s1", "SP^2 of the circle has the homology of S^1",
          "homology", "sp", "circle3", 2, _h(Z, Z)),
        # 2. reduced two-fold constructions of the circle
        V("bar-sub2-s1-rp2", "Sub_2(S^1)/Sub_1 is a projective plane",
          "homology", "reduced_sub", "circle3", 2, _h(Z, Z2)),
        V("bar-sp2-s1-acyclic", "SP^2(S^1)/SP^1 is acyclic",
          "homology", "reduced_sp", "circle3", 2, _h(Z)),
        # 3. Bott: Sub_3(S^1) is the 3-sphere
        V("bott-sub3-s1", "Sub_3(S^1) has the homology of S^3",
          "homology", "sub", "circle3", 3, _h(Z, O, O, Z)),
        V("bott-sub3-s1-pi1", "pi_1(Sub_3 S^1) trivializes",
          "pi1", "sub", "circle3", 3, inconclusive_fails=False),
        # 4. Sub_4(S^1) is S^3
        V("sub4-s1", "Sub_4(S^1) has the homology of S^3",
          "homology", "sub", "circle3", 4, _h(Z, O, O, Z)),
        # 5. two-fold constructions on the 2-sphere
        V("sp2-s2-cp2", "SP^2(S^2) is the complex projective plane",
          "homology", "sp", "sphere2", 2, _h(Z, O, Z, O, Z)),
        V("bar-sp2-s2-s4", "SP^2(S^2)/SP^1 is a 4-sphere",
          "homology", "reduced_sp", "sphere2", 2, _h(Z, O, O, O, Z)),
        V("bar-sub2-s2", "Sub_2(S^2)/Sub_1 has H_4=Z, H_2=Z/2",
          "homology", "reduced_sub", "sphere2", 2, _h(Z, O, Z2, O, Z)),
        # 6. Sub_3(S^2)
        V("sub3-s2", "Sub_3(S^2): Z in degree 6, Z+Z/2 in degree 4",
          "homology", "sub", "sphere2", 3, _h(Z, O, O, O, (1, (2,)), O, Z)),
        V("sub3-s2-pi1", "pi_1(Sub_3 S^2) trivializes",
          "pi1", "sub", "sphere2", 3, inconclusive_fails=False),
        # 7. SP^2 of the torus, two independent models
        V("sp2-torus-two-models", "orbit-engine and surface models agree on SP^2(torus)",
          "agreement", expected=_h(Z, (2, ()), (2, ()), (2, ()), Z),
          params=(("models", (("quotient", "sp", "torus", 2),
                              ("surface", "surface", "torus", 2))),)),
        # 8. three models of Sub_3(X, x0)
        V("three-model-s1", "three models agree: circle gives a point",
          "agreement", expected=_h(Z, O, O), params=_three_models("circle3")),
        V("three-model-s2", "three models agree: S^2 gives S^4",
          "agreement", expected=_h(Z, O, O, O, Z), params=_three_models("sphere2")),
        V("three-model-torus", "three models agree on the torus",
          "agreement", expected=_h(Z, O, Z, (2, ()), Z), params=_three_models("torus")),
        # 9. induced maps
        V("induced-diag-s2", "diagonal doubles H_2 into SP^2(S^2)",
          "map", "sp", "sphere2", 2, [[2]], (("map", "diag"), ("degree", 2))),
        V("induced-j2-s2", "basepoint inclusion is iso on H_2",
          "map", "sp", "sphere2", 2, [[1]], (("map", "j_n"), ("degree", 2))),
        V("induced-jx0-torus", "fundamental class of the torus survives in Sub_3(T,x0)",
          "coproduct_image", "coproduct", "torus",
          params=(("degree", 2), ("generator", 0))),
        V("induced-j-torus-direct", "fundamental class of the torus survives in Sub_3(T)",
          "map", "sub", "torus", 3, params=(("map", "j"), ("degree", 2), ("generator", 0)),
          tag="stretch"),
        # 10. top-dimension instances
        V("top-sp2-s3", "SP^2(S^3) has trivial top homology",
          "homology", "sp", "sphere3", 2, params=(("partial", {6: [0, []]}),)),
        V("top-sp2-rp2-z", "SP^2(RP^2): H_4 vanishes over Z",
          "homology", "sp", "rp2", 2, params=(("partial", {4: [0, []]}),)),
        V("top-sp2-rp2-f2", "SP^2(RP^2): H_4 is F_2 mod 2",
          "homology", "sp", "rp2", 2, params=(("partial", {4: [1, []]}),), mod=2),
        V("top-surface-sp3-torus", "surface model: H_6(SP^3 T) = Z",
          "homology", "surface", "torus", 3, params=(("partial", {6: [1, []]}),)),
        V("top-surface-sp3-torus-f2", "surface model: H_5(SP^3 T; F_2) = F_2^2",
          "homology", "surface", "torus", 3, params=(("partial", {5: [2, []]}),), mod=2),
        V("top-surface-sp3-genus2-f2", "surface model: H_5(SP^3 genus-2; F_2) = F_2^4",
          "homology", "surface", "genus2", 3, params=(("partial", {5: [4, []]}),), mod=2),
        V("top-surface-sp2-torus-f2", "surface model: H_3(SP^2 T; F_2) = F_2^2",
          "homology", "surface", "torus", 2, params=(("partial", {3: [2, []]}),), mod=2),
        V("top-surface-sp2-genus2-f2", "surface model: H_3(SP^2 genus-2; F_2) = F_2^4",
          "homology", "surface", "genus2", 2, params=(("partial", {3: [4, []]}),), mod=2),
        V("top-dim-pi-iso-s2", "projection SP^3 -> Sub_3 is iso on H_6 for the sphere",
          "map", "sub", "sphere2", 3, [[1]], (("map", "pi"), ("degree", 6))),
        # 11. based three-fold subset space of S^3
        V("sub3-s3-based", "Sub_3(S^3, x0) is a suspended RP^2",
          "homology", "cylinder", "sphere3", None, _h(Z, O, O, O, O, Z2, O)),
        # 12. property suites
        V("snf-certificates", "Smith form certificates and divisibility", "snf"),
        V("identities-and-boundaries", "simplicial identities and d o d = 0 re-checked",
          "revalidate", params=(("models", (("sp", "sp", "circle3", 2),
                                            ("sub", "sub", "circle3", 3),
                                            ("sp", "sp", "sphere2", 2),
                                            ("based", "based_sub3", "torus", None))),)),
        V("dimension-bound", "no nondegenerate classes above n*dim(X)",
          "dimension_bound", params=(("instances", (("circle3", 3), ("circle3", 4),
                                                    ("sphere2", 2), ("sphere2", 3))),)),
        V("universal-coefficients", "mod-2 dimensions match Z homology",
          "uct", params=(("models", (("sp", "sp", "sphere2", 2),
                                     ("sp", "sp", "torus", 2),
                                     ("sp", "sp", "rp2", 2),
                                     ("sub", "sub", "circle3", 3),
                                     ("sub", "sub", "sphere2", 3),
                                     ("based", "based_sub3", "torus", None))),)),
        V("relative-s1-n2", "SP^2/fat = Sub_2/Sub_1 on the circle",
          "relative", space="circle3", n=2),
        V("relative-s1-n3", "SP^3/fat = Sub_3/Sub_2 on the circle",
          "relative", space="circle3", n=3),
        V("relative-s2-n2", "SP^2/fat = Sub_2/Sub_1 on the sphere",
          "relative", space="sphere2", n=2),
        V("triangulation-invariance", "Sub_3 homology agrees for 3- and 4-vertex circles",
          "agreement", params=(("models", (("circle3", "sub", "circle3", 3),
                                           ("circle4", "sub", "circle4", 3))),)),
        V("poincare-failure-sub3-s2",
          "torsion in H_4 with trivial H_1 rules out a closed manifold",
          "poincare_failure", "sub", "sphere2", 3),
        V("euler-characteristics", "chi from ranks equals chi from Betti",
          "euler", expected={"sp2_s2": 3, "sub3_s1": 0, "torus": 0},
          params=(("models", (("sp2_s2", "sp", "sphere2", 2),
                              ("sub3_s1", "sub", "circle3", 3),
                              ("torus", "space", "torus", None))),)),
        V("pi1-abelianization-sp2-torus", "pi_1(SP^2 T) abelianizes to Z^2",
          "pi1", "sp", "torus", 2, [2, []]),
        V("expected-mismatch-selftest", "harness reports a deliberate torsion mismatch",
          "mismatch_selftest", "space", "rp2", None, _h(Z, (0, (4,)), O)),
        # stretch cases
        V("stretch-sub5-s1", "Sub_5(S^1) has the homology of S^5",
          "homology", "sub", "circle3", 5, _h(Z, O, O, O, O, Z), tag="stretch"),
        V("stretch-sub4-s2", "Sub_4(S^2): H_6 = Z + Z/3",
          "homology", "sub", "sphere2", 4, params=(("partial", {6: [1, [3]]}),),
          tag="stretch"),
    ]
    return cases


def run_suite(filter: str = "paper") -> Report:
    """Run the catalog in order: 'paper' (required), 'stretch', 'all', or a
    glob over case ids."""
    tags = {"paper": {"required"}, "stretch": {"stretch"}, "all": {"required", "stretch"}}
    selected = [c for c in catalog()
                if (c.tag in tags[filter] if filter in tags else fnmatch(c.id, filter))]
    if not selected:
        raise SelectionError(f"no verification case matches {filter!r} "
                             "(use paper, stretch, all, or a glob over case ids)")
    cache: dict = {}
    return Report(suite=filter, cases=[run_case(case, cache) for case in selected])
