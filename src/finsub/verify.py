"""Verification suite: every headline calculation as a reproducible case.

Cases are declarative recipes plus expected values (exact integer data
throughout; there are no tolerances anywhere).  A shared cache lets cases
that need the same construction reuse it.  Reports are deterministic,
JSON-serializable, and the suite fails exactly when a required case does.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from fnmatch import fnmatch

import numpy as np

from . import constructions as cons
from . import surface as surf
from .fundamental import abelianization, fundamental_presentation, tietze_simplify
from .homology import (HomologyGroup, SparseIntMatrix, euler_characteristic,
                       homology, normalized_chains, smith_normal_form,
                       universal_coefficients_consistent)
from .simplicial import CellCapExceeded, compose_maps, from_ordered_complex, sub_object
from .spaces import builtin_space

STATUSES = ("pass", "fail", "inconclusive", "skipped", "error")


@dataclass(frozen=True)
class VerificationCase:
    """One verification recipe with its expected outcome."""

    id: str
    description: str
    builder: str
    params: tuple[tuple[str, object], ...] = ()
    coeff: str = "z"
    expected: object = None
    tag: str = "required"
    inconclusive_fails: bool = True

    @property
    def param_dict(self) -> dict:
        return dict(self.params)


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

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        report = cls(suite=data["suite"])
        for c in data["cases"]:
            report.cases.append(CaseReport(
                id=c["id"], status=c["status"], tag=c["tag"],
                seconds=c["seconds"], cells=c.get("cells"),
                expected=c.get("expected"), computed=c.get("computed"),
                reason=c.get("reason"), strict=c.get("strict", True)))
        return report


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


class _Cache:
    """Thread-safe memo for constructions shared between cases.

    Each key holds one future: a case that needs a construction another
    thread is building waits for that build instead of repeating it.
    """

    def __init__(self):
        self._data: dict[object, Future] = {}
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            future = self._data.get(key)
            owner = future is None
            if owner:
                future = self._data[key] = Future()
        if owner:
            try:
                future.set_result(build())
            except BaseException as exc:
                future.set_exception(exc)
                raise
        return future.result()


def _groups_to_list(groups) -> list:
    return [[g.betti, list(g.torsion)] for g in groups]


def _expected_groups(expected) -> list[HomologyGroup]:
    return [HomologyGroup(k, betti, tuple(torsion))
            for k, (betti, torsion) in enumerate(expected)]


def _compare_homology(result, expected, partial: dict | None = None):
    """Exact comparison; degrees beyond the expected list must vanish."""
    computed = list(result.groups)
    if partial is not None:
        diffs = {}
        for degree, (betti, torsion) in partial.items():
            g = result.group(int(degree))
            if (g.betti, list(g.torsion)) != (betti, list(torsion)):
                diffs[degree] = [g.betti, list(g.torsion)]
        return not diffs, {str(k): v for k, v in diffs.items()}
    want = _expected_groups(expected)
    ok = True
    for k in range(max(len(computed), len(want))):
        got = result.group(k)
        exp = want[k] if k < len(want) else HomologyGroup(k, 0)
        if (got.betti, got.torsion) != (exp.betti, exp.torsion):
            ok = False
    return ok, _groups_to_list(computed)


# ----------------------------------------------------------------------
# shared constructions
# ----------------------------------------------------------------------

def _space(cache, name):
    return cache.get(("spec", name), lambda: builtin_space(name))


def _complex_sset(cache, name):
    spec = _space(cache, name)
    return cache.get(("sset", name),
                     lambda: from_ordered_complex(spec, spec.dimension + 1))


def _sp(cache, name, n):
    return cache.get(("sp", name, n),
                     lambda: cons.symmetric_product(_space(cache, name), n))


def _sub(cache, name, n, filtration=False):
    key = ("sub", name, n, filtration)
    return cache.get(key, lambda: cons.finite_subset_space(
        _space(cache, name), n, with_filtration=filtration))


def _based(cache, name):
    return cache.get(("based", name),
                     lambda: cons.based_subset3(_space(cache, name)))


def _chains(cache, key, sset_fn):
    return cache.get(("chains",) + key,
                     lambda: normalized_chains(sset_fn(), with_labels=False))


def _homology(cache, key, sset_fn, mod=None):
    chains = _chains(cache, key, sset_fn)
    return cache.get(("H", key, mod), lambda: homology(chains, mod=mod))


def _builder_sset(cache, case):
    p = case.param_dict
    name = p["space"]
    builder = case.builder
    if builder == "complex":
        return ("complex", name), lambda: _complex_sset(cache, name)
    if builder == "sp":
        return ("sp", name, p["n"]), lambda: _sp(cache, name, p["n"]).space
    if builder == "sub":
        return ("sub", name, p["n"]), lambda: _sub(cache, name, p["n"]).space
    if builder == "based_sub3":
        return ("based", name), lambda: _based(cache, name).space
    if builder == "fat":
        return (("fat", name, p["n"]),
                lambda: cache.get(("fatc", name, p["n"]),
                                  lambda: cons.fat_diagonal(_space(cache, name), p["n"])).space)
    if builder in ("reduced_sp", "reduced_sub"):
        kind = builder.split("_")[1]
        return ((builder, name, p["n"]),
                lambda: cache.get((builder + "c", name, p["n"]),
                                  lambda: cons.reduced(_space(cache, name), p["n"], kind)).space)
    raise ValueError(f"unknown sset builder {builder}")


# ----------------------------------------------------------------------
# case runners
# ----------------------------------------------------------------------

def _run_homology_case(case, cache, report):
    p = case.param_dict
    mod = {"z": None, "f2": 2, "f3": 3}[case.coeff]
    if case.builder == "cylinder":
        chains = cache.get(("cylinder", p["space"]),
                           lambda: cons.cylinder_chain_model(_space(cache, p["space"])))
        result = homology(chains, mod=mod)
        report.cells = sum(chains.ranks)
    elif case.builder == "coproduct":
        model = cache.get(("coproduct", p["space"]),
                          lambda: cons.sub3_homology_via_coproduct(_space(cache, p["space"])))
        ok, computed = _compare_homology_groups(model.groups, case.expected)
        report.computed = computed
        report.status = "pass" if ok else "fail"
        return
    elif case.builder == "surface":
        chains = cache.get(("surface", p["space"], p["n"]),
                           lambda: surf.sp_chain_complex(
                               surf.builtin_presentation(p["space"]), p["n"]))
        result = homology(chains, mod=mod)
        report.cells = sum(chains.ranks)
    else:
        key, fn = _builder_sset(cache, case)
        sset = fn()
        report.cells = sset.total_cells()
        result = _homology(cache, key, lambda: sset, mod=mod)
    ok, computed = _compare_homology(result, case.expected,
                                     partial=p.get("partial"))
    report.computed = computed
    report.status = "pass" if ok else "fail"


def _compare_homology_groups(groups, expected):
    want = _expected_groups(expected)
    ok = True
    top = max(len(groups), len(want))
    for k in range(top):
        got = groups[k] if k < len(groups) else HomologyGroup(k, 0)
        exp = want[k] if k < len(want) else HomologyGroup(k, 0)
        if (got.betti, got.torsion) != (exp.betti, exp.torsion):
            ok = False
    return ok, _groups_to_list(groups)


def _run_pi1_case(case, cache, report):
    p = case.param_dict
    name, n = p["space"], p["n"]
    if p.get("construction", "sub") == "sp":
        sset = _sp(cache, name, n).space
    else:
        sset = _sub(cache, name, n).space
    report.cells = sset.total_cells()
    pres = fundamental_presentation(sset)
    ab = abelianization(pres)
    expect = p.get("abelianization")
    if expect is not None:
        ok = (ab.betti, list(ab.torsion)) == (expect[0], expect[1])
        report.computed = {"abelianization": [ab.betti, list(ab.torsion)]}
        report.status = "pass" if ok else "fail"
        return
    simplified = tietze_simplify(pres, budget=p.get("budget", 20000))
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
    p = case.param_dict
    name = p["space"]
    which = p["map"]
    if which in ("diag", "j_n"):
        sp = _sp(cache, name, p.get("n", 2))
        f = sp.maps[which]
        src_key, dst_key = ("sset", name), ("sp", name, p.get("n", 2))
        coords_src = cache.get(("coords",) + src_key,
                               lambda: _coords(cache, src_key, lambda: f.source))
        coords_dst = cache.get(("coords",) + dst_key,
                               lambda: _coords(cache, dst_key, lambda: f.target))
        from .homology import chain_map_matrices, induced_matrix_from_chain_map
        F = chain_map_matrices(f)[p["degree"]]
        matrix = induced_matrix_from_chain_map(F, p["degree"], coords_src, coords_dst)
        report.computed = {"matrix": matrix}
        expect = p["abs_matrix"]
        got = [[abs(v) for v in row] for row in matrix]
        report.status = "pass" if got == expect else "fail"
        return
    if which == "jx0_coproduct":
        model = cache.get(("coproduct", name),
                          lambda: cons.sub3_homology_via_coproduct(_space(cache, name)))
        nonzero = not model.image_is_zero(p["degree"], "j", p["generator"])
        report.computed = {"image_nonzero": nonzero}
        report.status = "pass" if nonzero else "fail"
        return
    if which == "j_direct":
        sub = _sub(cache, name, p["n"])
        from .homology import HomologyCoordinates, chain_map_matrices, \
            induced_matrix_from_chain_map
        f = sub.maps["j"]
        coords_src = HomologyCoordinates(normalized_chains(f.source, with_labels=False))
        coords_dst = HomologyCoordinates(normalized_chains(f.target, with_labels=False))
        F = chain_map_matrices(f)[p["degree"]]
        matrix = induced_matrix_from_chain_map(F, p["degree"], coords_src, coords_dst)
        moduli = coords_dst.moduli(p["degree"])
        col = [row[p["generator"]] for row in matrix]
        nonzero = any(v % m if m else v for v, m in zip(col, moduli))
        report.computed = {"matrix": matrix}
        report.status = "pass" if nonzero else "fail"
        return
    raise ValueError(f"unknown map case {which}")


def _coords(cache, key, sset_fn):
    from .homology import HomologyCoordinates
    chains = _chains(cache, key, sset_fn)
    return HomologyCoordinates(chains)


def _run_agreement_case(case, cache, report):
    p = case.param_dict
    kind = p["kind"]
    if kind == "sub2_equals_sp2":
        sub = _sub(cache, p["space"], 2)
        sp = _sp(cache, p["space"], 2)
        same = sub.space.same_cells(sp.space)
        report.computed = {"cell_isomorphic": same}
        report.cells = sub.space.total_cells()
        report.status = "pass" if same else "fail"
        return
    if kind == "three_model":
        name = p["space"]
        spec = _space(cache, name)
        top = 2 * spec.dimension
        quotient_h = _homology(cache, ("based", name), lambda: _based(cache, name).space)
        cyl = cache.get(("cylinder", name),
                        lambda: cons.cylinder_chain_model(spec))
        cylinder_h = homology(cyl)
        model = cache.get(("coproduct", name),
                          lambda: cons.sub3_homology_via_coproduct(spec))
        rows = {
            "quotient": [quotient_h.group(k) for k in range(top + 1)],
            "cylinder": [cylinder_h.group(k) for k in range(top + 1)],
            "coproduct": [model.groups[k] for k in range(top + 1)],
        }
        report.computed = {k: _groups_to_list(v) for k, v in rows.items()}
        values = list(report.computed.values())
        agree = values[0] == values[1] == values[2]
        ok = agree
        if case.expected is not None:
            ok = agree and values[0] == [[b, list(t)] for b, t in case.expected]
        report.status = "pass" if ok else "fail"
        return
    if kind == "sp2_torus_two_models":
        quotient_h = _homology(cache, ("sp", "torus", 2),
                               lambda: _sp(cache, "torus", 2).space)
        chains = cache.get(("surface", "torus", 2),
                           lambda: surf.sp_chain_complex(surf.builtin_presentation("torus"), 2))
        surface_h = homology(chains)
        a = _groups_to_list([quotient_h.group(k) for k in range(5)])
        b = _groups_to_list([surface_h.group(k) for k in range(5)])
        want = [[bb, list(tt)] for bb, tt in case.expected]
        report.computed = {"quotient": a, "surface": b}
        report.status = "pass" if a == b == want else "fail"
        return
    if kind == "relative":
        name, n = p["space"], p["n"]
        spec = _space(cache, name)
        sp = _sp(cache, name, n)
        fat, incl = sub_object(sp.space,
                               lambda level, payload: len(set(payload)) < n)
        from .simplicial import collapse
        sp_rel, _ = collapse(sp.space, incl)
        red = cache.get(("reduced_subc", name, n),
                        lambda: cons.reduced(spec, n, "sub"))
        h1 = homology(normalized_chains(sp_rel, with_labels=False))
        h2 = homology(normalized_chains(red.space, with_labels=False))
        a, b = _groups_to_list(h1.groups), _groups_to_list(h2.groups)
        report.computed = {"sp_over_fat": a, "sub_over_prev": b}
        report.status = "pass" if a == b else "fail"
        return
    if kind == "triangulation":
        h3 = _homology(cache, ("sub", "circle3", 3), lambda: _sub(cache, "circle3", 3).space)
        h4 = _homology(cache, ("sub", "circle4", 3), lambda: _sub(cache, "circle4", 3).space)
        a, b = _groups_to_list(h3.groups), _groups_to_list(h4.groups)
        report.computed = {"circle3": a, "circle4": b}
        report.status = "pass" if a == b else "fail"
        return
    if kind == "quotient_composition":
        spec = _space(cache, p["space"])
        n = p["n"]
        sub = _sub(cache, p["space"], n)
        composite = compose_maps(sub.maps["pi"], sub.maps["q"])
        direct, proj = cons.direct_subset_quotient(spec, n)
        same_space = direct.same_cells(sub.space)
        same_map = all(np.array_equal(a, b) for a, b in
                       zip(composite.assignment, proj.assignment))
        report.computed = {"same_cells": same_space, "same_map": same_map}
        report.status = "pass" if same_space and same_map else "fail"
        return
    raise ValueError(f"unknown agreement case {kind}")


def _run_property_case(case, cache, report):
    p = case.param_dict
    kind = p["kind"]
    if kind == "snf":
        checks = []
        eye = SparseIntMatrix.identity(3)
        s = smith_normal_form(eye, verify=True)
        checks.append(s.diagonal == (1, 1, 1) and s.verify_unimodular())
        m = SparseIntMatrix.from_dense([[2, 4], [6, 8]])
        s = smith_normal_form(m, verify=True)
        checks.append(s.diagonal == (2, 4) and s.verify_unimodular())
        z = SparseIntMatrix.zeros(3, 4)
        s = smith_normal_form(z, verify=True)
        checks.append(s.diagonal == ())
        rng = np.random.default_rng(12345)
        for _ in range(12):
            rows, cols = rng.integers(1, 7, size=2)
            dense = rng.integers(-9, 10, size=(rows, cols)).tolist()
            m = SparseIntMatrix.from_dense(dense)
            s = smith_normal_form(m, verify=True)
            checks.append(s.verify_unimodular())
            checks.append(all(b % a == 0 for a, b in zip(s.diagonal, s.diagonal[1:])))
        report.computed = {"checks": len(checks), "failed": checks.count(False)}
        report.status = "pass" if all(checks) else "fail"
        return
    if kind == "dimension_bound":
        bad = []
        for name, n in p["instances"]:
            sub = _sub(cache, name, n)
            d = _space(cache, name).dimension
            counts = sub.space.nondeg_counts()
            if any(c for level, c in enumerate(counts) if level > n * d):
                bad.append([name, n])
        report.computed = {"violations": bad}
        report.status = "pass" if not bad else "fail"
        return
    if kind == "uct":
        bad = []
        for builder, name, n in p["instances"]:
            case_key = (builder, name, n) if n else (builder, name)
            if builder == "sp":
                fn = lambda: _sp(cache, name, n).space
            elif builder == "sub":
                fn = lambda: _sub(cache, name, n).space
            elif builder == "based":
                fn = lambda: _based(cache, name).space
            else:
                raise ValueError(builder)
            hz = _homology(cache, case_key, fn)
            h2 = _homology(cache, case_key, fn, mod=2)
            if not universal_coefficients_consistent(hz, h2, 2):
                bad.append([builder, name, n])
        report.computed = {"violations": bad}
        report.status = "pass" if not bad else "fail"
        return
    if kind == "poincare_failure":
        hz = _homology(cache, ("sub", "sphere2", 3),
                       lambda: _sub(cache, "sphere2", 3).space)
        h1_zero = hz.group(1).is_zero
        torsion4 = list(hz.group(4).torsion)
        report.computed = {"H1_zero": h1_zero, "H4_torsion": torsion4}
        report.status = "pass" if (h1_zero and torsion4) else "fail"
        return
    if kind == "euler":
        sp2s2 = _chains(cache, ("sp", "sphere2", 2), lambda: _sp(cache, "sphere2", 2).space)
        sub3s1 = _chains(cache, ("sub", "circle3", 3), lambda: _sub(cache, "circle3", 3).space)
        torus = _chains(cache, ("complex", "torus"), lambda: _complex_sset(cache, "torus"))
        values = {"sp2_s2": euler_characteristic(sp2s2),
                  "sub3_s1": euler_characteristic(sub3s1),
                  "torus": euler_characteristic(torus)}
        betti_sums = {}
        for label, chains in [("sp2_s2", sp2s2), ("sub3_s1", sub3s1), ("torus", torus)]:
            h = homology(chains)
            betti_sums[label] = sum((-1) ** k * g.betti for k, g in enumerate(h.groups))
        ok = (values == {"sp2_s2": 3, "sub3_s1": 0, "torus": 0}
              and betti_sums == values)
        report.computed = {"chain": values, "betti": betti_sums}
        report.status = "pass" if ok else "fail"
        return
    if kind == "top_dim_pi":
        # quotient map SP^n -> Sub_n is an isomorphism on top homology (dim X >= 2)
        from .homology import HomologyCoordinates, chain_map_matrices, \
            induced_matrix_from_chain_map
        sub = _sub(cache, p["space"], p["n"])
        pi = sub.maps["pi"]
        top = p["degree"]
        src = HomologyCoordinates(_chains(cache, ("sp", p["space"], p["n"]),
                                          lambda: pi.source))
        dst = HomologyCoordinates(_chains(cache, ("sub", p["space"], p["n"]),
                                          lambda: pi.target))
        F = chain_map_matrices(pi)[top]
        matrix = induced_matrix_from_chain_map(F, top, src, dst)
        ok = (len(matrix) == 1 and len(matrix[0]) == 1 and abs(matrix[0][0]) == 1
              and dst.moduli(top) == (0,) and src.moduli(top) == (0,))
        report.computed = {"matrix": matrix}
        report.status = "pass" if ok else "fail"
        return
    if kind == "revalidate":
        # simplicial identities and d o d = 0, re-checked explicitly on a
        # representative family (they also run at construction time)
        checked = []
        for builder, name, n in p["instances"]:
            if builder == "sp":
                sset = _sp(cache, name, n).space
            elif builder == "sub":
                sset = _sub(cache, name, n).space
            else:
                sset = _based(cache, name).space
            sset.validate()
            chains = normalized_chains(sset, with_labels=False)
            for k in range(2, chains.top_degree + 1):
                assert chains.boundary(k - 1).matmul(chains.boundary(k)).is_zero()
            checked.append([builder, name, n])
        report.computed = {"revalidated": checked}
        report.status = "pass"
        return
    if kind == "self_test_fail":
        # harness self-test: deliberately wrong torsion must be reported
        hz = _homology(cache, ("complex", "rp2"), lambda: _complex_sset(cache, "rp2"))
        wrong = [[1, []], [0, [4]], [0, []]]
        ok, computed = _compare_homology(hz, wrong)
        report.computed = computed
        report.status = "pass" if not ok else "fail"
        return
    raise ValueError(f"unknown property case {kind}")


_RUNNERS = {
    "homology": _run_homology_case,
    "pi1": _run_pi1_case,
    "map": _run_map_case,
    "agreement": _run_agreement_case,
    "property": _run_property_case,
}


def run_case(case: VerificationCase, cache: _Cache | None = None) -> CaseReport:
    """Execute one case.

    Resource-cap overruns become 'skipped'; any other exception becomes
    'error' with its message as the reason, so the rest of a suite runs on.
    """
    cache = cache or _Cache()
    report = CaseReport(id=case.id, status="fail", tag=case.tag,
                        expected=case.expected, strict=case.inconclusive_fails)
    start = time.perf_counter()
    try:
        if case.builder in _RUNNERS:
            _RUNNERS[case.builder](case, cache, report)
        elif case.builder in ("sp", "sub", "based_sub3", "fat", "reduced_sp",
                              "reduced_sub", "complex", "cylinder", "coproduct",
                              "surface"):
            _run_homology_case(case, cache, report)
        else:
            raise ValueError(f"unknown builder {case.builder}")
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


def catalog() -> list[VerificationCase]:
    Z, Z2, O = (1, ()), (0, (2,)), (0, ())
    cases = [
        # 1. Sub_2(S^1) = SP^2(S^1) is the Moebius band
        VerificationCase("sub2-equals-sp2", "Sub_2 and SP^2 coincide cellwise on the circle",
                         "agreement", (("kind", "sub2_equals_sp2"), ("space", "circle3"))),
        VerificationCase("mobius-sp2-s1", "SP^2 of the circle has the homology of S^1",
                         "sp", (("space", "circle3"), ("n", 2)), "z", _h(Z, Z)),
        # 2. reduced two-fold constructions of the circle
        VerificationCase("bar-sub2-s1-rp2", "Sub_2(S^1)/Sub_1 is a projective plane",
                         "reduced_sub", (("space", "circle3"), ("n", 2)), "z", _h(Z, Z2)),
        VerificationCase("bar-sp2-s1-acyclic", "SP^2(S^1)/SP^1 is acyclic",
                         "reduced_sp", (("space", "circle3"), ("n", 2)), "z", _h(Z)),
        # 3. Bott: Sub_3(S^1) is the 3-sphere
        VerificationCase("bott-sub3-s1", "Sub_3(S^1) has the homology of S^3",
                         "sub", (("space", "circle3"), ("n", 3)), "z", _h(Z, O, O, Z)),
        VerificationCase("bott-sub3-s1-pi1", "pi_1(Sub_3 S^1) trivializes",
                         "pi1", (("space", "circle3"), ("n", 3)),
                         inconclusive_fails=False),
        # 4. Sub_4(S^1) is S^3
        VerificationCase("sub4-s1", "Sub_4(S^1) has the homology of S^3",
                         "sub", (("space", "circle3"), ("n", 4)), "z", _h(Z, O, O, Z)),
        # 5. two-fold constructions on the 2-sphere
        VerificationCase("sp2-s2-cp2", "SP^2(S^2) is the complex projective plane",
                         "sp", (("space", "sphere2"), ("n", 2)), "z", _h(Z, O, Z, O, Z)),
        VerificationCase("bar-sp2-s2-s4", "SP^2(S^2)/SP^1 is a 4-sphere",
                         "reduced_sp", (("space", "sphere2"), ("n", 2)), "z",
                         _h(Z, O, O, O, Z)),
        VerificationCase("bar-sub2-s2", "Sub_2(S^2)/Sub_1 has H_4=Z, H_2=Z/2",
                         "reduced_sub", (("space", "sphere2"), ("n", 2)), "z",
                         _h(Z, O, Z2, O, Z)),
        # 6. Sub_3(S^2)
        VerificationCase("sub3-s2", "Sub_3(S^2): Z in degree 6, Z+Z/2 in degree 4",
                         "sub", (("space", "sphere2"), ("n", 3)), "z",
                         _h(Z, O, O, O, (1, (2,)), O, Z)),
        VerificationCase("sub3-s2-pi1", "pi_1(Sub_3 S^2) trivializes",
                         "pi1", (("space", "sphere2"), ("n", 3)),
                         inconclusive_fails=False),
        # 7. SP^2 of the torus, two independent models
        VerificationCase("sp2-torus-two-models",
                         "quotient and surface models agree on SP^2(torus)",
                         "agreement", (("kind", "sp2_torus_two_models"),),
                         expected=_h(Z, (2, ()), (2, ()), (2, ()), Z)),
        # 8. three models of Sub_3(X, x0)
        VerificationCase("three-model-s1", "three models agree: circle gives a point",
                         "agreement", (("kind", "three_model"), ("space", "circle3")),
                         expected=_h(Z, O, O)),
        VerificationCase("three-model-s2", "three models agree: S^2 gives S^4",
                         "agreement", (("kind", "three_model"), ("space", "sphere2")),
                         expected=_h(Z, O, O, O, Z)),
        VerificationCase("three-model-torus", "three models agree on the torus",
                         "agreement", (("kind", "three_model"), ("space", "torus")),
                         expected=_h(Z, O, Z, (2, ()), Z)),
        # 9. induced maps
        VerificationCase("induced-diag-s2", "diagonal doubles H_2 into SP^2(S^2)",
                         "map", (("map", "diag"), ("space", "sphere2"), ("n", 2),
                                 ("degree", 2), ("abs_matrix", [[2]]))),
        VerificationCase("induced-j2-s2", "basepoint inclusion is iso on H_2",
                         "map", (("map", "j_n"), ("space", "sphere2"), ("n", 2),
                                 ("degree", 2), ("abs_matrix", [[1]]))),
        VerificationCase("induced-jx0-torus",
                         "fundamental class of the torus survives in Sub_3(T,x0)",
                         "map", (("map", "jx0_coproduct"), ("space", "torus"),
                                 ("degree", 2), ("generator", 0))),
        VerificationCase("induced-j-torus-direct",
                         "fundamental class of the torus survives in Sub_3(T)",
                         "map", (("map", "j_direct"), ("space", "torus"), ("n", 3),
                                 ("degree", 2), ("generator", 0)), tag="stretch"),
        # 10. top-dimension instances
        VerificationCase("top-sp2-s3", "SP^2(S^3) has trivial top homology",
                         "sp", (("space", "sphere3"), ("n", 2),
                                ("partial", {6: [0, []]})), "z", None),
        VerificationCase("top-sp2-rp2-z", "SP^2(RP^2): H_4 vanishes over Z",
                         "sp", (("space", "rp2"), ("n", 2),
                                ("partial", {4: [0, []]})), "z", None),
        VerificationCase("top-sp2-rp2-f2", "SP^2(RP^2): H_4 is F_2 mod 2",
                         "sp", (("space", "rp2"), ("n", 2),
                                ("partial", {4: [1, []]})), "f2", None),
        VerificationCase("top-surface-sp3-torus", "surface model: H_6(SP^3 T) = Z",
                         "surface", (("space", "torus"), ("n", 3),
                                     ("partial", {6: [1, []]})), "z", None),
        VerificationCase("top-surface-sp3-torus-f2",
                         "surface model: H_5(SP^3 T; F_2) = F_2^2",
                         "surface", (("space", "torus"), ("n", 3),
                                     ("partial", {5: [2, []]})), "f2", None),
        VerificationCase("top-surface-sp3-genus2-f2",
                         "surface model: H_5(SP^3 genus-2; F_2) = F_2^4",
                         "surface", (("space", "genus2"), ("n", 3),
                                     ("partial", {5: [4, []]})), "f2", None),
        VerificationCase("top-surface-sp2-torus-f2",
                         "surface model: H_3(SP^2 T; F_2) = F_2^2",
                         "surface", (("space", "torus"), ("n", 2),
                                     ("partial", {3: [2, []]})), "f2", None),
        VerificationCase("top-surface-sp2-genus2-f2",
                         "surface model: H_3(SP^2 genus-2; F_2) = F_2^4",
                         "surface", (("space", "genus2"), ("n", 2),
                                     ("partial", {3: [4, []]})), "f2", None),
        VerificationCase("top-dim-pi-iso-s2",
                         "projection SP^3 -> Sub_3 is iso on H_6 for the sphere",
                         "property", (("kind", "top_dim_pi"), ("space", "sphere2"),
                                      ("n", 3), ("degree", 6))),
        # 11. based three-fold subset space of S^3
        VerificationCase("sub3-s3-based", "Sub_3(S^3, x0) is a suspended RP^2",
                         "cylinder", (("space", "sphere3"),), "z",
                         _h(Z, O, O, O, O, Z2, O)),
        # 12. property suites
        VerificationCase("snf-certificates", "Smith form certificates and divisibility",
                         "property", (("kind", "snf"),)),
        VerificationCase("identities-and-boundaries",
                         "simplicial identities and d o d = 0 re-checked",
                         "property", (("kind", "revalidate"),
                                      ("instances", (("sp", "circle3", 2),
                                                     ("sub", "circle3", 3),
                                                     ("sp", "sphere2", 2),
                                                     ("based", "torus", None))))),
        VerificationCase("dimension-bound", "no nondegenerate classes above n*dim(X)",
                         "property", (("kind", "dimension_bound"),
                                      ("instances", (("circle3", 3), ("circle3", 4),
                                                     ("sphere2", 2), ("sphere2", 3))))),
        VerificationCase("universal-coefficients", "mod-2 dimensions match Z homology",
                         "property", (("kind", "uct"),
                                      ("instances", (("sp", "sphere2", 2),
                                                     ("sp", "torus", 2),
                                                     ("sp", "rp2", 2),
                                                     ("sub", "circle3", 3),
                                                     ("sub", "sphere2", 3),
                                                     ("based", "torus", None))))),
        VerificationCase("relative-s1-n2", "SP^2/fat = Sub_2/Sub_1 on the circle",
                         "agreement", (("kind", "relative"), ("space", "circle3"), ("n", 2))),
        VerificationCase("relative-s1-n3", "SP^3/fat = Sub_3/Sub_2 on the circle",
                         "agreement", (("kind", "relative"), ("space", "circle3"), ("n", 3))),
        VerificationCase("relative-s2-n2", "SP^2/fat = Sub_2/Sub_1 on the sphere",
                         "agreement", (("kind", "relative"), ("space", "sphere2"), ("n", 2))),
        VerificationCase("triangulation-invariance",
                         "Sub_3 homology agrees for 3- and 4-vertex circles",
                         "agreement", (("kind", "triangulation"),)),
        VerificationCase("quotient-composition",
                         "X^3 -> SP^3 -> Sub_3 equals the one-step quotient",
                         "agreement", (("kind", "quotient_composition"),
                                       ("space", "circle3"), ("n", 3))),
        VerificationCase("poincare-failure-sub3-s2",
                         "torsion in H_4 with trivial H_1 rules out a closed manifold",
                         "property", (("kind", "poincare_failure"),)),
        VerificationCase("euler-characteristics", "chi from ranks equals chi from Betti",
                         "property", (("kind", "euler"),)),
        VerificationCase("pi1-abelianization-sp2-torus",
                         "pi_1(SP^2 T) abelianizes to Z^2",
                         "pi1", (("space", "torus"), ("n", 2),
                                 ("abelianization", (2, [])), ("construction", "sp"))),
        VerificationCase("expected-mismatch-selftest",
                         "harness reports a deliberate torsion mismatch",
                         "property", (("kind", "self_test_fail"),)),
        # stretch cases
        VerificationCase("stretch-sub5-s1", "Sub_5(S^1) has the homology of S^5",
                         "sub", (("space", "circle3"), ("n", 5)), "z",
                         _h(Z, O, O, O, O, Z), tag="stretch"),
        VerificationCase("stretch-sub4-s2", "Sub_4(S^2): H_6 = Z + Z/3",
                         "sub", (("space", "sphere2"), ("n", 4),
                                 ("partial", {6: [1, [3]]})), "z", None, tag="stretch"),
    ]
    return cases


def run_suite(filter: str = "paper", jobs: int = 1) -> Report:
    """Run the catalog: 'paper' (required), 'stretch', 'all', or a glob."""
    cases = catalog()
    if filter == "paper":
        selected = [c for c in cases if c.tag == "required"]
    elif filter == "stretch":
        selected = [c for c in cases if c.tag == "stretch"]
    elif filter == "all":
        selected = cases
    else:
        selected = [c for c in cases if fnmatch(c.id, filter)]
    cache = _Cache()
    report = Report(suite=filter)
    if jobs <= 1:
        for case in selected:
            report.cases.append(run_case(case, cache))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_case, case, cache) for case in selected]
            report.cases = [f.result() for f in futures]
    return report
