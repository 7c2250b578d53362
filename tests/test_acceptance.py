"""Acceptance gate: every headline criterion, one pass/fail line each.

The whole required verification suite runs once per session (shared
constructions are cached inside the run); each criterion below asserts
that its cases passed and prints a summary line.  Stretch computations are
opt-in via FINSUB_STRETCH=1 since they enumerate tens of millions of
cells.

All comparisons are exact integer equality; there are no tolerances.
"""

import json
import os
from pathlib import Path

import pytest

from finsub.verify import run_suite

CRITERIA = {
    1: ("two-fold subset space of the circle is the Moebius band",
        ["sub2-equals-sp2", "mobius-sp2-s1"]),
    2: ("reduced two-fold constructions of the circle",
        ["bar-sub2-s1-rp2", "bar-sp2-s1-acyclic"]),
    3: ("Sub_3(S^1) is the 3-sphere with trivial fundamental group",
        ["bott-sub3-s1", "bott-sub3-s1-pi1"]),
    4: ("Sub_4(S^1) has the homology of S^3",
        ["sub4-s1"]),
    5: ("SP^2(S^2) is CP^2; reduced variants",
        ["sp2-s2-cp2", "bar-sp2-s2-s4", "bar-sub2-s2"]),
    6: ("Sub_3(S^2): Z at degree 6, Z+Z/2 at degree 4, simply connected",
        ["sub3-s2", "sub3-s2-pi1"]),
    7: ("SP^2 of the torus by two independent models",
        ["sp2-torus-two-models"]),
    8: ("three models of Sub_3(X, x0) agree on S^1, S^2 and the torus",
        ["three-model-s1", "three-model-s2", "three-model-torus"]),
    9: ("induced maps: diagonal doubles, basepoint inclusion is iso, "
        "torus fundamental class survives",
        ["induced-diag-s2", "induced-j2-s2", "induced-jx0-torus"]),
    10: ("top-dimension homology of symmetric products",
         ["top-sp2-s3", "top-sp2-rp2-z", "top-sp2-rp2-f2",
          "top-surface-sp3-torus", "top-surface-sp3-torus-f2",
          "top-surface-sp3-genus2-f2", "top-surface-sp2-torus-f2",
          "top-surface-sp2-genus2-f2", "top-dim-pi-iso-s2"]),
    11: ("Sub_3(S^3, x0) is a four-fold suspension of RP^2",
         ["sub3-s3-based"]),
    12: ("property suites: certificates, bounds, coefficients, agreements",
         ["snf-certificates", "identities-and-boundaries", "dimension-bound",
          "universal-coefficients",
          "relative-s1-n2", "relative-s1-n3", "relative-s2-n2",
          "triangulation-invariance", "quotient-composition",
          "poincare-failure-sub3-s2", "euler-characteristics",
          "pi1-abelianization-sp2-torus", "expected-mismatch-selftest",
          "orbit-engine-matches-reference"]),
}


@pytest.fixture(scope="session")
def paper_report():
    return run_suite("paper")


def _check(paper_report, number):
    title, case_ids = CRITERIA[number]
    by_id = {c.id: c for c in paper_report.cases}
    missing = [cid for cid in case_ids if cid not in by_id]
    failed = [cid for cid in case_ids
              if cid in by_id and by_id[cid].status != "pass"]
    ok = not missing and not failed
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} [{verdict}] {title}")
    for cid in case_ids:
        status = by_id[cid].status if cid in by_id else "missing"
        seconds = by_id[cid].seconds if cid in by_id else 0.0
        print(f"    {cid:<34} {status:<8} {seconds:7.2f}s")
    assert ok, f"criterion {number}: missing={missing} failed={failed}"


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(paper_report, number):
    _check(paper_report, number)


def test_all_required_cases_pass(paper_report):
    """No required case outside the criteria map may fail either."""
    bad = [c.id for c in paper_report.cases if c.status != "pass"]
    print(f"ACCEPTANCE -- [{'PASS' if not bad else 'FAIL'}] "
          f"full required suite ({len(paper_report.cases)} cases)")
    assert paper_report.passed and not bad, bad


GOLDEN = Path(__file__).parent / "data" / "verify_paper.json"


def test_required_suite_matches_golden_report(paper_report):
    """Every required case keeps the status, cells and computed value of
    the report on record in tests/data/verify_paper.json."""
    fields = ("id", "status", "tag", "cells", "computed")
    got = json.loads(paper_report.to_json())["cases"]
    want = json.loads(GOLDEN.read_text())["cases"]
    assert [{k: c[k] for k in fields} for c in got] == \
        [{k: c[k] for k in fields} for c in want]


@pytest.mark.skipif(os.environ.get("FINSUB_STRETCH") != "1",
                    reason="stretch cases are opt-in (set FINSUB_STRETCH=1)")
def test_stretch_cases():
    report = run_suite("stretch")
    for c in report.cases:
        print(f"STRETCH {c.id:<30} {c.status:<8} {c.seconds:9.2f}s "
              f"{c.reason or ''}")
    failed = [c.id for c in report.cases if c.status in ("fail", "error")]
    assert not failed, failed
