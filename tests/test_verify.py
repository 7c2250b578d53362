import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import jsonschema
import pytest

from finsub import constructions as cons
from finsub import verify
from finsub.cli import main
from finsub.verify import (REPORT_SCHEMA, Report, VerificationCase, _Cache,
                           catalog, run_case, run_suite)


def test_catalog_ids_unique():
    ids = [c.id for c in catalog()]
    assert len(ids) == len(set(ids))
    tags = {c.tag for c in catalog()}
    assert tags <= {"required", "stretch"}


def test_run_single_fast_case():
    case = next(c for c in catalog() if c.id == "mobius-sp2-s1")
    report = run_case(case)
    assert report.status == "pass"
    assert report.cells and report.cells > 0


def test_deliberately_wrong_expectation_fails():
    case = VerificationCase("wrong-torsion", "harness self-test", "homology",
                            "reduced_sub", "circle3", 2, [[1, []], [0, [3]]])
    report = run_case(case)
    assert report.status == "fail"
    assert report.computed[1] == [0, [2]]


def test_cell_cap_marks_skipped(monkeypatch):
    monkeypatch.setenv("FINSUB_CELL_CAP", "100")
    case = next(c for c in catalog() if c.id == "bott-sub3-s1")
    report = run_case(case)
    assert report.status == "skipped"
    assert "cap" in report.reason


def test_skipped_required_fails_suite(monkeypatch):
    monkeypatch.setenv("FINSUB_CELL_CAP", "100")
    report = run_suite("bott-sub3-s1")
    assert not report.passed


def test_empty_filter_is_success():
    report = run_suite("nonexistent-*")
    assert report.cases == []
    assert report.passed


def test_small_suite_and_json_roundtrip():
    report = run_suite("mobius-*")
    text = report.to_json()
    jsonschema.validate(json.loads(text), REPORT_SCHEMA)
    back = Report.from_json(text)
    assert back.passed == report.passed
    assert [c.id for c in back.cases] == [c.id for c in report.cases]


def test_suite_runs_concurrently():
    report = run_suite("relative-s1-*", jobs=2)
    assert {c.status for c in report.cases} == {"pass"}
    assert [c.id for c in report.cases] == ["relative-s1-n2", "relative-s1-n3"]


def test_cache_builds_each_key_once_under_contention():
    cache = _Cache()
    calls = []

    def build():
        calls.append(1)
        time.sleep(0.05)
        return object()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(cache.get, "key", build) for _ in range(32)]
            values = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert len(calls) == 1
    assert all(v is values[0] for v in values)


def test_cache_shares_a_failed_build():
    cache = _Cache()
    calls = []

    def build():
        calls.append(1)
        raise ValueError("boom")

    for _ in range(2):
        with pytest.raises(ValueError, match="boom"):
            cache.get("key", build)
    assert len(calls) == 1


def test_concurrent_cases_build_a_construction_once(monkeypatch):
    calls = []
    original = cons.symmetric_product

    def counting(*args, **kwargs):
        calls.append(args)
        time.sleep(0.2)   # keep the first build in flight while others ask
        return original(*args, **kwargs)

    monkeypatch.setattr(cons, "symmetric_product", counting)
    report = run_suite("*sp2-torus*", jobs=2)
    assert report.passed and len(report.cases) >= 2
    assert len(calls) == 1


def test_raising_case_is_reported_and_suite_runs_on(monkeypatch):
    fast = [c for c in catalog() if c.id in ("mobius-sp2-s1", "euler-characteristics")]
    broken = VerificationCase("broken-space", "a case whose space does not exist",
                              "homology", "sp", "mystery", 2)
    monkeypatch.setattr(verify, "catalog", lambda: [fast[0], broken, fast[1]])
    report = run_suite("*", jobs=2)
    assert [c.id for c in report.cases] == [fast[0].id, "broken-space", fast[1].id]
    by_id = {c.id: c for c in report.cases}
    assert by_id["broken-space"].status == "error"
    assert "mystery" in by_id["broken-space"].reason
    assert by_id[fast[0].id].status == by_id[fast[1].id].status == "pass"
    assert not report.passed
    jsonschema.validate(json.loads(report.to_json()), REPORT_SCHEMA)


def test_self_test_case_passes():
    case = next(c for c in catalog() if c.id == "expected-mismatch-selftest")
    assert run_case(case).status == "pass"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_spaces(capsys):
    assert main(["spaces"]) == 0
    assert "torus" in capsys.readouterr().out


def test_cli_homology_table(capsys):
    code = main(["homology", "--space", "builtin:circle3",
                 "--construction", "sub", "--n", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "H_0 = Z" in out and "H_3 = Z" in out


def test_cli_homology_json(capsys):
    code = main(["homology", "--space", "builtin:torus",
                 "--construction", "surface", "--n", "2", "--emit", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["groups"][4] == {"dim": 4, "betti": 1, "torsion": []}


# `finsub homology --emit json` of every construction: the groups and the
# meta beyond space/construction/coeff, as given before the registry.
CONSTRUCTION_OUTPUTS = [
    ("space", {"cells": 18, "nondegenerate": [3, 3, 0]},
     [[1, []], [1, []], [0, []]]),
    ("sp", {"cells": 150, "nondegenerate": [6, 15, 9, 0]},
     [[1, []], [1, []], [0, []], [0, []]]),
    ("sub", {"cells": 150, "nondegenerate": [6, 15, 9, 0]},
     [[1, []], [1, []], [0, []], [0, []]]),
    ("based_sub3", {"cells": 124, "nondegenerate": [4, 12, 9, 0]},
     [[1, []], [0, []], [0, []], [0, []]]),
    ("fat", {"cells": 30, "nondegenerate": [3, 3, 0, 0]},
     [[1, []], [1, []], [0, []], [0, []]]),
    ("reduced_sp", {"cells": 124, "nondegenerate": [4, 12, 9, 0]},
     [[1, []], [0, []], [0, []], [0, []]]),
    ("reduced_sub", {"cells": 124, "nondegenerate": [4, 12, 9, 0]},
     [[1, []], [0, [2]], [0, []], [0, []]]),
    ("cylinder", {}, [[1, []], [0, []], [0, []], [0, []]]),
    ("coproduct", {}, [[1, []], [0, []], [0, []]]),
    ("surface", {"generators": 8}, [[1, []], [2, []], [2, []], [2, []], [1, []]]),
]


def test_cli_construction_outputs_cover_every_choice():
    assert [c for c, _, _ in CONSTRUCTION_OUTPUTS] == list(cons.CONSTRUCTIONS)


@pytest.mark.parametrize("construction, meta, groups", CONSTRUCTION_OUTPUTS)
def test_cli_homology_every_construction(capsys, construction, meta, groups):
    space = "builtin:torus" if construction == "surface" else "builtin:circle3"
    code = main(["homology", "--space", space, "--construction", construction,
                 "--n", "2", "--emit", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["meta"] == {"space": space, "construction": construction,
                            "coeff": "z", **meta}
    assert [[g["betti"], g["torsion"]] for g in data["groups"]] == groups
    assert [g["dim"] for g in data["groups"]] == list(range(len(groups)))


def test_cli_homology_inline_json_space(capsys):
    inline = '{"vertices":3,"simplices":[[0,1],[0,2],[1,2]]}'
    code = main(["homology", "--space", inline, "--construction", "sp", "--n", "2"])
    assert code == 0
    assert "H_1 = Z" in capsys.readouterr().out


def test_cli_map(capsys):
    code = main(["map", "--name", "diag", "--space", "builtin:sphere2",
                 "--degree", "2", "--emit", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert [[abs(v) for v in row] for row in data["matrix"]] == [[2]]


def test_cli_verify_filter(capsys):
    code = main(["verify", "--filter", "mobius-*"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_verify_rejects_jobs_below_one(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--filter", "mobius-*", "--jobs", jobs])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--jobs" in out.err


def test_cli_verify_json_schema(capsys):
    code = main(["verify", "--filter", "euler-*", "--emit", "json"])
    assert code == 0
    jsonschema.validate(json.loads(capsys.readouterr().out), REPORT_SCHEMA)


def test_cli_unknown_space_errors(capsys):
    code = main(["homology", "--space", "builtin:mystery"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("space", ["builtin:rp2", "builtin:circle3"])
@pytest.mark.parametrize("coeff", ["f4", "f1", "f9"])
def test_cli_rejects_non_prime_modulus(capsys, space, coeff):
    code = main(["homology", "--space", space, "--construction", "sp",
                 "--n", "2", "--coeff", coeff])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and coeff in out.err


@pytest.mark.parametrize("argv", [
    ["homology", "--space", "builtin:circle3", "--construction", "sub", "--n", "0"],
    ["homology", "--space", "builtin:circle3", "--construction", "fat", "--n", "1"],
    ["map", "--name", "diag", "--space", "builtin:sphere2", "--degree", "9"],
    ["map", "--name", "diag", "--space", "builtin:sphere2", "--degree", "-1"],
    # the coproduct model is integral only
    ["homology", "--space", "builtin:rp2", "--construction", "coproduct", "--coeff", "f2"],
])
def test_cli_typed_errors_exit_2(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and "Traceback" not in out.err


def test_cli_malformed_cell_cap_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("FINSUB_CELL_CAP", "abc")
    code = main(["homology", "--space", "builtin:circle3", "--construction", "sp"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and "FINSUB_CELL_CAP" in out.err


def test_cli_mod_p_table_prints_vector_spaces(capsys):
    # H_*(RP^2; F_2) is F_2 in degrees 0, 1 and 2
    code = main(["homology", "--space", "builtin:rp2", "--construction", "space",
                 "--coeff", "f2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["H_0 = F_2", "H_1 = F_2", "H_2 = F_2"]
    assert "Z" not in "".join(lines)


def test_cli_mod_p_json_keeps_group_records(capsys):
    code = main(["homology", "--space", "builtin:rp2", "--construction", "space",
                 "--coeff", "f2", "--emit", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["groups"][1] == {"dim": 1, "betti": 1, "torsion": []}


def test_cli_cases(capsys):
    assert main(["cases"]) == 0
    out = capsys.readouterr().out
    assert "bott-sub3-s1" in out and "[stretch]" in out


def test_reports_are_deterministic():
    a = run_suite("bar-*").as_dict()
    b = run_suite("bar-*").as_dict()
    for case in a["cases"] + b["cases"]:
        case["seconds"] = 0.0
    assert a == b
