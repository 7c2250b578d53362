import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from finsub import constructions as cons
from finsub import verify
from finsub.cli import main
from finsub.verify import (REPORT_SCHEMA, SelectionError, VerificationCase, catalog,
                           run_case, run_suite)


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


@pytest.mark.parametrize("selection", ["nonexistent-*", "papr"])
def test_selection_matching_no_case_is_an_error(selection):
    with pytest.raises(SelectionError, match="no verification case"):
        run_suite(selection)


def test_small_suite_and_json_roundtrip():
    report = run_suite("mobius-*")
    data = json.loads(report.to_json())
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data == report.as_dict()
    assert data["passed"] and [c["id"] for c in data["cases"]] == ["mobius-sp2-s1"]


def test_suite_runs_cases_in_order():
    report = run_suite("relative-s1-*")
    assert {c.status for c in report.cases} == {"pass"}
    assert [c.id for c in report.cases] == ["relative-s1-n2", "relative-s1-n3"]


def test_concurrent_cases_build_a_construction_once(monkeypatch):
    calls = []
    original = cons.symmetric_product

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cons, "symmetric_product", counting)
    report = run_suite("*sp2-torus*")
    assert report.passed and len(report.cases) >= 2
    assert len(calls) == 1


def test_run_case_fills_the_memo_it_is_given():
    cache = {}
    case = next(c for c in catalog() if c.id == "mobius-sp2-s1")
    assert run_case(case, cache).status == "pass"
    assert ("sp", "circle3", 2) in cache


def test_raising_case_is_reported_and_suite_runs_on(monkeypatch):
    fast = [c for c in catalog() if c.id in ("mobius-sp2-s1", "euler-characteristics")]
    broken = VerificationCase("broken-space", "a case whose space does not exist",
                              "homology", "sp", "mystery", 2)
    monkeypatch.setattr(verify, "catalog", lambda: [fast[0], broken, fast[1]])
    report = run_suite("*")
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


def test_cli_homology_inline_json_longer_than_a_file_name(capsys):
    # a path on 60 vertices: 602 characters, past the OS limit on a file name
    inline = json.dumps({"vertices": 60, "simplices": [[i, i + 1] for i in range(59)]})
    assert len(inline) > 255
    assert main(["homology", "--space", inline, "--construction", "space"]) == 0
    assert capsys.readouterr().out.splitlines() == ["H_0 = Z", "H_1 = 0", "H_2 = 0"]


def test_cli_map(capsys):
    code = main(["map", "--name", "diag", "--space", "builtin:sphere2",
                 "--degree", "2", "--emit", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert [[abs(v) for v in row] for row in data["matrix"]] == [[2]]


def test_cli_map_checks_the_degree_before_any_coordinates(capsys, monkeypatch):
    def no_coordinates(*args, **kwargs):
        raise AssertionError("homology coordinates built before the degree check")

    monkeypatch.setattr("finsub.cli.HomologyCoordinates", no_coordinates)
    code = main(["map", "--name", "pi", "--space", "builtin:sphere2", "--n", "3",
                 "--degree", "99"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == "" and "out of the source's range" in out.err


def test_cli_verify_filter(capsys):
    code = main(["verify", "--suite", "mobius-*"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_verify_json_schema(capsys):
    code = main(["verify", "--suite", "euler-*", "--emit", "json"])
    assert code == 0
    jsonschema.validate(json.loads(capsys.readouterr().out), REPORT_SCHEMA)


def test_cli_unknown_space_errors(capsys):
    code = main(["homology", "--space", "builtin:mystery"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("space", ["builtin:rp2", "builtin:circle3"])
@pytest.mark.parametrize("coeff", ["f4", "f1", "f9", "f\u00b2"])
def test_cli_rejects_non_prime_modulus(capsys, space, coeff):
    code = main(["homology", "--space", space, "--construction", "sp",
                 "--n", "2", "--coeff", coeff])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and coeff in out.err


def test_cli_largest_modulus_below_the_bound(capsys):
    code = main(["homology", "--space", "builtin:circle3", "--construction", "space",
                 "--coeff", "f2147483647"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["H_0 = F_2147483647",
                                                        "H_1 = F_2147483647"]


@pytest.mark.parametrize("coeff", ["f2147483659", "f2305843009213693951"])
def test_cli_rejects_modulus_above_the_bound(capsys, coeff):
    # both are prime: trial division up to their square roots would take
    # from milliseconds past 2^31 to minutes at 2^61 - 1
    start = time.perf_counter()
    code = main(["homology", "--space", "builtin:circle3", "--construction", "sp",
                 "--n", "2", "--coeff", coeff])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and "2^31" in out.err


@pytest.mark.parametrize("argv", [
    ["homology", "--space", "builtin:circle3", "--construction", "sub", "--n", "0"],
    ["homology", "--space", "builtin:circle3", "--construction", "fat", "--n", "1"],
    ["map", "--name", "diag", "--space", "builtin:sphere2", "--degree", "9"],
    ["map", "--name", "diag", "--space", "builtin:sphere2", "--degree", "-1"],
    # the coproduct model is integral only
    ["homology", "--space", "builtin:rp2", "--construction", "coproduct", "--coeff", "f2"],
    # a selection that matches no verification case
    ["verify", "--suite", "papr"],
    ["verify", "--suite", "no-such-*"],
    # n below 1, for constructions that would otherwise accept it
    ["homology", "--space", "builtin:circle3", "--construction", "space", "--n", "0"],
    ["homology", "--space", "builtin:circle3", "--construction", "space", "--n", "-5"],
    ["homology", "--space", "builtin:circle3", "--construction", "based_sub3", "--n", "0"],
    ["homology", "--space", "builtin:circle3", "--construction", "cylinder", "--n", "0"],
    ["homology", "--space", "builtin:circle3", "--construction", "coproduct", "--n", "0"],
    ["map", "--name", "alpha", "--space", "builtin:circle3", "--degree", "1", "--n", "-3"],
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


@pytest.mark.parametrize("space", [
    '{"vertices": 3, "simplices": [[0, 1], [1, 2], [0, 2]], "basepoint": "x"}',
    '{"vertices": 3, "simplices": [[0, 1], [1, 2], [0, 2]], "basepoint": null}',
    '{"vertices": 3, "simplices": [[0, 1.7], [1, 2], [0, 2]]}',
    '{"vertices": 3, "simplices": [[0, 1], [1, 2], [0, 2]], "basepoint": 1.9}',
    '{"vertices": true, "simplices": [[0]]}',
    '{"vertices": 3, "simplices": [[0, 1], 2]}',
    '{"vertices": 1, "simplices": [[]]}',
    '{"vertices": 2, "simplices": [[0, 1], []]}',
    "[" * 200_000,
])
def test_cli_malformed_complex_exit_2(capsys, space):
    assert main(["homology", "--space", space, "--construction", "sp", "--n", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and "Traceback" not in out.err


def test_cli_surface_accepts_the_sphere2_name(capsys):
    code = main(["homology", "--space", "builtin:sphere2", "--construction", "surface",
                 "--n", "2", "--emit", "json"])
    assert code == 0
    groups = json.loads(capsys.readouterr().out)["groups"]
    assert [g["betti"] for g in groups] == [1, 0, 1, 0, 1]


def test_cli_surface_reads_an_inline_or_file_presentation(capsys, tmp_path):
    path = tmp_path / "rp2.json"
    path.write_text('{"r": 1, "word": [1, 1]}')
    rp2 = ["H_0 = Z", "H_1 = Z/2", "H_2 = 0", "H_3 = Z/2", "H_4 = 0"]
    for space in ["builtin:rp2", '{"r": 1, "word": [1, 1]}', str(path)]:
        code = main(["homology", "--space", space, "--construction", "surface", "--n", "2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == rp2


def test_cli_unknown_surface_lists_the_known_names(capsys):
    assert main(["homology", "--space", "builtin:sphere3", "--construction", "surface"]) == 2
    err = capsys.readouterr().err
    assert "sphere3" in err and all(name in err for name in ("sphere", "sphere2", "torus"))


def test_cli_unknown_bare_surface_name_lists_the_known_names(capsys):
    assert main(["homology", "--space", "sphere3", "--construction", "surface"]) == 2
    assert "known: sphere, torus" in capsys.readouterr().err


@pytest.mark.parametrize("space", [
    '{"r": 1.9, "word": [1, 1.2]}',
    '{"r": true, "word": [1, 1]}',
    '{"r": "1", "word": [1, 1]}',
    '{"r": 1, "word": [1, "1"]}',
    '{"r": 1, "word": "11"}',
    '{"r": 1}',
    '[1, [1, 1]]',
])
def test_cli_surface_rejects_a_malformed_presentation(capsys, space):
    assert main(["homology", "--space", space, "--construction", "surface", "--n", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and "Traceback" not in out.err


@pytest.mark.parametrize("space, n", [('{"r": 60, "word": []}', 30),
                                      ('{"r": 10000000000, "word": []}', 1),
                                      ("builtin:sphere", 10 ** 12)])
def test_cli_large_surface_model_hits_the_cell_cap(capsys, space, n):
    assert main(["homology", "--space", space, "--construction", "surface",
                 "--n", str(n)]) == 3
    assert "FINSUB_CELL_CAP" in capsys.readouterr().err


def test_python_dash_m_finsub():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "finsub", "cases"], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "bott-sub3-s1" in proc.stdout
