"""Tests of the benchmark itself: its checks, inputs, runs and tracing.

    python3 -m pytest perfbench/tests -q      # about three minutes

The workload runs take one pass each (``--seconds 1``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
Z, O = (1, ()), (0, ())
WEDGE2 = '{"vertices": 5, "simplices": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [3, 4]]}'


def _torus_text():
    from finsub import builtin_space
    return builtin_space("torus").serialize()


# -- the checks accept the right answer and reject wrong ones ---------------

def test_macdonald_and_uct_reproduce_known_values():
    assert checks.macdonald_betti((1, 2, 1), 2) == (1, 2, 2, 2, 1)
    assert checks.macdonald_betti((1, 0, 1), 2) == (1, 0, 1, 0, 1)      # CP^2
    assert checks.macdonald_betti((1, 1), 2) == (1, 1)                  # Moebius band
    assert checks.uct_dims(((1, ()), (0, (2,))), 2) == (1, 1, 1)         # RP^2
    assert [checks.binomial(-1, k) for k in range(4)] == [1, -1, 1, -1]
    assert checks.complex_euler(WEDGE2) == -1


def test_homology_checks_reject_wrong_answers():
    oracles = {"surface_sp2_torus": ((1, ()), (2, ()), (2, ()), (2, ()), (1, ()))}
    torus = _torus_text()
    sp2t = oracles["surface_sp2_torus"]
    cases = [
        (checks.sub4_circle, (Z, O, O, Z), (Z, O, Z), WEDGE2),
        (checks.sub3_contractible, (Z,), (Z, O, Z), WEDGE2),
        (checks.sub3_graph, (Z, O, Z, (3, ())), (Z, Z, Z, (3, ())), WEDGE2),
        (checks.sp2_torus, sp2t, sp2t[:4] + ((1, (2,)),), torus),
        (checks.based_sub3_torus, checks.SUB3_TORUS_BASED, (Z, O, Z, (2, ()), Z, Z), torus),
        (checks.sp2_sphere3, checks.SP2_SPHERE3, (Z, O, O, Z), torus),
        (checks.sp2_torus_f2, sp2t, sp2t[:3] + ((3, ()), Z), torus),
    ]
    for check, right, wrong, text in cases:
        assert check(right, text, oracles) == [], check.__name__
        assert check(wrong, text, oracles), check.__name__


def test_graph_check_rejects_torsion_and_wrong_euler_characteristic():
    assert checks.sub3_graph((Z, O, (1, (2,)), (3, ())), WEDGE2, {})
    assert checks.sub3_graph((Z, O, Z, (2, ())), WEDGE2, {})


def test_surface_oracle_disagreement_is_reported():
    oracles = {"surface_sp2_torus": (Z, (2, ()), (2, ()), (2, ()), O)}
    right = (Z, (2, ()), (2, ()), (2, ()), Z)
    assert checks.sp2_torus(right, _torus_text(), oracles)


def test_map_and_pi1_checks_reject_wrong_answers():
    good = {"groups": checks.SUB3_TORUS_BASED, "j_image_nonzero": True}
    assert checks.coproduct_torus(good, "", {}) == []
    assert checks.coproduct_torus(dict(good, j_image_nonzero=False), "", {})
    assert checks.coproduct_torus(dict(good, groups=(Z, O, Z, (2, ()))), "", {})
    assert checks.pi1_sp2_torus({"abelianization": (2, ())}, "", {}) == []
    assert checks.pi1_sp2_torus({"abelianization": (2, (2,))}, "", {})
    assert checks.pi1_trivial({"generators_out": 0}, "", {}) == []
    assert checks.pi1_trivial({"generators_out": 1}, "", {})
    assert checks.diag_sphere2(((-2,),), "", {}) == []
    assert checks.diag_sphere2(((1,),), "", {})
    assert checks.jn_sphere2(((-1,),), "", {}) == []
    assert checks.jn_sphere2(((2,),), "", {})


# -- inputs -------------------------------------------------------------------

def test_inputs_depend_on_the_seed_only():
    import workloads
    from finsub import load_complex

    a = workloads.build_inputs("maps-mod-p-pi1", 5)
    assert a == workloads.build_inputs("maps-mod-p-pi1", 5)
    assert a != workloads.build_inputs("maps-mod-p-pi1", 6)
    assert len(a) == workloads.LABELLINGS
    for name, text in a[0].items():
        spec, base = load_complex(text), workloads.INPUTS[name]()
        assert spec.vertex_count == base.vertex_count
        assert len(spec.simplex_set) == len(base.simplex_set)


# -- whole runs ---------------------------------------------------------------

def _run(*args, root=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def test_benchmark_json_names_workloads_of_the_runner():
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(names) >= 2 and set(names) <= set(run.WORKLOAD_NAMES)


# Every workload of the runner, also build-bound, which BENCHMARK.json leaves out.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_passes_its_checks(workload, seed):
    import workloads

    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[workload])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_adds_up():
    proc = _run("--workload", "build-bound", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    self_sum += metrics["trace.unattributed_s"]
    assert self_sum <= metrics["trace.solve_s"]
    assert self_sum > 0.99 * metrics["trace.solve_s"]
    assert metrics["simplicial.quotient.calls"] > 0
    assert 0 < metrics["simplicial.orbit_yield"] < 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "build-bound", "--seed", "0", "--seconds", "1", "--trace", "0",
                root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
