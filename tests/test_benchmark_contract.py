"""The benchmark's queries still run against this package.

``perfbench/workloads.py`` calls finsub as the benchmark does, with the
options it passes (``with_filtration``, ``with_labels``), so a signature
change that would break the benchmark fails here.  Every query of each
workload that ``BENCHMARK.json`` gates runs once, on the first labelling of
seed 0, and ``perfbench/checks.py`` must find no fault in its answer.  The
benchmark's modules are imported read-only (``conftest.import_perfbench``),
here and in every other test module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PERFBENCH, import_perfbench

TESTS = Path(__file__).resolve().parent
GATED = [w["name"] for w in
         json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    return import_perfbench("workloads")


# Imports the modules named after argv[1] and fails if the directory argv[1]
# is left on sys.path or any module loaded from it is left in sys.modules.
PROBE = """
import os, sys
bench = sys.argv[1]
for name in sys.argv[2:]:
    __import__(name)
assert bench not in sys.path, "on sys.path"
left = [n for n, m in sys.modules.items()
        if (getattr(m, "__file__", None) or "").startswith(bench + os.sep)]
assert not left, left
"""


def test_test_modules_leave_perfbench_alone(tmp_path):
    """Importing every test module, with bytecode writing on, leaves
    ``perfbench/`` off ``sys.path``, none of its modules in ``sys.modules``
    and no bytecode of them (cached under ``tmp_path``)."""
    names = sorted(p.stem for p in TESTS.glob("test_*.py"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS), str(PERFBENCH.parent / "src")])
    done = subprocess.run([sys.executable, "-c", PROBE, str(PERFBENCH), *names], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.joinpath(*PERFBENCH.parts[1:]).rglob("*.pyc")) == []


@pytest.mark.parametrize("workload", GATED)
def test_gated_workload_answers_pass_their_checks(workloads, workload):
    inputs = workloads.build_inputs(workload, 0)[0]
    oracles = workloads.oracles(workload)
    errors = []
    for q in workloads.WORKLOADS[workload]:
        answer = q.run(inputs[q.input])
        errors += [f"{q.name}: {e}" for e in q.check(answer, inputs[q.input], oracles)]
    assert errors == []
