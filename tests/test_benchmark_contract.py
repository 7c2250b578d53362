"""The benchmark's queries still run against this package.

``perfbench/workloads.py`` calls finsub as the benchmark does, with the
options it passes (``with_filtration``, ``with_labels``), so a signature
change that would break the benchmark fails here.  Every query of each
workload that ``BENCHMARK.json`` gates runs once, on the first labelling of
seed 0, and ``perfbench/checks.py`` must find no fault in its answer.  The
benchmark's modules are imported read-only: no bytecode is written next to
them.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
GATED = [w["name"] for w in
         json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = write


@pytest.mark.parametrize("workload", GATED)
def test_gated_workload_answers_pass_their_checks(workloads, workload):
    inputs = workloads.build_inputs(workload, 0)[0]
    oracles = workloads.oracles(workload)
    errors = []
    for q in workloads.WORKLOADS[workload]:
        answer = q.run(inputs[q.input])
        errors += [f"{q.name}: {e}" for e in q.check(answer, inputs[q.input], oracles)]
    assert errors == []
