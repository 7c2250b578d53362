"""finsub's benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload build-bound --seed 0 --seconds 60 --trace 0

The run imports finsub from ``src/`` next to this directory, builds the
seeded, relabelled input complexes, then answers every query of the
workload in whole passes until the next pass would end past ``--seconds``
(at least one pass).  Answers are checked against independent facts after
the timed region.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of traced
passes with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"      # result and trace files, ignored by git
WORKLOAD_NAMES = ("build-bound", "smith-bound", "maps-mod-p-pi1")

# setup_s is the median of this many set-ups: this process plus fresh
# interpreters that only import finsub and build the inputs.
SETUP_SAMPLES = 7


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup(workload: str, seed: int):
    """Import finsub from this checkout and build the relabelled inputs."""
    start = time.perf_counter()
    if not (SRC / "finsub" / "__init__.py").is_file():
        raise SystemExit(f"error: no finsub package under {SRC}")
    sys.path.insert(0, str(SRC))
    import finsub
    if Path(finsub.__file__).resolve().parent != SRC / "finsub":
        raise SystemExit(f"error: imported finsub from {finsub.__file__}, not {SRC}")
    import workloads
    inputs = workloads.build_inputs(workload, seed)
    return workloads, inputs, time.perf_counter() - start


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    labelling: dict[str, str]
    answers: list
    seconds: list[float]        # per query
    total: float                # the whole pass
    rss_mb: float               # ru_maxrss at the end of the pass
    spans: list | None


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_pass(queries, inputs, tracer):
    """Answer every query once; returns (answers, seconds per query, failed)."""
    answers, seconds, failed = [], [], 0
    for q in queries:
        index = tracer.open(f"query.{q.name}") if tracer else None
        start = time.perf_counter()
        try:
            answers.append(q.run(inputs[q.input]))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            answers.append(None)
            failed += 1
        seconds.append(time.perf_counter() - start)
        if tracer:
            tracer.close(index)
    return answers, seconds, failed


def main(argv=None) -> int:
    args = _parse(argv)
    workloads, inputs, setup_here = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_here))
        return 0
    setups = [setup_here] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    print("setup " + " ".join(f"{s:.3f}" for s in setups), file=sys.stderr)

    queries = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    passes: list[Pass] = []
    failed = 0
    start = time.perf_counter()
    while True:
        labelling = inputs[len(passes) % len(inputs)]
        pass_start = time.perf_counter()
        answers, seconds, pass_failed = _run_pass(queries, labelling, tracer)
        total = time.perf_counter() - pass_start
        failed += pass_failed
        passes.append(Pass(labelling, answers, seconds, total, _rss_mb(),
                           tracer.reset() if tracer else None))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    if tracer:
        tracer.uninstall()

    oracles = workloads.oracles(args.workload)
    errors = []
    for p in passes:
        for q, answer in zip(queries, p.answers):
            if answer is not None:
                errors += [f"{q.name}: {e}"
                           for e in q.check(answer, p.labelling[q.input], oracles)]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    for i, p in enumerate(passes):
        detail = " ".join(f"{q.name}={s:.3f}" for q, s in zip(queries, p.seconds))
        print(f"pass {i}: {p.total:.3f}s rss={p.rss_mb:.1f}MB  {detail}", file=sys.stderr)

    if tracer:
        per_pass = [tracing.layer_metrics(p.spans, p.total) for p in passes]
        metrics = {name: {"value": statistics.fmean(m[name] for m in per_pass),
                          "unit": _layer_unit(name)}
                   for name in per_pass[0]}
    else:
        metrics = {
            "solve_s": {"value": statistics.median(p.total for p in passes), "unit": "s"},
            "max_query_s": {"value": statistics.median(max(p.seconds) for p in passes),
                            "unit": "s"},
            "peak_rss_mb": {"value": passes[0].rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    result = {"correct": not errors, "attempted": len(passes) * len(queries),
              "failed": failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        spans = [[{"name": s.name, "start": s.start - start, "end": s.end - start,
                   "parent": s.parent, "info": s.info} for s in p.spans] for p in passes]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("orbit_yield"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
