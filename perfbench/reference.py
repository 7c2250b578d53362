"""Reference figures kept out of the workloads until they run in seconds.

    python3 perfbench/reference.py sub3-s2     # Sub_3(S^2), traced, with peak RSS
    python3 perfbench/reference.py verify      # wall time of `finsub verify --suite paper`

Each prints one JSON object.  They take minutes at the seed commit; the
figures measured once are recorded in README.md.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def sub3_s2() -> dict:
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    text = workloads.INPUTS["sphere2"]().serialize()
    start = time.perf_counter()
    index = tracer.open("query.sub3-s2")
    groups = workloads.sub_homology(3)(text)
    tracer.close(index)
    seconds = time.perf_counter() - start
    tracer.uninstall()
    layers = tracing.layer_metrics(tracer.reset(), seconds)
    return {"groups": groups, "seconds": seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": {k: v for k, v in layers.items() if v}}


def verify_suite() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "finsub.cli", "verify", "--suite", "paper"],
                          env=env, capture_output=True, text=True, check=False)
    seconds = time.perf_counter() - start
    return {"returncode": proc.returncode, "seconds": seconds,
            "summary": proc.stdout.strip().splitlines()[-1:]}


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else ""
    runners = {"sub3-s2": sub3_s2, "verify": verify_suite}
    if which not in runners:
        raise SystemExit(f"usage: reference.py {{{','.join(runners)}}}")
    print(json.dumps(runners[which]()))
