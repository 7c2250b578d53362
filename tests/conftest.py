"""Helpers shared by the test modules."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def import_perfbench(name):
    """Import the module ``name`` of ``perfbench/`` read-only.

    No bytecode is written next to the benchmark's modules, ``sys.path`` is
    restored, and the benchmark's modules leave ``sys.modules`` again, so
    that none of them (``checks``, ``reference``, ...) shadows a later
    import of the same bare name.
    """
    write = sys.dont_write_bytecode
    before = set(sys.modules)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write
        for key in set(sys.modules) - before:
            if Path(getattr(sys.modules[key], "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[key]
