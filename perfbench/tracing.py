"""Per-layer spans recorded from outside the finsub package.

A :class:`Tracer` replaces the public functions of ``simplicial``,
``constructions``, ``homology`` and ``fundamental`` with timing wrappers in
every module namespace where callers look them up (``from .homology import
smith_normal_form`` binds the name in the importing module, so that module
is patched too).  ``TruncatedSimplicialSet.validate`` is wrapped on the
class.  Spans are per call into a layer, never per cell, are kept in
memory and are turned into per-layer metrics with :func:`layer_metrics`.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys
import time
import types
from dataclasses import dataclass, field
from importlib import import_module

LAYERS = ("simplicial", "constructions", "homology", "fundamental")

# Span names folded into one metric bucket; every other span of a layer
# lands in "<layer>.other", except constructions, which is one bucket.
_BUCKETS = {
    "simplicial.from_ordered_complex": "simplicial.from_ordered_complex",
    "simplicial.power": "simplicial.power",
    "simplicial.quotient": "simplicial.quotient",
    "simplicial.validate": "simplicial.validate",
    "homology.invariant_factors": "homology.invariant_factors",
    "homology.normalized_chains": "homology.normalized_chains",
    "homology.rank_mod_p": "homology.rank_mod_p",
    "homology.smith_normal_form": "homology.smith_normal_form",
    "homology.chain_map_matrices": "homology.induced",
    "homology.induced_map": "homology.induced",
    "homology.induced_matrix_from_chain_map": "homology.induced",
    "fundamental.fundamental_presentation": "fundamental.presentation",
    "fundamental.tietze_simplify": "fundamental.tietze",
    "fundamental.abelianization": "fundamental.abelianization",
}

SELF_TIME_BUCKETS = (
    "simplicial.from_ordered_complex", "simplicial.power", "simplicial.quotient",
    "simplicial.validate", "simplicial.other", "constructions",
    "homology.invariant_factors", "homology.normalized_chains",
    "homology.rank_mod_p", "homology.smith_normal_form", "homology.induced",
    "homology.other", "fundamental.presentation", "fundamental.tietze",
    "fundamental.abelianization",
)


def bucket_of(span_name: str) -> str:
    """Metric bucket of a layer span (``query.*`` spans are the benchmark's)."""
    if span_name.startswith("query."):
        return "query"
    if span_name.startswith("constructions."):
        return "constructions"
    if span_name in _BUCKETS:
        return _BUCKETS[span_name]
    return span_name.split(".", 1)[0] + ".other"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)


def _chain_sizes(chains) -> dict:
    return {"homology.chains.generators": sum(chains.ranks),
            "homology.chains.nnz": sum(M.nnz for M in chains.boundaries.values())}


# Sizes read from a call's arguments and result after its span has ended,
# so they cost nothing inside any self time.  Keys are metric names, summed
# over a pass; "cells" of a construction result feeds orbit_yield.
_SIZES = {
    "simplicial.power": lambda args, out: {"simplicial.power.cells": out[0].total_cells()},
    "simplicial.quotient": lambda args, out: {
        "simplicial.quotient.cells_out": out[0].total_cells()},
    "homology.normalized_chains": lambda args, out: _chain_sizes(out),
    "fundamental.tietze_simplify": lambda args, out: {
        "fundamental.tietze.generators_in": args[0].generator_count,
        "fundamental.tietze.generators_out": out.generator_count},
}
SIZE_METRICS = ("simplicial.power.cells", "simplicial.quotient.cells_out",
                "homology.chains.generators", "homology.chains.nnz",
                "fundamental.tietze.generators_in", "fundamental.tietze.generators_out")
CALL_METRICS = ("simplicial.quotient.calls", "homology.invariant_factors.calls",
                "homology.smith_normal_form.calls")


def _construction_cells(args, result) -> dict:
    space = getattr(result, "space", None)
    return {"cells": space.total_cells()} if space is not None else {}


class Tracer:
    """In-memory span recorder that wraps finsub's layer functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def reset(self) -> list[Span]:
        """Hand back the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        sizes = (_construction_cells if name.startswith("constructions.")
                 else _SIZES.get(name))

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if sizes is not None:
                self.spans[index].info = sizes(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installing the wrappers -----------------------------------------

    def install(self) -> None:
        """Wrap every public layer function wherever finsub looks it up."""
        from finsub.simplicial import TruncatedSimplicialSet

        wrappers: dict[int, tuple[object, object]] = {}   # id -> (original, wrapper)
        for layer in LAYERS:
            module = import_module(f"finsub.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))

        for name, module in list(sys.modules.items()):
            if module is None or not (name == "finsub" or name.startswith("finsub.")):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

        validate = TruncatedSimplicialSet.validate
        self._undo.append((TruncatedSimplicialSet, "validate", validate))
        TruncatedSimplicialSet.validate = self._wrap("simplicial.validate", validate)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest strictly, so the children of a
    span cover disjoint parts of its interval.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _final_construction_cells(spans: list[Span]) -> int:
    """Cells of the outermost construction results (one per query).

    Only construction spans whose result has a ``space`` carry "cells".
    """
    total = 0
    for s in spans:
        if "cells" not in s.info:
            continue
        p = s.parent
        while p >= 0 and "cells" not in spans[p].info:
            p = spans[p].parent
        if p < 0:
            total += s.info["cells"]
    return total


def layer_metrics(spans: list[Span], pass_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    The ``*.self_s`` buckets plus ``trace.unattributed_s`` (time inside a
    query that no layer span covers: input parsing and benchmark glue) add
    up to the summed query durations, which ``trace.solve_s`` exceeds only
    by the loop overhead between queries.
    """
    out: dict[str, float] = {f"{b}.self_s": 0.0 for b in SELF_TIME_BUCKETS}
    out["trace.unattributed_s"] = 0.0
    out.update(dict.fromkeys(CALL_METRICS + SIZE_METRICS, 0))
    for s, own in zip(spans, self_times(spans)):
        bucket = bucket_of(s.name)
        if bucket == "query":
            out["trace.unattributed_s"] += own
            continue
        out[f"{bucket}.self_s"] += own
        if f"{bucket}.calls" in out:
            out[f"{bucket}.calls"] += 1
        for key, value in s.info.items():
            if key in out:
                out[key] += value
    enumerated = out["simplicial.power.cells"]
    out["simplicial.orbit_yield"] = (_final_construction_cells(spans) / enumerated
                                     if enumerated else 0.0)
    out["trace.solve_s"] = pass_seconds
    return out
