"""Eigensolver counting and per-layer span tracing of edmshrink.

Both work by patching: a wrapper replaces a function in every edmshrink
module namespace that binds it, because modules import names directly
(``shrinkage.project_edm_cone``, ``simulate.distance_shrinkage``,
``cli.truncate_rank``). ``numpy.linalg.eigh`` and ``eigvalsh`` are
patched on ``numpy.linalg``, which is where edmshrink looks them up.
Each ``install`` returns a :class:`contextlib.ExitStack` of
``unittest.mock.patch.object`` patches; its ``close`` restores the
originals.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from unittest import mock

import numpy as np

# The public functions of each layer (module of src/edmshrink) that are
# traced, as "<layer>.<function>" spans.
LAYERS = {
    "cli": ("main",),
    "simulate": ("run_experiment", "report_json"),
    "fileio": ("load_dissimilarity", "save_square_matrix", "save_embedding"),
    "shrinkage": ("distance_shrinkage", "classical_mds", "truncate_rank"),
    "projection": ("project_edm_cone", "project_c1"),
    "core": ("certify_edm", "center_gram"),
    "noise": ("add_noise",),
}
EIGENSOLVERS = ("eigh", "eigvalsh")

# Bytes handled by a call, recorded on its span: file sizes for I/O,
# text length for the report.
_SIZES = {
    "fileio.load_dissimilarity": lambda args, result: os.path.getsize(args[0]),
    "fileio.save_square_matrix": lambda args, result: os.path.getsize(args[1]),
    "simulate.report_json": lambda args, result: len(result),
}


def _bindings(obj):
    """Every (module, attribute) of the edmshrink package bound to ``obj``."""
    for name, mod in list(sys.modules.items()):
        if name == "edmshrink" or name.startswith("edmshrink."):
            for attr, value in list(vars(mod).items()):
                if value is obj:
                    yield mod, attr


class EigCounter:
    """Counts calls to the eigensolvers and does nothing else."""

    def __init__(self):
        self.calls = 0

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> ExitStack:
        patches = ExitStack()
        for name in EIGENSOLVERS:
            patches.enter_context(mock.patch.object(
                np.linalg, name, self._counted(getattr(np.linalg, name))))
        return patches


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    nbytes: int = 0


class Tracer:
    """Records a span (name, start, end, parent, op, bytes) per traced call.

    Spans are held in memory; ``op`` is set by the caller to tag the spans
    of one invocation with a shared identifier.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def _traced(self, name: str, fn):
        spans, stack, size = self.spans, self._stack, _SIZES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result
        return traced

    def install(self) -> ExitStack:
        patches = ExitStack()
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"edmshrink.{layer}")
            for name in names:
                original = getattr(mod, name)
                traced = self._traced(f"{layer}.{name}", original)
                for owner, attr in list(_bindings(original)):
                    patches.enter_context(mock.patch.object(owner, attr, traced))
        for name in EIGENSOLVERS:
            patches.enter_context(mock.patch.object(
                np.linalg, name,
                self._traced(f"linalg.{name}", getattr(np.linalg, name))))
        return patches

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, total time, self time and bytes per span name.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on the one thread that runs.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, LayerTotals] = {}
        for i, (name, start, end, _, _, nbytes) in enumerate(self.spans):
            t = out.setdefault(name, LayerTotals())
            t.calls += 1
            t.seconds += end - start
            t.self_seconds += end - start - child[i]
            t.nbytes += nbytes
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, one per span, in call order."""
        keys = ("name", "start", "end", "parent", "op", "bytes")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
