"""In-memory span recorder and LAPACK SVD-family counters.

Spans are recorded by the benchmark around its own calls into extensio,
so every layer is measured from outside the library.  One root span per
case ("case") parents the library-call spans of that case; a library
span's self time is its duration minus the time its children cover.

While a recorder is installed, ``numpy.linalg.svd``, ``lstsq``, ``pinv``,
``matrix_rank`` and ``norm`` are replaced by counting wrappers.  The
library looks these attributes up on every call, so the wrappers see
every call made inside a span.  ``norm`` counts only where numpy computes
it with an SVD: 2-D input with ``ord`` 2, -2 or ``'nuc'``.  Each call is
charged to the innermost open span, with a computed work figure of
m*n*min(m, n) per matrix (times the batch count for stacked input).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

import numpy as np

COUNTED = ("svd", "lstsq", "pinv", "matrix_rank", "norm")
SVD_NORM_ORDS = (2, -2, "nuc")

CASE = "case"


def svd_work(a) -> int:
    """Computed m*n*min(m, n) for one SVD-family call on ``a``."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch * m * n * min(m, n)


class Recorder:
    """Spans kept as parallel lists until ``write`` at the end of a run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.cases: list[int] = []
        self.svd_calls: list[int] = []
        self.svd_work: list[int] = []
        self._stack: list[int] = []
        self._saved: dict[str, object] = {}
        self.by_function: Counter[str] = Counter()
        self.case_id = -1

    # -- span lifetime -------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.cases.append(self.case_id)
        self.svd_calls.append(0)
        self.svd_work.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """Return ``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__name__ = fn.__name__
        return traced

    # -- numpy.linalg counting ------------------------------------------

    def _charge(self, attr: str, a) -> None:
        if self._stack:
            self.by_function[attr] += 1
            top = self._stack[-1]
            self.svd_calls[top] += 1
            self.svd_work[top] += svd_work(a)

    def _counting(self, attr: str, fn):
        def counted(a, *args, **kwargs):
            self._charge(attr, a)
            return fn(a, *args, **kwargs)

        return counted

    def _counting_norm(self, attr: str, fn):
        def counted(x, ord=None, *args, **kwargs):
            if np.ndim(x) == 2 and ord in SVD_NORM_ORDS:
                self._charge(attr, x)
            return fn(x, ord, *args, **kwargs)

        return counted

    def install(self) -> None:
        for attr in COUNTED:
            original = getattr(np.linalg, attr)
            self._saved[attr] = original
            wrap = self._counting_norm if attr == "norm" else self._counting
            setattr(np.linalg, attr, wrap(attr, original))

    def uninstall(self) -> None:
        for attr, original in self._saved.items():
            setattr(np.linalg, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the duration of direct children, per span."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def summary(self, ops: int, case_scale) -> dict[str, dict[str, float]]:
        """Per span name: median self ms, calls per op, SVD calls per call.

        ``case_scale[c]`` rescales the self times of case ``c`` (see speed.py).
        """
        own = [t * case_scale[c] for t, c in zip(self.self_times(), self.cases)]
        by_name: dict[str, list[int]] = defaultdict(list)
        for idx, name in enumerate(self.names):
            by_name[name].append(idx)
        out = {}
        for name, idxs in by_name.items():
            out[name] = {
                "self_ms": median(own[i] for i in idxs) * 1e3,
                "calls_per_op": len(idxs) / ops,
                "svd_per_call": sum(self.svd_calls[i] for i in idxs) / len(idxs),
            }
        return out

    def totals_per_op(self, ops: int) -> tuple[float, float]:
        return sum(self.svd_calls) / ops, sum(self.svd_work) / ops

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start, end, parent, case, svd."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                row = [
                    name,
                    round(self.starts[i] - t0, 9),
                    round(self.ends[i] - t0, 9),
                    self.parents[i],
                    self.cases[i],
                    self.svd_calls[i],
                ]
                fh.write(json.dumps(row) + "\n")
