"""Span and count recorders for the traced run.

``installed`` wraps public functions of the textrap modules and rebinds every
name that refers to one of them, in every loaded ``textrap`` module, so that
calls between modules and within a module both go through the wrapper.  A
span records (op, name, parent span, start, end); spans are kept in memory
and written once, after the run.  Calls outside an op are not recorded.
No file of the library changes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: module -> functions recorded as spans (calls and self time)
SPANS = {
    "trre_tsvd_solver": (
        "solve", "build_sequence", "trre_tsvd_step", "closed_form_beta",
        "residual_norm", "eta_ratio",
    ),
    "tsvd": ("tsvd",),
    "tproduct_algebra": ("tprod", "tinverse"),
    "stack_products": ("star",),
    "extrapolation": (
        "extrapolate", "solve_beta_system", "_solve_stacked_faces", "ttea_solve",
        "beta_to_gamma", "gamma_to_alpha", "default_tmmpe_y",
    ),
    "tensor_core": ("idft_faces", "read_tns3", "write_tns3"),
    "cli": ("main",),
}

#: module -> functions recorded as call counts only
COUNTS = {
    "tproduct_algebra": ("ttranspose",),
    "tsvd": ("_face_svd",),
}

_TNS3_HEADER = 32


class Recorder:
    """In-memory spans and counters of one traced phase."""

    def __init__(self):
        self.spans = []  # (op, name, parent index or -1, start, end)
        self.counts = Counter()
        self._stack = []
        self._op = -1

    @contextmanager
    def op(self, index: int):
        """Root span of one op; library spans inside it become its children."""
        self._op = index
        slot = len(self.spans)
        self.spans.append(None)
        self._stack.append(slot)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[slot] = (index, "op", -1, start, end)

    def span(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (self._op, name, parent, start, end)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self, ops: int) -> dict:
        """Per-op calls, self seconds and child-covered seconds (mean, and
        median over spans) of every span name, the op root included.

        Self time is a span's duration minus the durations of its children;
        the children of one span never overlap, the run being single-threaded.
        """
        done = [s for s in self.spans if s is not None]
        names = np.array([s[1] for s in done])
        parents = np.array([s[2] for s in done], dtype=np.int64)
        dur = np.array([s[4] - s[3] for s in done])
        child = np.zeros(len(done))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_s = dur - child
        out = {}
        for name in np.unique(names):
            mask = names == name
            out[name] = {
                "calls": int(mask.sum()) / ops,
                "self_s": float(self_s[mask].sum()) / ops,
                "covered_s": float(child[mask].sum()) / ops,
                "covered_p50_s": float(np.median(child[mask])),
            }
        return out

    def op_durations(self) -> list:
        return [s[4] - s[3] for s in self.spans if s is not None and s[1] == "op"]

    def write(self, path, meta: dict) -> None:
        """Write the meta line, then one JSON line per span; ``parent`` is
        another span's ``id``, or -1 for an op root."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                fh.write(
                    f'{{"id": {i}, "op": {s[0]}, "name": "{s[1]}", "parent": {s[2]}, '
                    f'"start": {s[3]!r}, "end": {s[4]!r}}}\n'
                )


def _observe_build(counts, args, kwargs, state):
    # every term up to the limit is computed, including those dropped later
    a = args[0]
    k_max = args[2] if len(args) > 2 else kwargs.get("k_max")
    limit = min(a.n1, a.n2) if k_max is None else min(int(k_max), a.n1, a.n2)
    counts["trre_tsvd_solver.built_terms"] += limit


def _observe_solve(counts, args, kwargs, report):
    counts["trre_tsvd_solver.iterations"] += report.iterations
    counts["trre_tsvd_solver.used_terms"] += report.final_k + 1


def _observe_read(counts, args, kwargs, tensor):
    counts["tensor_core.io_bytes"] += _TNS3_HEADER + 8 * tensor.data.size


def _observe_write(counts, args, kwargs, _):
    counts["tensor_core.io_bytes"] += _TNS3_HEADER + 8 * args[0].data.size


_OBSERVERS = {
    "trre_tsvd_solver.build_sequence": _observe_build,
    "trre_tsvd_solver.solve": _observe_solve,
    "tensor_core.read_tns3": _observe_read,
    "tensor_core.write_tns3": _observe_write,
}


@contextmanager
def installed(recorder: Recorder):
    """Install the recorders for the duration of the block, then restore."""
    modules = [m for n, m in list(sys.modules.items()) if n == "textrap" or n.startswith("textrap.")]
    patched = []

    def rebind(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))

    def targets(table):
        # a function the library no longer has is skipped and reads 0 calls
        for module_name, functions in table.items():
            module = sys.modules.get(f"textrap.{module_name}")
            for fn in functions:
                original = getattr(module, fn, None)
                if original is not None:
                    yield f"{module_name}.{fn}", original

    try:
        for name, original in targets(SPANS):
            rebind(original, recorder.span(name, original, _OBSERVERS.get(name)))
        for name, original in targets(COUNTS):
            rebind(original, recorder.counter(name, original))
        tensor3 = sys.modules["textrap.tensor_core"].Tensor3
        original_init = tensor3.__init__
        patched.append((tensor3, "__init__", original_init))
        tensor3.__init__ = recorder.counter("tensor_core.Tensor3", original_init)
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
