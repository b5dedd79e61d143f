"""Benchmark of textrap: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload solve_kmax_random --seed 0 --seconds 35 --trace 0

``--seed`` (default 0) alone determines every generated input.  Ops cycle
through the workload's instances and methods until ``--seconds`` have
passed, and for at least one whole cycle.  ``--trace 0`` measures the
end-to-end metrics with no recorder installed.
``--trace 1`` measures the per-layer metrics: the first half of the run is
untraced (for the tracing overhead), the second half runs with the recorders
of ``tracing.py`` and writes its spans to ``bench/out/``.  Every op is checked
outside its timed region.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See LAYERS.md for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS threads the run is pinned to (never more than nproc): one ran the
#: solves faster than two on a 2-core machine
BLAS_THREADS = min(1, os.cpu_count() or 1)
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3

END_TO_END = {
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rel_error": "ratio",
    "trunc_ratio": "ratio",
    "passed_ratio": "ratio",
}

NOTES = (
    "closed loop, one client: each op starts when the previous one returned",
    "no tail percentile is reported: at these op costs no run holds ten ops beyond p90",
    "width>1 right-hand sides are not measured: every multi-column solve tried so far "
    "raises, and their meaning is still open",
)


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    import tracing

    units = {}
    for module, functions in tracing.SPANS.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_pct"] = "%"
    units.update({
        "tproduct_algebra.ttranspose.calls": "count",
        "tsvd.tsvd.face_svds": "count",
        "tensor_core.Tensor3.count": "count",
        "tensor_core.io_bytes": "B",
        "trre_tsvd_solver.iterations": "count",
        "trre_tsvd_solver.terms_used_ratio": "ratio",
        "bench.op.self_pct": "%",
        "trace.op_p50_s": "s",
        "trace.untraced_op_p50_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.covered_s": "s",
    })
    return units


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _openblas_threads(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Phase:
    """Times and verdicts of the ops of one measured phase."""

    def __init__(self):
        self.times = []
        self.verdicts = []
        self.errors = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v is not None and v.ok)


def measure(workload, seconds: float, recorder=None, first_op: int = 0) -> Phase:
    """Run ops until ``seconds`` have passed, and at least one whole cycle
    so that every instance and method is run; time each op alone and check
    its output after the clock stops."""
    phase = Phase()
    started = time.perf_counter()
    i = first_op
    while phase.attempted < workload.cycle or time.perf_counter() - started < seconds:
        scope = recorder.op(i) if recorder is not None else nullcontext()
        error = None
        with scope:
            t0 = time.perf_counter()
            try:
                raw = workload.op(i)
            except Exception as exc:  # an op that raises counts as failed
                error = exc
            t1 = time.perf_counter()
        phase.times.append(t1 - t0)
        verdict = None
        if error is None:
            try:
                verdict = workload.check(i, workload.collect(raw))
            except Exception as exc:  # an unreadable output counts as failed
                error = exc
        if error is not None:
            phase.errors.append("".join(traceback.format_exception_only(error)).strip())
        phase.verdicts.append(verdict)
        i += 1
    return phase


def set_up(workload) -> list:
    """Generate the inputs and warm up the first ``workload.warmup`` ops,
    SETUP_REPEATS times; returns the seconds each repetition took."""
    took = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        for i in range(workload.warmup):
            workload.op(i)
        took.append(time.perf_counter() - t0)
    return took


def accuracy(verdicts) -> tuple[float, float]:
    """Median over instances of the worst scored error, and of that error
    over the instance's best error without extrapolation."""
    worst = {}
    for v in verdicts:
        if v is not None and v.scored and v.rel_error >= worst.get(v.instance, v).rel_error:
            worst[v.instance] = v
    if not worst:
        # every op raised: report the worst representable error, as JSON has no NaN
        return sys.float_info.max, sys.float_info.max
    return (statistics.median(v.rel_error for v in worst.values()),
            statistics.median(v.rel_error / v.plain_error for v in worst.values()))


def end_to_end(phase: Phase, setup_times: list) -> dict:
    rel_error, trunc_ratio = accuracy(phase.verdicts)
    values = {
        "op_p50_s": statistics.median(phase.times),
        "ops_per_s": phase.passed / sum(phase.times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_error": rel_error,
        "trunc_ratio": trunc_ratio,
        "passed_ratio": phase.passed / phase.attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(recorder, spans: dict, untraced: Phase) -> dict:
    """Per-op counts, and self time as a percentage of the traced op time
    (a share, so that a function a workload never calls reads 0 % there;
    the self seconds are in the diagnostics and the span file)."""
    import tracing

    ops = len(recorder.op_durations())
    counts = recorder.counts
    op_time = spans["op"]["self_s"] + spans["op"]["covered_s"]
    values = {}
    for module, functions in tracing.SPANS.items():
        for fn in functions:
            recorded = spans.get(f"{module}.{fn}", {"calls": 0, "self_s": 0.0})
            values[f"{module}.{fn}.calls"] = recorded["calls"]
            values[f"{module}.{fn}.self_pct"] = 100.0 * recorded["self_s"] / op_time
    values["tproduct_algebra.ttranspose.calls"] = counts["tproduct_algebra.ttranspose"] / ops
    values["tsvd.tsvd.face_svds"] = counts["tsvd._face_svd"] / ops
    values["tensor_core.Tensor3.count"] = counts["tensor_core.Tensor3"] / ops
    values["tensor_core.io_bytes"] = counts["tensor_core.io_bytes"] / ops
    values["trre_tsvd_solver.iterations"] = counts["trre_tsvd_solver.iterations"] / ops
    built = counts["trre_tsvd_solver.built_terms"]
    values["trre_tsvd_solver.terms_used_ratio"] = (
        counts["trre_tsvd_solver.used_terms"] / built if built else 0.0
    )
    values["bench.op.self_pct"] = 100.0 * spans["op"]["self_s"] / op_time
    traced_p50 = statistics.median(recorder.op_durations())
    untraced_p50 = statistics.median(untraced.times)
    values["trace.op_p50_s"] = traced_p50
    values["trace.untraced_op_p50_s"] = untraced_p50
    values["trace.overhead_ratio"] = traced_p50 / untraced_p50
    values["trace.covered_s"] = spans["op"]["covered_p50_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, sizes=None):
    """One benchmark run; returns (result, diagnostics)."""
    import workloads

    cls = workloads.WORKLOADS[name]
    workload = cls(seed, workdir, **(sizes or {}))
    setup_times = set_up(workload)
    workload.prepare_check()
    diagnostics = {"setup_times_s": setup_times}
    if trace:
        import tracing

        untraced = measure(workload, seconds / 2)
        recorder = tracing.Recorder()
        with tracing.installed(recorder):
            traced = measure(workload, seconds / 2, recorder, first_op=untraced.attempted)
        phases = [untraced, traced]
        spans = recorder.summary(traced.attempted)
        metrics = per_layer(recorder, spans, untraced)
        diagnostics["self_s_per_op"] = {n: v["self_s"] for n, v in spans.items()}
        diagnostics["recorder"] = recorder
    else:
        phases = [measure(workload, seconds)]
        metrics = end_to_end(phases[0], setup_times)
    attempted = sum(p.attempted for p in phases)
    passed = sum(p.passed for p in phases)
    deviations = [v.deviation for p in phases for v in p.verdicts if v is not None]
    diagnostics.update({
        "ops": attempted,
        "failed_ratio": (attempted - passed) / attempted,
        "max_check_deviation": max(deviations, default=None),
        "max_unscored_rel_error": max(
            (v.rel_error for p in phases for v in p.verdicts if v is not None and not v.scored),
            default=None),
        "check_rtol": workloads.CHECK_RTOL,
        "reference_fallbacks": getattr(workload, "reference_fallbacks", 0),
        "errors": [e for p in phases for e in p.errors][:5],
    })
    result = {
        "correct": passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": metrics,
    }
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve_kmax_random", "solve_tol_smooth", "extrapolate_sweep"))
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    missing = [p for p in (ROOT / "src" / "textrap" / "__init__.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out = HERE / "out"
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, diag = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts()
    print(f"machine: {json.dumps(facts)}")
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}  ops: {diag['ops']}")
    for note in NOTES:
        print(f"note: {note}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    recorder = diag.pop("recorder", None)
    print(f"diagnostics: {json.dumps(diag)}")
    if recorder is not None:
        path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(path, {"workload": args.workload, "seed": args.seed, "machine": facts,
                              "counts": dict(recorder.counts)})
        print(f"spans: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
