"""Tests of the benchmark itself, at tiny sizes: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import textrap  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "solve_kmax_random": {"dims": (8, 8, 2), "instances": 2},
    "solve_tol_smooth": {"dims": (16, 16, 4), "instances": 2},
    "extrapolate_sweep": {"dims": (12, 2, 4), "width": 3, "instances": 2},
}


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_workloads_and_metrics_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    result, diag = run.run(name, 0, 0.0, trace, tmp_path, TINY[name])
    assert result["correct"], diag["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in values)
    if not trace:
        assert result["metrics"]["passed_ratio"]["value"] == 1.0
        assert diag["failed_ratio"] == 0.0


def test_trace_records_the_layers_each_workload_uses(tmp_path):
    metrics = {
        name: run.run(name, 0, 0.0, True, tmp_path, TINY[name])[0]["metrics"]
        for name in TINY
    }
    calls = {name: {k: v["value"] for k, v in m.items()} for name, m in metrics.items()}
    assert calls["solve_kmax_random"]["cli.main.calls"] == 1
    assert calls["solve_kmax_random"]["tensor_core.read_tns3.calls"] == 3
    assert calls["solve_kmax_random"]["tensor_core.io_bytes"] > 0
    assert calls["solve_tol_smooth"]["cli.main.calls"] == 0
    assert calls["solve_tol_smooth"]["tsvd.tsvd.calls"] == 1
    assert calls["extrapolate_sweep"]["extrapolation.solve_beta_system.calls"] > 0
    assert calls["extrapolate_sweep"]["trre_tsvd_solver.solve.calls"] == 0
    for values in calls.values():
        assert values["tproduct_algebra.tprod.calls"] > 0
        assert values["tensor_core.Tensor3.count"] > 0


@pytest.mark.parametrize("name", list(TINY))
def test_corrupted_output_is_counted_as_failed(name, tmp_path, monkeypatch):
    cls = workloads.WORKLOADS[name]
    collect = cls.collect

    def corrupted(self, raw):
        out = collect(self, raw)
        return workloads.Output(out.t_k * (1.0 + 1e-4), out.k)

    monkeypatch.setattr(cls, "collect", corrupted)
    result, diag = run.run(name, 0, 0.0, False, tmp_path, TINY[name])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["passed_ratio"]["value"] == 0.0
    assert diag["failed_ratio"] == 1.0


@pytest.mark.parametrize("name", list(TINY))
def test_seed_alone_determines_the_inputs(name, tmp_path):
    def outputs(seed, where):
        w = workloads.WORKLOADS[name](seed, tmp_path / where, **TINY[name])
        w.setup()
        return np.concatenate([w.collect(w.op(i)).t_k.ravel() for i in range(w.cycle)])

    first = outputs(0, "a")
    assert np.array_equal(first, outputs(0, "b"))
    assert not np.allclose(first, outputs(1, "c"))


def test_dense_rre_reference_matches_the_generic_engine():
    rng = np.random.default_rng(5)
    a = textrap.Tensor3(rng.standard_normal((6, 6, 3)))
    b = textrap.Tensor3(rng.standard_normal((6, 1, 3)))
    sums = textrap.build_sequence(a, b).partial_sums
    k = 3
    engine = textrap.extrapolate(textrap.TensorSequence(sums[: k + 2]), 0, k, "trre").t_k.data
    dense = reference.rre_extrapolant([t.data for t in sums], k)
    assert np.linalg.norm(dense - engine) <= 1e-9 * np.linalg.norm(engine)


def test_refuses_to_run_without_the_sources(tmp_path):
    copy = tmp_path / "bench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "solve_tol_smooth",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
