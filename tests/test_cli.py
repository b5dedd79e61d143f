import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import face_singular_values
from textrap import (
    Stack4,
    Tensor3,
    TensorSequence,
    frobenius_norm,
    identity_tensor,
    load_factors,
    read_tns3,
    read_tns4,
    tinverse,
    tprod,
    tsvd,
    ttranspose,
    write_tns3,
    write_tns4,
)
from textrap import cli
from textrap.cli import main

RNG = np.random.default_rng(20240807)


def run_cli(argv, capsys):
    """Invoke the CLI in-process and parse the JSON report from stdout."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def gen_problem(tmp_path, capsys, dims="8,3,4", **extra):
    argv = ["gen", "--dims", dims, "--output", tmp_path, "--seed", 5]
    for flag, value in extra.items():
        argv += [f"--{flag}", value]
    code, report, _ = run_cli(argv, capsys)
    assert code == 0
    return report


def linear_sequence_files(tmp_path, n=5, n3=3, width=2, count=8):
    """Write a finitely-terminating fixed-point iteration as a TNS4 file."""
    q = tsvd(Tensor3(RNG.standard_normal((n, n, n3)))).u
    eig = RNG.uniform(0.1, 0.8, size=width)
    diag = np.concatenate([eig, eig[RNG.integers(0, width, size=n - width)]])
    d = np.zeros((n, n, n3))
    d[np.arange(n), np.arange(n), 0] = diag
    m = tprod(tprod(q, Tensor3(d)), ttranspose(q))
    c = Tensor3(RNG.standard_normal((n, 1, n3)))
    fixed = tprod(tinverse(identity_tensor(n, n3) - m), c)
    terms = [Tensor3(RNG.standard_normal((n, 1, n3)))]
    for _ in range(count - 1):
        terms.append(tprod(m, terms[-1]) + c)
    path = tmp_path / "seq.tns4"
    write_tns4(Stack4(terms), path)
    return path, fixed


# ---------------------------------------------------------------------------
# gen


def test_gen_report_and_files(tmp_path, capsys):
    report = gen_problem(tmp_path, capsys)
    assert report["command"] == "gen"
    assert report["dims"] == [8, 3, 4]
    assert report["profile"] == "geometric"
    assert report["rate"] == 1.0
    assert report["noise"] == 0.0
    assert report["rhs_width"] == 1
    assert report["seed"] == 5
    assert report["norms"]["a"] > 0 and report["norms"]["b"] > 0
    for name in ("a", "b", "x_true"):
        t = read_tns3(report["paths"][name])
        assert t.n3 == 4


def test_gen_same_seed_is_bit_reproducible(tmp_path, capsys):
    r1 = gen_problem(tmp_path / "one", capsys)
    r2 = gen_problem(tmp_path / "two", capsys)
    one = (tmp_path / "one" / "A.tns3").read_bytes()
    two = (tmp_path / "two" / "A.tns3").read_bytes()
    assert one == two
    assert r1["norms"] == r2["norms"]
    code, r3, _ = run_cli(
        ["gen", "--dims", "8,3,4", "--output", tmp_path / "three", "--seed", 6], capsys
    )
    assert code == 0
    assert (tmp_path / "three" / "A.tns3").read_bytes() != one


def test_gen_output_matches_the_full_tsvd_construction(tmp_path, capsys, monkeypatch):
    # gen keeps only the u factor of a Gaussian tensor's T-SVD; the files must
    # be those of taking u from the full tsvd
    new = gen_problem(tmp_path / "new", capsys, dims="16,12,5", noise=1e-3, width=2)
    monkeypatch.setattr(
        cli, "_random_orthogonal",
        lambda n, n3, rng: tsvd(Tensor3(rng.standard_normal((n, n, n3)))).u)
    full = gen_problem(tmp_path / "full", capsys, dims="16,12,5", noise=1e-3, width=2)
    assert new["paths"].keys() == full["paths"].keys() == {"a", "b", "x_true"}
    for name, path in new["paths"].items():
        with open(path, "rb") as got, open(full["paths"][name], "rb") as want:
            assert got.read() == want.read(), name


def test_gen_noiseless_rhs_is_exact_image(tmp_path, capsys):
    report = gen_problem(tmp_path, capsys)
    a = read_tns3(report["paths"]["a"])
    b = read_tns3(report["paths"]["b"])
    x = read_tns3(report["paths"]["x_true"])
    assert_allclose(tprod(a, x).data, b.data, atol=1e-12)


def test_gen_noise_level_is_relative(tmp_path, capsys):
    report = gen_problem(tmp_path, capsys, noise="0.01")
    a = read_tns3(report["paths"]["a"])
    b = read_tns3(report["paths"]["b"])
    x = read_tns3(report["paths"]["x_true"])
    exact = tprod(a, x)
    rel = frobenius_norm(b - exact) / frobenius_norm(exact)
    assert rel == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize(
    "profile,rate,expected",
    [
        ("geometric", 0.5, 10.0 ** (-0.5 * np.arange(6))),
        ("algebraic", 2.0, (np.arange(6) + 1.0) ** -2.0),
    ],
)
def test_gen_profile_fixes_face_singular_values(tmp_path, capsys, profile, rate, expected):
    report = gen_problem(tmp_path, capsys, dims="6,6,3", profile=profile, rate=str(rate))
    a = read_tns3(report["paths"]["a"])
    for face_sv in face_singular_values(a.data):
        assert_allclose(face_sv, expected, rtol=1e-10)


def test_gen_width_sets_rhs_columns(tmp_path, capsys):
    report = gen_problem(tmp_path, capsys, width="2")
    assert report["rhs_width"] == 2
    x = read_tns3(report["paths"]["x_true"])
    assert x.dims == (3, 2, 4)


def test_gen_missing_dims_is_usage_error(tmp_path, capsys):
    code, report, err = run_cli(["gen", "--output", tmp_path], capsys)
    assert code == 2
    assert report is None
    assert "usage error" in err


def test_gen_rejects_negative_noise_and_bad_dims(tmp_path, capsys):
    code, _, err = run_cli(
        ["gen", "--dims", "4,2,3", "--noise", "-0.1", "--output", tmp_path], capsys
    )
    assert code == 2 and "noise" in err
    code, _, err = run_cli(["gen", "--dims", "4,2", "--output", tmp_path], capsys)
    assert code == 2 and "dims" in err
    code, _, err = run_cli(["gen", "--dims", "4,0,3", "--output", tmp_path], capsys)
    assert code == 2 and "positive" in err
    for width in ("0", "-2"):
        code, report, err = run_cli(
            ["gen", "--dims", "6,6,2", "--width", width, "--output", tmp_path / "out"], capsys
        )
        assert code == 2 and report is None
        assert err.startswith("usage error:") and "width" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# tsvd


def test_tsvd_full_decomposition_report(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="6,4,3")
    prefix = tmp_path / "fac"
    code, report, _ = run_cli(
        ["tsvd", "--input", gen["paths"]["a"], "--output", prefix, "--seed", 5], capsys
    )
    assert code == 0
    assert report["command"] == "tsvd"
    assert report["dims"] == [6, 4, 3]
    assert report["k"] == 4
    assert report["reconstruction_error"] < 1e-10
    assert report["orthogonality_residual"] < 1e-8
    assert report["f_diagonality_residual"] < 1e-12
    assert "pinv" not in report["paths"]
    factors = load_factors(prefix)
    assert factors.u.dims == (6, 4, 3)
    assert factors.r == 4


def test_tsvd_truncation_writes_pinv(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="6,4,3")
    prefix = tmp_path / "fac"
    code, report, _ = run_cli(
        ["tsvd", "-i", gen["paths"]["a"], "--k", "2", "-o", prefix, "--seed", 5], capsys
    )
    assert code == 0
    assert report["k"] == 2
    assert report["reconstruction_error"] > 1e-6
    pinv = read_tns3(report["paths"]["pinv"])
    assert pinv.dims == (4, 6, 3)
    factors = load_factors(prefix)
    a_k = tprod(tprod(factors.u, factors.s), ttranspose(factors.v))
    assert_allclose(tprod(tprod(a_k, pinv), a_k).data, a_k.data, atol=1e-8)


def test_tsvd_default_prefix_is_input_stem(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="4,3,2")
    code, report, _ = run_cli(["tsvd", "-i", gen["paths"]["a"], "--seed", 5], capsys)
    assert code == 0
    assert report["paths"]["u"].endswith("A_u.tns3")
    load_factors(report["paths"]["u"][: -len("_u.tns3")])


def test_tsvd_usage_and_io_errors(tmp_path, capsys):
    code, _, err = run_cli(["tsvd", "--seed", "1"], capsys)
    assert code == 2 and "usage error" in err
    gen = gen_problem(tmp_path, capsys, dims="4,3,2")
    for bad_k in ("0", "99"):
        code, _, err = run_cli(["tsvd", "-i", gen["paths"]["a"], "--k", bad_k], capsys)
        assert code == 2 and "k" in err
    code, _, err = run_cli(["tsvd", "-i", tmp_path / "missing.tns3"], capsys)
    assert code == 1 and "error" in err


# ---------------------------------------------------------------------------
# solve


def test_solve_end_to_end_with_error_tracking(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="8,8,3", rate="0.8")
    out = tmp_path / "tk.tns3"
    code, report, _ = run_cli(
        [
            "solve",
            "-i", gen["paths"]["a"],
            "--b", gen["paths"]["b"],
            "--xtrue", gen["paths"]["x_true"],
            "--tol", "1e-6",
            "--output", out,
            "--seed", 5,
        ],
        capsys,
    )
    assert code == 0
    assert report["command"] == "solve"
    assert report["stop_reason"] in ("tolerance", "k_max")
    assert report["ks"][0] == 1
    assert len(report["residual_norms"]) == len(report["ks"])
    assert report["residual_norms"][0] is None
    assert "relative_errors" in report
    t_k = read_tns3(out)
    assert t_k.dims == (8, 1, 3)
    assert report["output"] == str(out)


def test_solve_without_xtrue_omits_errors(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="6,6,2", rate="0.8")
    code, report, _ = run_cli(
        ["solve", "-i", gen["paths"]["a"], "--b", gen["paths"]["b"],
         "--output", tmp_path / "tk.tns3", "--seed", 5],
        capsys,
    )
    assert code == 0
    assert "relative_errors" not in report


def test_solve_shift_zero_disables_regularization(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="6,6,2", rate="0.5")
    code, report, _ = run_cli(
        ["solve", "-i", gen["paths"]["a"], "--b", gen["paths"]["b"], "--shift", "0",
         "--output", tmp_path / "tk.tns3", "--seed", 5],
        capsys,
    )
    assert code == 0
    assert report["stop_reason"] in ("tolerance", "k_max")


def test_solve_rejects_multi_column_rhs(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="6,6,2", width="3")
    assert gen["rhs_width"] == 3
    code, report, err = run_cli(
        ["solve", "-i", gen["paths"]["a"], "--b", gen["paths"]["b"],
         "--output", tmp_path / "tk.tns3"],
        capsys,
    )
    assert code == 1 and report is None
    assert "3 columns" in err and "solve each column separately" in err
    assert not (tmp_path / "tk.tns3").exists()


def test_solve_report_shows_phases_and_kept_terms(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="6,6,2", rate="0.5")
    code, report, _ = run_cli(
        ["solve", "-i", gen["paths"]["a"], "--b", gen["paths"]["b"], "--tol", "0",
         "--output", tmp_path / "tk.tns3"],
        capsys,
    )
    assert code == 0
    assert set(report["phase_seconds"]) == {"sequence", "steps"}
    assert all(v >= 0.0 for v in report["phase_seconds"].values())
    assert report["kept_indices"] == [1, 2, 3, 4, 5, 6]


def test_solve_usage_and_io_errors(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="4,4,2")
    code, _, err = run_cli(["solve", "-i", gen["paths"]["a"]], capsys)
    assert code == 2 and "usage error" in err
    code, _, err = run_cli(
        ["solve", "-i", tmp_path / "no.tns3", "--b", gen["paths"]["b"]], capsys
    )
    assert code == 1


# ---------------------------------------------------------------------------
# extrapolate


def test_extrapolate_tmpe_reaches_fixed_point(tmp_path, capsys):
    seq_path, fixed = linear_sequence_files(tmp_path, n=5, n3=3, width=2)
    out = tmp_path / "ext.tns3"
    code, report, _ = run_cli(
        ["extrapolate", "-i", seq_path, "--method", "tmpe", "--k", "2",
         "--output", out, "--seed", 5],
        capsys,
    )
    assert code == 0
    assert report["method"] == "tmpe"
    assert report["terms"] == 8
    assert len(report["gamma"]) == 3
    assert len(report["alpha"]) == 2
    assert len(report["beta"]) == 2
    assert report["residual_norm"] < 1e-8
    assert_allclose(read_tns3(out).data, fixed.data, atol=1e-6)


@pytest.mark.parametrize("method, entry", [("trre", "extrapolate"), ("ttea", "ttea_solve")])
def test_extrapolate_uses_the_sequence_it_read_without_a_copy(tmp_path, capsys, monkeypatch, method, entry):
    import textrap.cli as cli

    seq_path, _ = linear_sequence_files(tmp_path, n=5, n3=3, width=2)
    y_path = tmp_path / "y.tns3"
    write_tns3(Tensor3(RNG.standard_normal((5, 1, 3))), y_path)
    seen, original = {}, getattr(cli, entry)

    def reading(path):
        seen["read"] = read_tns4(path)
        return seen["read"]

    def solving(seq, *args, **kwargs):
        seen["seq"] = seq
        return original(seq, *args, **kwargs)

    monkeypatch.setattr(cli, "read_tns4", reading)
    monkeypatch.setattr(cli, entry, solving)
    code, report, _ = run_cli(
        ["extrapolate", "-i", seq_path, "--method", method, "--k", "2", "--y", y_path,
         "--output", tmp_path / "ext.tns3"],
        capsys,
    )
    assert code == 0 and report["terms"] == 8
    assert isinstance(seen["seq"], TensorSequence)
    assert np.shares_memory(seen["seq"]._data, seen["read"]._data)


def test_extrapolate_tmmpe_test_stack_options(tmp_path, capsys):
    seq_path, fixed = linear_sequence_files(tmp_path, n=5, n3=3, width=2)
    code, _, err = run_cli(
        ["extrapolate", "-i", seq_path, "--method", "tmmpe", "--k", "2",
         "--output", tmp_path / "e.tns3"],
        capsys,
    )
    assert code == 2 and "tmmpe" in err
    code, report, _ = run_cli(
        ["extrapolate", "-i", seq_path, "--method", "tmmpe", "--k", "2",
         "--default-y", "--output", tmp_path / "e.tns3", "--seed", 5],
        capsys,
    )
    assert code == 0
    assert_allclose(read_tns3(tmp_path / "e.tns3").data, fixed.data, atol=1e-6)
    y_path = tmp_path / "y.tns4"
    blocks = [Tensor3(RNG.standard_normal((5, 1, 3))) for _ in range(2)]
    write_tns4(Stack4(blocks), y_path)
    code, report, _ = run_cli(
        ["extrapolate", "-i", seq_path, "--method", "tmmpe", "--k", "2",
         "--y", y_path, "--output", tmp_path / "e2.tns3", "--seed", 5],
        capsys,
    )
    assert code == 0
    assert_allclose(read_tns3(tmp_path / "e2.tns3").data, fixed.data, atol=1e-6)


def test_extrapolate_ttea_reports_beta_only(tmp_path, capsys):
    seq_path, fixed = linear_sequence_files(tmp_path, n=5, n3=3, width=2)
    y_path = tmp_path / "y.tns3"
    write_tns3(Tensor3(RNG.standard_normal((5, 1, 3))), y_path)
    out = tmp_path / "e.tns3"
    code, report, _ = run_cli(
        ["extrapolate", "-i", seq_path, "--method", "ttea", "--k", "2",
         "--y", y_path, "--output", out, "--seed", 5],
        capsys,
    )
    assert code == 0
    assert "beta" in report and "gamma" not in report
    assert_allclose(read_tns3(out).data, fixed.data, atol=1e-5)
    code, _, err = run_cli(
        ["extrapolate", "-i", seq_path, "--method", "ttea", "--k", "2",
         "--output", tmp_path / "e3.tns3"],
        capsys,
    )
    assert code == 2 and "ttea" in err


def test_extrapolate_ttea_refuses_a_negative_start(tmp_path, capsys):
    seq_path, _ = linear_sequence_files(tmp_path)
    y_path = tmp_path / "y.tns3"
    write_tns3(Tensor3(RNG.standard_normal((5, 1, 3))), y_path)
    out = tmp_path / "e.tns3"
    code, report, err = run_cli(
        ["extrapolate", "-i", seq_path, "--method", "ttea", "--n", "-1", "--k", "1",
         "--y", y_path, "--output", out],
        capsys,
    )
    assert code == 2 and report is None
    assert err.startswith("usage error:") and "n >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["tmpe", "ttea"])
@pytest.mark.parametrize("flags", [["--k", 0], ["--n", -1]])
def test_extrapolate_bad_window_is_usage_error_before_reading(tmp_path, capsys, method, flags):
    # the input does not exist, so reading it first would exit 1
    out = tmp_path / "e.tns3"
    code, report, err = run_cli(
        ["extrapolate", "-i", tmp_path / "missing.tns4", "--method", method, *flags,
         "--y", tmp_path / "missing.tns3", "--output", out],
        capsys,
    )
    assert code == 2 and report is None
    assert err.startswith("usage error:") and "n >= 0 and k >= 1" in err
    assert not out.exists()


def test_extrapolate_usage_errors(tmp_path, capsys):
    seq_path, _ = linear_sequence_files(tmp_path)
    code, _, err = run_cli(
        ["extrapolate", "-i", seq_path, "--method", "nope"], capsys
    )
    assert code == 2 and "method" in err
    code, _, err = run_cli(["extrapolate", "--method", "tmpe"], capsys)
    assert code == 2 and "input" in err


def test_extrapolate_non_finite_sequence_is_runtime_error(tmp_path, capsys):
    terms = [Tensor3(RNG.standard_normal((4, 1, 3))) for _ in range(5)]
    data = terms[2].data.copy()
    data[1, 0, 2] = np.nan
    terms[2] = Tensor3(data)
    path = tmp_path / "nan.tns4"
    write_tns4(Stack4(terms), path)
    with np.errstate(invalid="ignore"):
        code, report, err = run_cli(
            ["extrapolate", "-i", path, "--method", "trre", "--k", 2,
             "-o", tmp_path / "out.tns3"], capsys
        )
    assert code == 1 and report is None
    assert err.startswith("error:") and "non-finite" in err


def test_solve_non_finite_rhs_is_runtime_error(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="4,4,3")
    data = read_tns3(gen["paths"]["b"]).data.copy()
    data[1, 0, 1] = np.nan
    write_tns3(Tensor3(data), gen["paths"]["b"])
    code, report, err = run_cli(
        ["solve", "-i", gen["paths"]["a"], "--b", gen["paths"]["b"],
         "--output", tmp_path / "tk.tns3"], capsys
    )
    assert code == 1 and report is None
    assert err.startswith("error:") and "non-finite" in err
    assert not (tmp_path / "tk.tns3").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("shift", "nan"), ("shift", "-1e-3"), ("shift", "-1"), ("shift", "inf"),
     ("tol", "nan"), ("tol", "-1"), ("k-max", "0"), ("k-max", "-2")],
)
def test_solve_parameter_out_of_its_domain_is_usage_error(tmp_path, capsys, flag, value):
    gen = gen_problem(tmp_path, capsys, dims="4,4,3")
    code, report, err = run_cli(
        ["solve", "-i", gen["paths"]["a"], "--b", gen["paths"]["b"], f"--{flag}={value}",
         "--output", tmp_path / "tk.tns3"], capsys
    )
    assert code == 2 and report is None
    name = {"shift": "shift", "tol": "tol_eps", "k-max": "k_max"}[flag]
    assert err.startswith("usage error:") and f"{name} must be" in err
    assert not (tmp_path / "tk.tns3").exists()


def test_k_max_below_one_from_a_config_is_usage_error(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="4,4,3")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"k_max": 0}))
    code, report, err = run_cli(
        ["solve", "-i", gen["paths"]["a"], "--b", gen["paths"]["b"], "--config", config,
         "--output", tmp_path / "tk.tns3"], capsys
    )
    assert code == 2 and report is None
    assert err.startswith("usage error:") and "k_max must be >= 1" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_default_runs_all_suites(capsys):
    code, report, _ = run_cli(["verify", "--seed", 11], capsys)
    assert code == 0
    assert report["passed"] is True
    assert set(report["suites"]) == {
        "tprod", "tsvd", "penrose", "leastsq", "products",
        "extrapolation", "trre_tsvd",
    }
    for result in report["suites"].values():
        assert result["passed"] is True


def test_verify_single_suite_filter(capsys):
    code, report, _ = run_cli(["verify", "--suite", "tprod", "--seed", 11], capsys)
    assert code == 0
    assert list(report["suites"]) == ["tprod"]
    code, _, err = run_cli(["verify", "--suite", "nope"], capsys)
    assert code == 2 and "suite" in err


def test_verify_detects_injected_fault(capsys):
    code, report, _ = run_cli(
        ["verify", "--suite", "tprod", "--mutate", "bcirc-sign", "--seed", 11], capsys
    )
    assert code == 1
    assert report["passed"] is False
    assert report["suites"]["tprod"]["passed"] is False


# ---------------------------------------------------------------------------
# config and report plumbing


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": "5,2,3", "seed": 9, "rate": 0.5}))
    code, report, _ = run_cli(
        ["gen", "--config", cfg, "--output", tmp_path / "out"], capsys
    )
    assert code == 0
    assert report["dims"] == [5, 2, 3]
    assert report["rate"] == 0.5
    assert report["seed"] == 9


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": "5,2,3", "seed": 9}))
    code, report, _ = run_cli(
        ["gen", "--config", cfg, "--dims", "4,2,2", "--seed", 4,
         "--output", tmp_path / "out"],
        capsys,
    )
    assert code == 0
    assert report["dims"] == [4, 2, 2]
    assert report["seed"] == 4


def test_config_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run_cli(["gen", "--config", cfg, "--dims", "4,2,2"], capsys)
    assert code == 2 and "config" in err
    code, _, err = run_cli(
        ["gen", "--config", tmp_path / "absent.json", "--dims", "4,2,2"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "command, settings",
    [
        ("solve", {"tol": "abc"}),
        ("solve", {"shift": None}),
        ("solve", {"tol": [1]}),
        ("solve", {"k_max": 2.5}),
        ("solve", {"k_max": True}),
        ("solve", {"k_max": "2.5"}),
        ("solve", {"xtrue": 3}),
        ("gen", {"rate": "fast"}),
        ("gen", {"dims": [4, 2, 2]}),
        ("extrapolate", {"default_y": "yes"}),
    ],
)
def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, capsys, command, settings):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    code, report, err = run_cli([command, "--config", cfg, "--output", tmp_path / "out"], capsys)
    assert code == 2 and report is None
    (key,) = settings
    assert err.startswith("usage error:") and repr(key) in err
    assert not (tmp_path / "out").exists()


def test_config_key_that_names_no_setting_is_usage_error(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="6,6,2", rate="0.5")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 3, "tol": 0}))
    code, report, err = run_cli(
        ["solve", "--config", cfg, "-i", gen["paths"]["a"], "--b", gen["paths"]["b"],
         "--output", tmp_path / "tk.tns3"], capsys
    )
    assert code == 2 and report is None
    assert err.startswith("usage error:") and "'kmax'" in err
    assert not (tmp_path / "tk.tns3").exists()
    # a key of another subcommand names no setting of this one
    cfg.write_text(json.dumps({"dims": "4,2,2"}))
    code, _, err = run_cli(["verify", "--config", cfg], capsys)
    assert code == 2 and "'dims'" in err


def test_negative_seed_is_usage_error(tmp_path, capsys):
    code, report, err = run_cli(
        ["gen", "--dims", "2,2,2", "--seed", "-1", "--output", tmp_path / "out"], capsys
    )
    assert code == 2 and report is None
    assert err.startswith("usage error:") and "seed" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": "2,2,2", "seed": -1}))
    code, report, err = run_cli(["gen", "--config", cfg, "--output", tmp_path / "out"], capsys)
    assert code == 2 and report is None
    assert err.startswith("usage error:") and "seed" in err
    assert not (tmp_path / "out").exists()


def test_config_values_convert_like_their_flags(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="6,6,2", rate="0.5")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": gen["paths"]["a"], "b": gen["paths"]["b"], "tol": 0,
                               "k_max": 4.0, "shift": "1e-10", "seed": "3"}))
    code, report, _ = run_cli(["solve", "--config", cfg, "--output", tmp_path / "tk.tns3"], capsys)
    assert code == 0
    assert report["tol_eps"] == 0.0 and report["ks"] == [1, 2, 3]
    assert report["seed"] == 3
    cfg.write_text(json.dumps({"k_max": "4"}))
    code, report, _ = run_cli(
        ["solve", "--config", cfg, "-i", gen["paths"]["a"], "--b", gen["paths"]["b"],
         "--tol", "0", "--output", tmp_path / "tk.tns3"], capsys
    )
    assert code == 0 and report["ks"] == [1, 2, 3]


def test_consecutive_runs_share_no_parsed_state(tmp_path, capsys):
    gen = gen_problem(tmp_path, capsys, dims="6,6,2", rate="0.5")
    argv = ["solve", "-i", gen["paths"]["a"], "--b", gen["paths"]["b"],
            "--output", tmp_path / "tk.tns3"]
    code, first, _ = run_cli(argv + ["--tol", "0", "--k-max", "3"], capsys)
    assert code == 0 and first["tol_eps"] == 0.0 and first["final_k"] == 2
    code, second, _ = run_cli(argv, capsys)
    assert code == 0 and second["tol_eps"] == 1e-8 and second["seed"] == 0
    assert second["kept_indices"] == [1, 2, 3, 4, 5, 6]


def test_report_flag_redirects_output(tmp_path, capsys):
    rpt = tmp_path / "report.json"
    code, report, _ = run_cli(
        ["gen", "--dims", "4,2,2", "--output", tmp_path / "out",
         "--report", rpt, "--seed", 5],
        capsys,
    )
    assert code == 0
    assert report is None
    on_disk = json.loads(rpt.read_text())
    assert on_disk["command"] == "gen"
    assert on_disk["seed"] == 5


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("suite, name", [("tprod", "tprod"), ("leastsq", "tls_solve"),
                                         ("penrose", "ttsvd")])
def test_verify_fails_a_suite_whose_error_is_nan(suite, name, monkeypatch, capsys):
    original = getattr(cli, name)

    def poisoned(*args):
        out = original(*args)
        if isinstance(out, tuple):  # ttsvd: (factors, mp_inverse)
            return out[0], Tensor3(np.full(out[1].dims, np.nan))
        return Tensor3(np.full(out.dims, np.nan))

    monkeypatch.setattr(cli, name, poisoned)
    code, report, _ = run_cli(["verify", "--suite", suite], capsys)
    assert code == 1 and report["passed"] is False
    assert np.isnan(report["suites"][suite]["max_error"])
    assert report["suites"][suite]["passed"] is False


def test_python_m_textrap_runs_the_command_line():
    # the directory that holds the package under test, ahead of any other
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    runs = [subprocess.run([sys.executable, "-m", "textrap", "verify", "--suite", suite],
                           capture_output=True, text=True, env=env, timeout=120)
            for suite in ("tprod", "no-such-suite")]
    assert [proc.returncode for proc in runs] == [0, 2], runs[1].stderr
    assert json.loads(runs[0].stdout)["passed"] is True
