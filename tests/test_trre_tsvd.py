import importlib
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    closed_form_beta,
    eta_ratio,
    ld_solve_path,
    loop_build_sequence,
    loop_solve_path,
    matrix_rre_on_tsvd,
    residual_norm,
    sequence_thetas,
    spectral_operator,
    trre_tsvd_path,
    trre_tsvd_step,
)
from textrap import (
    DimensionMismatchError,
    FaceSvdError,
    InsufficientSequenceError,
    InvalidParameterError,
    NumericalConsistencyError,
    SingularFaceError,
    Stack4,
    Tensor3,
    TensorSequence,
    TsvdFactors,
    build_sequence,
    extrapolate,
    frobenius_norm,
    identity_tensor,
    is_positive_definite,
    solve,
    star,
    tinverse,
    tprod,
    tsvd,
    ttranspose,
    ttsvd,
)

from textrap import tensor_core, trre_tsvd_solver
from textrap.trre_tsvd_solver import _sequence
from textrap.tsvd import PINV_RCOND, _leading_tsvd

tsvd_module = importlib.import_module("textrap.tsvd")

RNG = np.random.default_rng(20240806)


def rand(n1, n2, n3):
    return Tensor3(RNG.standard_normal((n1, n2, n3)))


def decaying_problem(n, n3, rate=0.3, tail=None, cols=1):
    """Square problem with geometric face-identical singular values and a
    solution whose right-singular components decay like ``tail ** -j``."""
    q1 = tsvd(rand(n, n, n3)).u
    q2 = tsvd(rand(n, n, n3)).u
    svals = 10.0 ** -(rate * np.arange(n))
    sdata = np.zeros((n, n, n3))
    sdata[np.arange(n), np.arange(n), 0] = svals
    a = tprod(tprod(q1, Tensor3(sdata)), ttranspose(q2))
    if tail is None:
        x = rand(n, cols, n3)
    else:
        fac = tsvd(a)
        x = None
        for j in range(n):
            term = float(tail) ** -j * fac.v.lateral_slice(j)
            x = term if x is None else x + term
    return a, x, tprod(a, x)


def pd_theta_chain(count, s, n3):
    """Synthetic positive definite coefficient tensors."""
    out = []
    for _ in range(count):
        g = rand(s + 2, s, n3)
        out.append(tprod(ttranspose(g), g) + identity_tensor(s, n3))
    return out


def bidiagonal_residual(thetas, beta, k):
    """Worst block residual of the coupled two-term recursion the closed
    form must satisfy: row i couples consecutive coefficient tensors, the
    last row pins the final one."""
    worst = 0.0
    for i in range(k - 1):
        row = -tprod(thetas[i], beta[i]) + tprod(thetas[i + 1], beta[i + 1])
        worst = max(worst, frobenius_norm(row))
    last = -tprod(thetas[k - 1], beta[k - 1]) + thetas[k]
    return max(worst, frobenius_norm(last))


# ---------------------------------------------------------------------------
# sequence construction


def test_partial_sums_match_truncated_solutions():
    for cols in (1, 3):
        a = rand(5, 4, 3)
        b = rand(5, cols, 3)
        state = build_sequence(a, b)
        assert state.count == 4
        assert len(state.partial_sums) == 5
        assert frobenius_norm(state.partial_sums[0]) == 0.0
        for k in range(1, 5):
            _, mp = ttsvd(a, k)
            want = tprod(mp, b)
            got = state.partial_sums[k]
            assert frobenius_norm(got - want) / frobenius_norm(want) < 1e-8


def test_identity_operator_recovers_b():
    b = rand(4, 2, 3)
    state = build_sequence(identity_tensor(4, 3), b)
    assert frobenius_norm(state.partial_sums[-1] - b) / frobenius_norm(b) < 1e-10


def test_increment_identity():
    # S_k - S_{k-1} equals the stored lateral-slice increment
    a, b = rand(6, 5, 2), rand(6, 1, 2)
    state = build_sequence(a, b)
    for k in range(1, state.count + 1):
        inc = state.partial_sums[k] - state.partial_sums[k - 1]
        assert frobenius_norm(inc - state.sdeltas[k - 1]) < 1e-12


def test_shapes_and_theta_psd():
    a, b = rand(6, 4, 3), rand(6, 2, 3)
    state = build_sequence(a, b)
    for delta, theta, sdelta in zip(state.deltas, sequence_thetas(state), state.sdeltas):
        assert delta.dims == (1, 2, 3)
        assert theta.dims == (2, 2, 3)
        assert sdelta.dims == (4, 2, 3)
        assert is_positive_definite(theta, semi=True)


def test_zero_singular_tube_dropped():
    # zero out the smallest singular tube, keep the rest
    a = rand(5, 5, 2)
    fac = tsvd(a)
    sdata = fac.s.data.copy()
    sdata[4, 4, :] = 0.0
    trimmed = tprod(tprod(fac.u, Tensor3(sdata)), ttranspose(fac.v))
    state = build_sequence(trimmed, rand(5, 1, 2))
    assert state.count == 4
    assert state.kept_indices == (1, 2, 3, 4)
    # invariants still hold on the surviving terms
    for k in range(1, 5):
        inc = state.partial_sums[k] - state.partial_sums[k - 1]
        assert frobenius_norm(inc - state.sdeltas[k - 1]) < 1e-12


def test_build_sequence_validation():
    a = rand(5, 4, 3)
    with pytest.raises(DimensionMismatchError):
        build_sequence(a, rand(4, 1, 3))
    with pytest.raises(DimensionMismatchError):
        build_sequence(a, rand(5, 1, 2))
    with pytest.raises(DimensionMismatchError):
        build_sequence(a, rand(5, 1, 3), k_max=0)


def test_k_max_limits_terms():
    a, b = rand(6, 6, 2), rand(6, 1, 2)
    state = build_sequence(a, b, k_max=3)
    assert state.count == 3
    assert len(state.partial_sums) == 4


# ---------------------------------------------------------------------------
# closed-form coefficients (the tensor-level reference in oracles.py)


def test_closed_form_beta_substitution():
    thetas = pd_theta_chain(4, 2, 3)
    beta = closed_form_beta(thetas, 3, shift=None)
    assert beta.count == 3
    assert bidiagonal_residual(thetas, beta, 3) < 1e-9
    # the default small shift changes nothing material
    beta_shifted = closed_form_beta(thetas, 3)
    assert bidiagonal_residual(thetas, beta_shifted, 3) < 1e-8


def test_closed_form_beta_equal_thetas():
    theta = pd_theta_chain(1, 2, 2)[0]
    beta = closed_form_beta([theta] * 3, 2, shift=None)
    eye = identity_tensor(2, 2)
    for b in beta:
        assert frobenius_norm(b - eye) < 1e-10


def test_closed_form_beta_k1():
    thetas = pd_theta_chain(2, 3, 2)
    beta = closed_form_beta(thetas, 1, shift=None)
    assert beta.count == 1
    assert frobenius_norm(tprod(thetas[0], beta[0]) - thetas[1]) < 1e-9


def test_closed_form_beta_requires_enough_terms():
    thetas = pd_theta_chain(3, 2, 2)
    with pytest.raises(InsufficientSequenceError):
        closed_form_beta(thetas, 3)


def test_closed_form_beta_singular_without_shift():
    s, n3 = 2, 2
    g = rand(1, s, n3)
    rank_deficient = tprod(ttranspose(g), g)  # rank-1 faces
    thetas = [rank_deficient] + pd_theta_chain(2, s, n3)
    with pytest.raises(SingularFaceError):
        closed_form_beta(thetas, 2, shift=None)
    beta = closed_form_beta(thetas, 2)  # epsilon shift rescues it
    assert beta.count == 2
    assert all(np.all(np.isfinite(b.data)) for b in beta)


# ---------------------------------------------------------------------------
# the extrapolation step: the face-domain solver stopped at width k, against
# the generic engine and the tensor-level reference


def solve_at(a, b, k, shift=None):
    """The solver's extrapolant at width k (its last step when k_max = k+1)."""
    return solve(a, b, tol_eps=0.0, k_max=k + 1, shift=shift).t_k


def test_step_matches_generic_engine():
    # same sequence through independent code paths (single-column b keeps
    # every coefficient tensor an invertible tube)
    a, b = rand(6, 6, 2), rand(6, 1, 2)
    state = build_sequence(a, b)
    for k in (2, 3):
        seq = TensorSequence(state.partial_sums[: k + 2])
        engine = extrapolate(seq, 0, k, "trre")
        scale = frobenius_norm(engine.t_k)
        assert frobenius_norm(solve_at(a, b, k) - engine.t_k) / scale < 1e-7
        _, gamma, _ = trre_tsvd_step(state, k, shift=None)
        for g1, g2 in zip(gamma, engine.gamma):
            assert frobenius_norm(g1 - g2) < 1e-7


def test_step_gamma_sums_to_identity():
    a, b = rand(7, 5, 3), rand(7, 1, 3)
    state = build_sequence(a, b)
    eye = identity_tensor(1, 3)
    for k in (1, 2, 3, 4):
        _, gamma, alpha = trre_tsvd_step(state, k)
        assert gamma.count == k + 1
        assert alpha.count == k
        total = gamma[0]
        for g in gamma[1:]:
            total = total + g
        assert frobenius_norm(total - eye) < 1e-8


def test_step_t_is_alpha_combination():
    a, b = rand(6, 6, 2), rand(6, 1, 2)
    state = build_sequence(a, b)
    _, _, alpha = trre_tsvd_step(state, 3)
    want = star(Stack4(state.sdeltas[:3]), alpha)
    assert frobenius_norm(solve_at(a, b, 3, shift=1e-10) - want) < 1e-10


def test_step_requires_enough_deltas():
    a, b = rand(4, 4, 2), rand(4, 1, 2)
    state = build_sequence(a, b)
    with pytest.raises(InsufficientSequenceError):
        trre_tsvd_step(state, 4)


def test_scalar_case_matches_matrix_oracle():
    n = 7
    a2 = RNG.standard_normal((n, n))
    bv = RNG.standard_normal(n)
    a, b = Tensor3(a2[:, :, None]), Tensor3(bv[:, None, None])
    for k in (2, 3, 4):
        want = matrix_rre_on_tsvd(a2, bv, k)
        assert np.linalg.norm(solve_at(a, b, k).data[:, 0, 0] - want) < 1e-8


# ---------------------------------------------------------------------------
# residual and eta


def test_residual_norm_matches_direct():
    for _ in range(5):
        a, b = rand(6, 6, 2), rand(6, 1, 2)
        state = build_sequence(a, b)
        for k in (2, 3):
            _, gamma, _ = trre_tsvd_step(state, k)
            got = solve(a, b, tol_eps=0.0, k_max=k + 1).residual_norms[-1]
            direct = frobenius_norm(star(Stack4(state.sdeltas[: k + 1]), gamma))
            assert got == pytest.approx(direct, rel=1e-7, abs=1e-12)


def test_residual_norm_equal_theta_analytic():
    # a diagonal operator with b_j = sigma_j * t gives every term the same
    # Theta, the tube t^T * t; the step-k mixing weights are then all
    # 1/(k+1), so the squared residual is |t|^2 / (k+1)
    n, n3 = 5, 3
    sig = 2.0 ** -np.arange(n)
    adata = np.zeros((n, n, n3))
    adata[np.arange(n), np.arange(n), 0] = sig
    t = RNG.standard_normal(n3)
    b = Tensor3((sig[:, None] * t)[:, None, :])
    report = solve(Tensor3(adata), b, tol_eps=0.0, shift=None)
    assert report.ks == [1, 2, 3, 4]
    for k, res in zip(report.ks[1:], report.residual_norms[1:]):
        assert res == pytest.approx(np.linalg.norm(t) / np.sqrt(k + 1), rel=1e-10)
    # the tensor-level reference agrees at k = 1
    theta = sequence_thetas(build_sequence(Tensor3(adata), b))[0]
    beta = closed_form_beta([theta, theta], 1, shift=None)
    eye = identity_tensor(1, n3)
    inv = tinverse(eye + beta[0])
    gamma = Stack4([tprod(beta[0], inv), eye - tprod(beta[0], inv)])
    assert frobenius_norm(gamma[0] - 0.5 * eye) < 1e-10
    got = residual_norm([theta, theta], gamma, 1)
    assert got == pytest.approx(np.linalg.norm(t) / np.sqrt(2), rel=1e-10)


def test_residual_norm_rejects_negative_trace():
    eye = identity_tensor(2, 2)
    thetas = [-1.0 * eye]
    gamma = Stack4([eye, Tensor3(np.zeros((2, 2, 2)))])
    with pytest.raises(NumericalConsistencyError):
        residual_norm(thetas, gamma, 1)


def test_eta_matches_direct_ratio():
    a, b = rand(7, 7, 2), rand(7, 1, 2)
    report = solve(a, b, tol_eps=0.0, k_max=4)
    assert report.ks == [1, 2, 3]
    t2 = solve(a, b, tol_eps=0.0, k_max=3).t_k
    want = frobenius_norm(report.t_k - t2) / frobenius_norm(t2)
    assert report.eta_ratios[-1] == pytest.approx(want, rel=1e-7)


def test_eta_zero_denominator_raises():
    a, b = rand(5, 5, 2), rand(5, 1, 2)
    state = build_sequence(a, b)
    _, _, alpha2 = trre_tsvd_step(state, 2)
    _, _, alpha3 = trre_tsvd_step(state, 3)
    zero = Tensor3(np.zeros((5, 1, 2)))
    with pytest.raises(NumericalConsistencyError):
        eta_ratio(state, zero, rand(5, 1, 2), alpha2, alpha3)


def test_eta_monotone_on_stagnating_sequence():
    # solution components halve at each truncation level, so successive
    # extrapolants change less and less
    a, x, b = decaying_problem(8, 2, rate=0.4, tail=2.0)
    report = solve(a, b, tol_eps=0.0, k_max=7)
    etas = [e for e in report.eta_ratios if e is not None]
    assert len(etas) >= 4
    assert all(e2 < e1 for e1, e2 in zip(etas, etas[1:]))


# ---------------------------------------------------------------------------
# the full solver


def test_solve_identity_decaying_rows():
    n, n3 = 8, 3
    bdata = RNG.standard_normal((n, 1, n3)) * (3.0 ** -np.arange(n))[:, None, None]
    b = Tensor3(bdata)
    report = solve(identity_tensor(n, n3), b, tol_eps=1e-3)
    assert report.stop_reason == "tolerance"
    assert frobenius_norm(report.t_k - b) / frobenius_norm(b) < 1e-2
    res = [r for r in report.residual_norms if r is not None]
    assert res[-1] < 1e-3 or report.eta_ratios[-1] < 1e-3


def test_solve_noise_free_error_decreases_to_floor():
    a, x, b = decaying_problem(14, 2, rate=0.2, tail=10.0)
    report = solve(a, b, tol_eps=0.0, x_true=x)
    errs = report.errors
    assert all(e is not None for e in errs)
    assert all(e2 <= e1 * 1.01 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-9


def test_solve_stop_reasons_and_history():
    a, x, b = decaying_problem(8, 2, rate=0.3, cols=1)
    report = solve(a, b, tol_eps=0.0, k_max=4, x_true=x)
    assert report.stop_reason == "k_max"
    assert report.ks == [1, 2, 3]
    n_rows = len(report.ks)
    for field in (
        report.residual_norms,
        report.eta_ratios,
        report.t_norms,
        report.errors,
    ):
        assert len(field) == n_rows
    assert report.iterations == n_rows
    assert report.final_k == 3
    # k = 1 row carries no residual/eta diagnostics
    assert report.residual_norms[0] is None
    assert report.eta_ratios[0] is None
    d = report.as_dict()
    assert d["stop_reason"] == "k_max"
    assert d["ks"] == [1, 2, 3]
    assert "relative_errors" in d


def test_solve_report_without_x_true():
    a, _, b = decaying_problem(6, 2, rate=0.3)
    report = solve(a, b, tol_eps=0.0, k_max=3)
    assert all(e is None for e in report.errors)
    assert "relative_errors" not in report.as_dict()


def test_solve_rejects_unusable_rhs():
    a = rand(5, 4, 2)
    zero_b = Tensor3(np.zeros((5, 1, 2)))
    with pytest.raises(InsufficientSequenceError):
        solve(a, zero_b)


def test_solve_rejects_multi_column_rhs():
    a = rand(5, 5, 2)
    with pytest.raises(DimensionMismatchError, match="3 columns.*solve each column separately"):
        solve(a, rand(5, 3, 2))


def test_solve_rejects_mismatched_x_true():
    a, b = rand(5, 4, 2), rand(5, 1, 2)
    with pytest.raises(DimensionMismatchError, match="x_true"):
        solve(a, b, x_true=rand(5, 1, 2))


def test_solve_reports_phases_and_kept_indices():
    a = rand(5, 5, 2)
    fac = tsvd(a)
    sdata = fac.s.data.copy()
    sdata[4, 4, :] = 0.0
    trimmed = tprod(tprod(fac.u, Tensor3(sdata)), ttranspose(fac.v))
    b = rand(5, 1, 2)
    report = solve(trimmed, b, tol_eps=0.0)
    assert report.kept_indices == build_sequence(trimmed, b).kept_indices == (1, 2, 3, 4)
    d = report.as_dict()
    assert d["kept_indices"] == [1, 2, 3, 4]
    assert set(d["phase_seconds"]) == {"sequence", "steps"}
    assert all(v >= 0.0 for v in d["phase_seconds"].values())


def zero_face_problem(n=5, n3=4):
    """A well-conditioned operator and a right-hand side constant along
    mode 3, so every delta vanishes on each face but the first: every
    Theta has zero faces, while theta_j stays below 100 on face 0."""
    a = tsvd(rand(n, n, n3)).u
    b = Tensor3(np.repeat(RNG.uniform(-0.5, 0.5, (n, 1, 1)), n3, axis=2))
    return a, b


def test_zero_theta_face_needs_the_shift():
    a, b = zero_face_problem()
    with pytest.raises(SingularFaceError) as info:
        solve(a, b, tol_eps=0.0, shift=None)
    assert info.value.face_index == 1
    report = solve(a, b, tol_eps=0.0)
    assert report.ks == [1, 2, 3, 4]
    assert np.all(np.isfinite(report.t_k.data))
    assert all(np.isfinite(r) for r in report.residual_norms[1:])
    # the tensor-level reference makes the same decisions and values
    state = build_sequence(a, b)
    with pytest.raises(SingularFaceError):
        trre_tsvd_step(state, 2, shift=None)
    # on the zero faces the reference's Theta carries T-product rounding of
    # order eps * max theta, which the shift's 1/1e-10 weight magnifies, so
    # the two agree to 1e-6 there; the face path keeps those faces at zero
    want, _, _ = trre_tsvd_step(state, 4)
    assert frobenius_norm(report.t_k - want) <= 1e-6 * frobenius_norm(want)
    faces = np.fft.fft(report.t_k.data, axis=2)
    assert np.max(np.abs(faces[:, :, 1:])) <= 1e-14 * np.max(np.abs(faces[:, :, 0]))


# ---------------------------------------------------------------------------
# property: the face-domain path equals the tensor-level reference


def _close(got, want, rtol=1e-8):
    scale = np.max(np.abs(want)) if np.size(want) else 0.0
    return np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0) <= rtol * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 8),
    n3=st.sampled_from([1, 2, 3, 4, 7, 8]),
    seed=st.integers(0, 2**32 - 1),
    drop_last_tube=st.booleans(),
    shift=st.sampled_from([1e-10, None]),
)
def test_face_path_matches_tensor_reference(n, n3, seed, drop_last_tube, shift):
    rng = np.random.default_rng(seed)
    a = Tensor3(rng.standard_normal((n, n, n3)))
    if drop_last_tube:
        fac = tsvd(a)
        sdata = fac.s.data.copy()
        sdata[n - 1, n - 1, :] = 0.0
        a = tprod(tprod(fac.u, Tensor3(sdata)), ttranspose(fac.v))
    b = Tensor3(rng.standard_normal((n, 1, n3)))
    x = Tensor3(rng.standard_normal((n, 1, n3)))
    state = build_sequence(a, b)
    assert state.count == n - drop_last_tube
    ref = trre_tsvd_path(state, shift, x)
    report = solve(a, b, tol_eps=0.0, shift=shift, x_true=x)
    assert report.ks == ref["ks"]
    assert report.residual_norms[0] is None and report.eta_ratios[0] is None
    for key in ("residual_norms", "eta_ratios"):
        assert _close(report.__dict__[key][1:], ref[key][1:]), key
    assert _close(report.t_norms, ref["t_norms"])
    assert _close(report.errors, ref["errors"])
    for k, t in zip(ref["ks"][1:], ref["t"][1:]):
        got = solve_at(a, b, k, shift)
        assert frobenius_norm(got - t) <= 1e-8 * frobenius_norm(t)


# ---------------------------------------------------------------------------
# the face-domain builder against the per-term tensor builder


def _same_tensors(got, want, rtol=1e-12):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dims == w.dims
        assert frobenius_norm(g - w) <= rtol * frobenius_norm(w)


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 7, 8])
@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("drop_last_tube", [False, True])
def test_build_sequence_matches_tensor_builder(n3, cols, drop_last_tube):
    rng = np.random.default_rng(100 * n3 + 10 * cols + drop_last_tube)
    a = Tensor3(rng.standard_normal((6, 5, n3)))
    if drop_last_tube:
        fac = tsvd(a)
        sdata = fac.s.data.copy()
        sdata[4, 4, :] = 0.0
        a = tprod(tprod(fac.u, Tensor3(sdata)), ttranspose(fac.v))
    b = Tensor3(rng.standard_normal((6, cols, n3)))
    state = build_sequence(a, b)
    want = loop_build_sequence(a, b)
    assert state.kept_indices == want.kept_indices == tuple(range(1, 6 - drop_last_tube))
    _same_tensors(state.deltas, want.deltas)
    _same_tensors(state.sdeltas, want.sdeltas)
    _same_tensors(state.partial_sums[1:], want.partial_sums[1:])
    assert frobenius_norm(state.partial_sums[0]) == 0.0


def tube_cut_problem(cut_faces, n=4, n3=4):
    """An n x n x n3 operator with face singular values n, n-1, ..., 1 on
    every half-spectrum face, except that the last tube is zero on the
    half-spectrum faces ``cut_faces``."""
    values = np.tile(np.arange(n, 0, -1.0), (n3 // 2 + 1, 1))
    values[list(cut_faces), -1] = 0.0
    sdata = np.zeros((n, n, n3))
    sdata[np.arange(n), np.arange(n), :] = np.fft.irfft(values, n=n3, axis=0).T
    q1, q2 = tsvd(rand(n, n, n3)).u, tsvd(rand(n, n, n3)).u
    return tprod(tprod(q1, Tensor3(sdata)), ttranspose(q2)), rand(n, 1, n3)


def test_tube_cut_on_every_face_is_dropped():
    a, b = tube_cut_problem(cut_faces=[0, 1, 2])
    state = build_sequence(a, b)
    assert state.kept_indices == (1, 2, 3)
    assert state.delta_faces.shape == (3, 3, 1, 1)


def test_tube_cut_on_some_faces_is_kept_with_zero_delta_there():
    a, b = tube_cut_problem(cut_faces=[1])
    state = build_sequence(a, b)
    assert state.kept_indices == (1, 2, 3, 4)
    last = state.delta_faces[3, :, 0, 0]
    assert last[1] == 0.0
    assert np.all(last[[0, 2]] != 0.0)
    assert np.all(state.sum_faces[4, 1, :, 0] == state.sum_faces[3, 1, :, 0])


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"shift": np.nan}, "shift"),
        ({"shift": -1e-3}, "shift"),
        ({"shift": np.inf}, "shift"),
        ({"tol_eps": np.nan}, "tol_eps"),
        ({"tol_eps": -1.0}, "tol_eps"),
        ({"tol_eps": np.inf}, "tol_eps"),
    ],
)
def test_solve_refuses_invalid_parameters_before_any_work(kwargs, name, monkeypatch):
    import textrap.trre_tsvd_solver as solver

    def no_work(*args, **kw):
        raise AssertionError("the sequence was built")

    monkeypatch.setattr(solver, "build_sequence", no_work)
    a, b = rand(4, 4, 3), rand(4, 1, 3)
    with pytest.raises(InvalidParameterError, match=name) as info:
        solve(a, b, **kwargs)
    assert isinstance(info.value, ValueError)
    assert info.value.parameter == name


@pytest.mark.parametrize("k_max", [np.nan, np.inf, 2.5, "3", True])
@pytest.mark.parametrize("entry", ["solve", "build_sequence"])
def test_non_integer_k_max_is_refused_before_the_decomposition(entry, k_max, monkeypatch):
    import textrap.trre_tsvd_solver as solver

    def no_work(*args, **kw):
        raise AssertionError("the decomposition was computed")

    monkeypatch.setattr(solver, "tsvd", no_work)
    a, b = rand(4, 4, 3), rand(4, 1, 3)
    with pytest.raises(InvalidParameterError, match="k_max") as info:
        getattr(solver, entry)(a, b, k_max=k_max)
    assert info.value.parameter == "k_max"


def test_integer_k_max_of_any_integer_type_is_accepted():
    a, b = rand(5, 5, 3), rand(5, 1, 3)
    assert build_sequence(a, b, k_max=np.int64(3)).count == 3
    with pytest.raises(DimensionMismatchError):
        solve(a, b, k_max=np.int64(0))


# ---------------------------------------------------------------------------
# the one-pass k-path against the step-by-step loop


def _stop_tolerances(ref):
    """0, and for the first, the middle, the last and evenly spaced steps
    between them of those a tolerance can stop at (a strict running minimum
    of min(res, eta)), a tolerance halfway between its min(res, eta) and
    the smallest before."""
    ks = ref["ks"][1:]
    m = np.minimum(ref["residual_norms"][1:], ref["eta_ratios"][1:])
    earlier = np.minimum.accumulate(np.concatenate([[np.inf], m[:-1]]))
    reachable = {k: (v + min(e, 2 * v)) / 2 for k, v, e in zip(ks, m, earlier) if v < 0.999 * e}
    tols = {0.0: None}
    stops = list(reachable)
    for i in np.linspace(0, len(stops) - 1, 7).round().astype(int) if stops else ():
        tols[reachable[stops[i]]] = stops[i]
    return tols


def _same_path(report, ref, rtol=1e-12):
    assert report.ks == ref["ks"]
    assert report.stop_reason == ref["stop_reason"]
    assert report.residual_norms[0] is None and report.eta_ratios[0] is None
    for key in ("residual_norms", "eta_ratios", "t_norms", "errors"):
        got, want = getattr(report, key), ref[key]
        if key in ("residual_norms", "eta_ratios"):
            got, want = got[1:], want[1:]
        assert np.allclose(got, want, rtol=rtol, atol=0.0), key
    assert frobenius_norm(report.t_k - ref["t_k"]) <= rtol * frobenius_norm(ref["t_k"])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    n=st.integers(30, 50),
    n3=st.sampled_from([1, 2, 5, 8]),
    seed=st.integers(0, 2**32 - 1),
    shift=st.sampled_from([1e-10, None]),
)
def test_one_pass_path_matches_step_loop(n, n3, seed, shift):
    rng = np.random.default_rng(seed)
    a = Tensor3(rng.standard_normal((n, n, n3)))
    b = Tensor3(rng.standard_normal((n, 1, n3)))
    x = Tensor3(rng.standard_normal((n, 1, n3)))
    state = build_sequence(a, b)
    assert state.count == n
    for tol, k in _stop_tolerances(loop_solve_path(state, 0.0, shift, x)).items():
        ref = loop_solve_path(state, tol, shift, x)
        if k is not None:
            assert ref["ks"][-1] == k and ref["stop_reason"] == "tolerance"
        _same_path(solve(a, b, tol_eps=tol, shift=shift, x_true=x), ref)


def late_singular_problem(n=30, n3=4, constant_from=12):
    """An F-diagonal operator whose singular tubes are constant on every face
    and a right-hand side whose components j >= ``constant_from`` are
    constant along mode 3: Theta_{constant_from + 1} is the first Theta with
    zero faces, and they are exactly zero."""
    sdata = np.zeros((n, n, n3))
    sdata[np.arange(n), np.arange(n), 0] = 10.0 ** (-0.05 * np.arange(n))
    bdata = RNG.uniform(0.5, 1.5, (n, 1, n3))
    bdata[constant_from:] = bdata[constant_from:, :, :1]
    return Tensor3(sdata), Tensor3(bdata)


def test_singular_theta_after_the_first_block():
    a, b = late_singular_problem()
    x = rand(30, 1, 4)
    state = build_sequence(a, b)
    assert np.all(state.delta_faces[12:, 1:] == 0.0)
    with pytest.raises(SingularFaceError) as want:
        loop_solve_path(state, 0.0, shift=None)
    assert "Theta_13 at step k=13" in str(want.value)
    with pytest.raises(SingularFaceError) as got:
        solve(a, b, tol_eps=0.0, shift=None, x_true=x)
    assert str(got.value) == str(want.value)
    assert got.value.face_index == want.value.face_index
    # the steps before the singular Theta can stop at tolerance
    ref = loop_solve_path(build_sequence(a, b, k_max=13), 0.0, shift=None)
    assert ref["ks"][-1] == 12
    tol = 1.000001 * np.min(np.minimum(ref["residual_norms"][1:], ref["eta_ratios"][1:]))
    want_path = loop_solve_path(state, tol, shift=None, x_true=x)
    assert want_path["stop_reason"] == "tolerance" and want_path["ks"][-1] <= 12
    _same_path(solve(a, b, tol_eps=tol, shift=None, x_true=x), want_path)


def test_singular_theta_at_the_end_of_the_path():
    # of 30 terms the last step, k = 29, inverts Theta_29, and no step Theta_30
    a, b = late_singular_problem(constant_from=28)
    with pytest.raises(SingularFaceError, match="Theta_29 at step k=29"):
        loop_solve_path(build_sequence(a, b), 0.0, shift=None)
    with pytest.raises(SingularFaceError, match="Theta_29 at step k=29"):
        solve(a, b, tol_eps=0.0, shift=None)
    a, b = late_singular_problem(constant_from=29)
    x = rand(30, 1, 4)
    ref = loop_solve_path(build_sequence(a, b), 0.0, shift=None, x_true=x)
    assert ref["ks"][-1] == 29 and ref["stop_reason"] == "k_max"
    _same_path(solve(a, b, tol_eps=0.0, shift=None, x_true=x), ref)


# ---------------------------------------------------------------------------
# the k-path against its long-double evaluation


def near_singular_problem(n, n3, rate, near, rng):
    """An F-diagonal operator with singular values 10**(-rate * j) on every
    face, and a right-hand side whose face magnitudes lie in [0.5, 1.5],
    except that on a random half of its components every face but the first
    is ``near`` times smaller (None: none is), so that their Thetas have a
    condition of about 1 / near**2."""
    sdata = np.zeros((n, n, n3))
    sdata[np.arange(n), np.arange(n), 0] = 10.0 ** (-rate * np.arange(n))
    faces = n3 // 2 + 1
    phase = np.exp(2j * np.pi * rng.random((n, faces)))
    real = [0, faces - 1] if n3 % 2 == 0 else [0]  # the faces of a real tensor that are real
    phase[:, real] = rng.choice([-1.0, 1.0], (n, len(real)))
    bf = rng.uniform(0.5, 1.5, (n, faces)) * phase
    if near is not None:
        bf[rng.random(n) < 0.5, 1:] *= near
    return Tensor3(sdata), Tensor3(np.fft.irfft(bf, n=n3, axis=-1)[:, None, :])


#: largest deviation of solve's k-path from the long-double path, in units of
#: k * eps times the size of the terms the value sums (measured: at most 0.61
#: over 40 draws of this problem family)
LD_UNITS = 4.0


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is not wider than float64 on this platform")
@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    n=st.integers(61, 72),
    n3=st.sampled_from([1, 2, 5, 8]),
    rate=st.floats(0.02, 0.08),
    near=st.sampled_from([None, 1e-3, 1e-5]),
    seed=st.integers(0, 2**32 - 1),
    shift=st.sampled_from([1e-10, None]),
)
def test_k_path_is_within_rounding_of_the_long_double_path(n, n3, rate, near, seed, shift):
    a, b = near_singular_problem(n, n3, rate, near, np.random.default_rng(seed))
    report = solve(a, b, tol_eps=0.0, shift=shift)
    ref = ld_solve_path(build_sequence(a, b), 0.0, shift)
    assert report.ks == ref["ks"] and report.final_k >= 60
    assert report.stop_reason == ref["stop_reason"] == "k_max"
    rounding = LD_UNITS * np.array(ref["ks"]) * np.finfo(float).eps
    units = rounding * np.array(ref["scales"])
    t_norms = np.array(ref["t_norms"])
    assert np.all(np.abs(report.t_norms - t_norms) <= units)
    # a residual sums positive terms only
    res = np.array(ref["residual_norms"][1:])
    assert np.all(np.abs(report.residual_norms[1:] - res) <= rounding[1:] * res)
    # eta divides a difference of extrapolants by the previous one's norm
    eta = np.array(ref["eta_ratios"][1:])
    assert np.all(np.abs(report.eta_ratios[1:] - eta) * t_norms[:-1] <= units[1:] + units[:-1])
    assert np.linalg.norm(report.t_k.data - ref["t"][-1]) <= units[-1]


# ---------------------------------------------------------------------------
# the truncated attempt: a tolerance-stopped solve from the leading triplets


def smooth_spectral_problem(n, n3, rate, tilt, rng, noise=1e-3):
    """Operator with face singular values 10**(-rate j) scaled per face by
    up to 1 + tilt, a solution whose right-singular components decay like
    0.5**j, and a right-hand side with relative noise ``noise``."""
    faces = n3 // 2 + 1
    scale = 1.0 + tilt * np.cos(np.pi * np.arange(faces) / max(faces - 1, 1))
    sv = scale[:, None] * 10.0 ** (-rate * np.arange(n))
    a, v = spectral_operator(sv, n3, rng)
    x = Tensor3(np.fft.irfft(v @ 0.5 ** np.arange(n), n=n3, axis=0).T[:, None, :])
    b_bar = tprod(a, x)
    g = rng.standard_normal(b_bar.dims)
    return a, b_bar + Tensor3(g * noise * frobenius_norm(b_bar) / np.linalg.norm(g)), x, sv


def _full_path_only(monkeypatch):
    monkeypatch.setattr(trre_tsvd_solver, "_leading_tsvd", _refuse("the truncated attempt"))


def _truncated_only(monkeypatch):
    monkeypatch.setattr(trre_tsvd_solver, "build_sequence", _refuse("the full decomposition"))


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} ran")

    return refuse


#: largest deviation of an accepted attempt's T_k from the full path's, in
#: units of eps * sigma_1 / sigma_{k+1}, the full decomposition's own accuracy
#: on the last term the path read (measured: at most 0.8 over 79 accepted
#: draws of this problem family away from the cutoff)
T_K_UNITS = 100.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(64, 96),
    n3=st.sampled_from([1, 2, 5, 8]),
    rate=st.floats(0.25, 1.2),
    tilt=st.floats(0.0, 0.5),
    tol=st.sampled_from([1e-2, 1e-3, 1e-4]),
    seed=st.integers(0, 2**32 - 1),
    shift=st.sampled_from([1e-10, None]),
)
def test_truncated_attempt_matches_the_full_path(n, n3, rate, tilt, tol, seed, shift):
    a, b, x, sv = smooth_spectral_problem(n, n3, rate, tilt, np.random.default_rng(seed))
    report = solve(a, b, tol_eps=tol, shift=shift, x_true=x)
    state = build_sequence(a, b)
    if report.triplets == n:  # the attempt could not decide: the full path ran
        _same_path(report, loop_solve_path(state, tol, shift, x), rtol=0.0)
        return
    assert report.triplets == 16
    if np.any(np.abs(np.log10(sv[:, :16] / (PINV_RCOND * sv[:, :1]))) < 1.0):
        # a term near the pseudo-inverse cutoff may be cut by one factorization
        # and kept by the other: the reference uses the same factorization
        factors = _accepted_factors(a, b, tol, shift)
        _same_path(report, loop_solve_path(_sequence(factors, b, 16), tol, shift, x))
        return
    ref = loop_solve_path(state, tol, shift, x)
    k = report.final_k
    assert report.ks == ref["ks"] and report.stop_reason == ref["stop_reason"]
    assert report.kept_indices == tuple(j for j in state.kept_indices if j <= 16)
    last = report.kept_indices[k] - 1  # the last term the path read
    units = np.finfo(float).eps * np.max(sv[:, 0]) / np.min(sv[:, last])
    got, want = report.t_k.data, ref["t_k"].data
    assert np.linalg.norm(got - want) <= T_K_UNITS * units * np.linalg.norm(want)


def _accepted_factors(a, b, tol, shift):
    """The factors whose sequence gave the result of ``solve(a, b, tol, shift=shift)``:
    the last that the solve made a sequence of."""
    seen = []
    with pytest.MonkeyPatch.context() as spy:
        spy.setattr(trre_tsvd_solver, "_sequence",
                    lambda factors, *args: seen.append(factors) or _sequence(factors, *args))
        solve(a, b, tol_eps=tol, shift=shift)
    return seen[-1]


def test_smooth_tolerance_solve_is_decided_by_the_leading_triplets(monkeypatch):
    a, b, x, _ = smooth_spectral_problem(64, 4, 0.5, 0.2, np.random.default_rng(11))
    full = solve(a, b, tol_eps=1e-3, x_true=x)
    assert full.triplets == 16 and full.stop_reason == "tolerance"
    assert full.as_dict()["triplets"] == 16
    _truncated_only(monkeypatch)
    again = solve(a, b, tol_eps=1e-3, x_true=x)
    assert again.t_k.data.tobytes() == full.t_k.data.tobytes()


def test_small_operators_and_tol_zero_run_the_full_path(monkeypatch):
    a, b, x, _ = smooth_spectral_problem(64, 4, 0.5, 0.2, np.random.default_rng(12))
    _full_path_only(monkeypatch)
    report = solve(a, b, tol_eps=0.0, x_true=x)
    ref = loop_solve_path(build_sequence(a, b), 0.0, x_true=x)
    assert report.triplets == 64 and report.as_dict()["triplets"] == 64
    assert report.power_steps == report.as_dict()["power_steps"] == 0
    assert report.ks == ref["ks"] and report.stop_reason == ref["stop_reason"] == "k_max"
    for key in ("residual_norms", "eta_ratios", "t_norms", "errors"):
        assert getattr(report, key) == ref[key], key
    assert report.t_k.data.tobytes() == ref["t_k"].data.tobytes()
    small, bs, xs, _ = smooth_spectral_problem(63, 4, 0.5, 0.2, np.random.default_rng(12))
    assert solve(small, bs, tol_eps=1e-3, x_true=xs).triplets == 63


def test_truncated_attempt_is_deterministic_and_leaves_the_global_rng_alone():
    a, b, x, _ = smooth_spectral_problem(64, 5, 0.5, 0.3, np.random.default_rng(13))
    np.random.seed(1234)
    before = np.random.get_state()
    first, second = (solve(a, b, tol_eps=1e-3, x_true=x) for _ in range(2))
    after = np.random.get_state()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]
    assert first.triplets == second.triplets == 16
    assert first.ks == second.ks and first.kept_indices == second.kept_indices
    for key in ("residual_norms", "eta_ratios", "t_norms", "errors"):
        assert getattr(first, key) == getattr(second, key), key
    assert first.t_k.data.tobytes() == second.t_k.data.tobytes()


def test_truncated_attempt_does_not_depend_on_the_memory_layout_of_a():
    # spectral_operator's tensor is face-first: every DFT face of it is one
    # C-contiguous block, the layout tprod returns
    a, b, x, _ = smooth_spectral_problem(64, 8, 0.5, 0.2, np.random.default_rng(15))
    assert np.moveaxis(a.data, 2, 0).flags.c_contiguous
    layouts = [a, Tensor3(np.ascontiguousarray(a.data)), Tensor3(np.asfortranarray(a.data))]
    reports = [solve(op, b, tol_eps=1e-3, x_true=x) for op in layouts]
    first = reports[0]
    assert first.triplets == 16 and first.stop_reason == "tolerance"
    for report in reports[1:]:
        assert report.ks == first.ks and report.stop_reason == first.stop_reason
        assert report.kept_indices == first.kept_indices and report.triplets == first.triplets
        assert report.t_k.data.tobytes() == first.t_k.data.tobytes()


def _solve_in_child(a, b, want):
    report = solve(a, b, tol_eps=1e-3)
    assert report.triplets == 16
    assert report.t_k.data.tobytes() == want


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_forked_child_runs_the_truncated_attempt(monkeypatch):
    # the parent's helper threads are running; the child inherits none of
    # them and must start its own
    monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 2)
    a, b, _, _ = smooth_spectral_problem(64, 6, 0.5, 0.2, np.random.default_rng(16))
    report = solve(a, b, tol_eps=1e-3)
    assert report.triplets == 16
    child = multiprocessing.get_context("fork").Process(
        target=_solve_in_child, args=(a, b, report.t_k.data.tobytes()))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child did not finish its solve")
    assert child.exitcode == 0


def test_the_solve_paths_transform_back_only_u(monkeypatch):
    # the sequence reads the faces of v and the half-spectrum singular values
    # as they are: v, s and the full spectrum are never formed, on the full
    # path and on an accepted truncated attempt alike
    a, b, x, _ = smooth_spectral_problem(64, 4, 0.5, 0.2, np.random.default_rng(3))
    want = [solve(a, b, tol_eps=tol, x_true=x) for tol in (1e-3, 0.0)]
    for name in ("s", "v", "face_singular_values"):
        monkeypatch.setattr(TsvdFactors, name, property(_refuse(f"forming {name}")))
    state = build_sequence(a, b)
    assert len(state.sdeltas) == len(state.partial_sums) - 1 == state.count > 0
    got = [solve(a, b, tol_eps=tol, x_true=x) for tol in (1e-3, 0.0)]
    assert [report.triplets for report in got] == [16, 64]
    for report, ref in zip(got, want):
        assert report.ks == ref.ks and report.errors == ref.errors
        assert np.array_equal(report.t_k.data, ref.t_k.data)


def test_stop_past_the_trusted_terms_falls_back_to_the_full_path(monkeypatch):
    # a tolerance no step meets: the attempt runs out of its 16 terms
    a, b, x, _ = smooth_spectral_problem(64, 4, 0.5, 0.2, np.random.default_rng(14))
    ref = loop_solve_path(build_sequence(a, b), 1e-300, x_true=x)
    calls = []
    for name in ("_leading_tsvd", "build_sequence"):
        original = getattr(trre_tsvd_solver, name)
        monkeypatch.setattr(trre_tsvd_solver, name,
                            lambda *args, f=original, n=name: calls.append(n) or f(*args))
    report = solve(a, b, tol_eps=1e-300, x_true=x)
    assert calls == ["_leading_tsvd", "build_sequence"]
    assert report.triplets == 64 and report.power_steps == 1
    _same_path(report, ref, rtol=0.0)


def _count_ranges(monkeypatch, cpus):
    """Patch the usable CPUs to ``cpus`` and return the list to which every
    range of a power step appends its number of faces."""
    monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: cpus)
    ranges = []
    kernel = tsvd_module._range_finder
    monkeypatch.setattr(tsvd_module, "_range_finder",
                        lambda af, *out: ranges.append(len(af)) or kernel(af, *out))
    return ranges


@pytest.mark.parametrize("n, n3, seed", [(64, 4, 11), (128, 32, 0)])
@pytest.mark.parametrize("tol", [1e-2, 1e-3])
def test_a_smooth_tolerance_solve_is_decided_after_one_power_step(monkeypatch, n, n3, seed, tol):
    a, b, x, sv = smooth_spectral_problem(n, n3, 0.5, 0.2, np.random.default_rng(seed))
    state = build_sequence(a, b)
    ref = loop_solve_path(state, tol, x_true=x)
    ranges = _count_ranges(monkeypatch, 2)
    _truncated_only(monkeypatch)
    report = solve(a, b, tol_eps=tol, x_true=x)
    # one call per range: the faces split once, in one power step
    assert report.triplets == 16 and report.power_steps == 1
    assert report.as_dict()["power_steps"] == 1
    assert len(ranges) == min(n3 // 2 + 1, 2) and sum(ranges) == n3 // 2 + 1
    assert report.ks == ref["ks"] and report.stop_reason == ref["stop_reason"] == "tolerance"
    assert report.kept_indices == tuple(j for j in state.kept_indices if j <= 16)
    last = report.kept_indices[report.final_k] - 1  # the last term the path read
    units = np.finfo(float).eps * np.max(sv[:, 0]) / np.min(sv[:, last])
    got, want = report.t_k.data, ref["t_k"].data
    assert np.linalg.norm(got - want) <= T_K_UNITS * units * np.linalg.norm(want)


def test_a_term_the_first_step_could_not_trust_takes_the_second(monkeypatch):
    # at 10**-0.4 per index one power step trusts 7 triplets and two trust
    # 12, and the path stops at k = 9, reading term 10
    a, b, x, _ = smooth_spectral_problem(64, 5, 0.4, 0.0, np.random.default_rng(0))
    steps = [*_leading_tsvd(a, 16)]
    assert [trusted for _, trusted in steps] == [7, 12]
    ref = loop_solve_path(build_sequence(a, b), 1e-3, x_true=x)
    ranges = _count_ranges(monkeypatch, 1)
    _truncated_only(monkeypatch)
    report = solve(a, b, tol_eps=1e-3, x_true=x)
    assert report.triplets == 16 and ranges == [3, 3]
    assert report.power_steps == report.as_dict()["power_steps"] == 2
    assert report.kept_indices[report.final_k] == 10
    assert report.ks == ref["ks"] and report.stop_reason == ref["stop_reason"]
    # the result is the k-path on the factors of the last step
    shift = trre_tsvd_solver.DEFAULT_THETA_SHIFT
    t = trre_tsvd_solver._k_path(_sequence(steps[-1][0], b, 16), 1e-3, shift)[0]
    want = Tensor3(np.fft.irfft(t[-1], n=5, axis=0).T[:, None, :])
    assert report.t_k.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("problem, tol", [
    ((128, 32, 1.2, 0.0, 400), 1e-14),  # numerically low rank: the attempt runs out of terms
    ((64, 4, 0.5, 0.2, 14), 1e-300),  # a tolerance no step meets
])
def test_an_outcome_past_the_trustable_terms_skips_the_second_step(monkeypatch, problem, tol):
    # the outcome needs a term past the 12 that any step can trust, so the
    # full path follows the first power step, and gives the result of the
    # full path alone (tol_eps = 0, as the tolerance is never met)
    n, n3, rate, tilt, seed = problem
    a, b, x, _ = smooth_spectral_problem(n, n3, rate, tilt, np.random.default_rng(seed))
    want = solve(a, b, tol_eps=0.0, x_true=x)
    monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 1)
    calls = []
    for module, name in ((tsvd_module, "_range_finder"), (trre_tsvd_solver, "build_sequence")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=original, n=name: calls.append(n) or f(*args))
    report = solve(a, b, tol_eps=tol, x_true=x)
    assert calls == ["_range_finder", "build_sequence"]
    assert report.triplets == n == want.triplets
    # the step the attempt ran is counted though the full path decided
    assert report.power_steps == 1 and want.power_steps == 0
    assert report.ks == want.ks and report.stop_reason == want.stop_reason == "k_max"
    assert report.kept_indices == want.kept_indices
    assert report.t_k.data.tobytes() == want.t_k.data.tobytes()


def rank_cut_problem(n=64, n3=4, rank=3):
    """An F-diagonal operator whose face 1 has rank ``rank`` and whose other
    faces have full rank, with singular values 10**(-0.5 j): on face 1 every
    delta from term rank + 1 on is cut to exactly zero by both the full and
    the leading-triplet factorization, so with no shift Theta_{rank+1} is
    singular on face 1."""
    faces = np.ones((n3 // 2 + 1, n)) * 10.0 ** (-0.5 * np.arange(n))
    faces[1, rank:] = 0.0
    sdata = np.zeros((n, n, n3))
    sdata[np.arange(n), np.arange(n)] = np.fft.irfft(faces, n=n3, axis=0).T
    return Tensor3(sdata), Tensor3(RNG.uniform(0.5, 1.5, (n, 1, n3)))


def test_singular_theta_in_the_trusted_range_raises_like_the_full_path(monkeypatch):
    a, b = rank_cut_problem()
    with pytest.raises(SingularFaceError) as want:
        loop_solve_path(build_sequence(a, b), 1e-14, shift=None)
    assert "Theta_4 at step k=4" in str(want.value)
    _truncated_only(monkeypatch)
    with pytest.raises(SingularFaceError) as got:
        solve(a, b, tol_eps=1e-14, shift=None)
    assert str(got.value) == str(want.value)
    assert got.value.face_index == want.value.face_index == 1
    assert got.value.cond == want.value.cond == np.inf


def test_non_finite_operator_is_refused_by_the_truncated_attempt(monkeypatch):
    a, b, _, _ = smooth_spectral_problem(64, 4, 0.5, 0.2, np.random.default_rng(15))
    data = a.data.copy()
    data[3, 5, 1] = np.nan
    _truncated_only(monkeypatch)
    with pytest.raises(FaceSvdError):
        solve(Tensor3(data), b, tol_eps=1e-3)


# ---------------------------------------------------------------------------
# a k-path that leaves the floating-point range


def range_problem():
    """``(a, b, x_true)`` as ``textrap gen --dims 8,8,2 --rate 0.2 --noise
    1e-3`` makes them: well scaled, and a solve of them stops at k_max."""
    from textrap.cli import make_problem

    return make_problem((8, 8, 2), "geometric", 0.2, 1e-3, np.random.default_rng(0), 1)


@pytest.mark.parametrize("scale_a, scale_b, shift, match", [
    # |delta| ~ 1e-200: the squares in the extrapolant norms underflow to zero
    (1e200, 1.0, 1e-10, "the k-path underflowed to zero"),
    (1.0, 1e-200, 1e-10, "the k-path underflowed to zero"),
    # without the shift 1 / Theta overflows
    (1e160, 1.0, None, "the k-path overflowed"),
    # |delta| ~ 1e200: Theta_1 overflows
    (1.0, 1e200, 1e-10, "Theta_1 at step k=2 overflowed"),
    (1e-200, 1.0, 1e-10, "Theta_1 at step k=2 overflowed"),
    (1.0, 1e200, None, "Theta_1 at step k=2 overflowed"),
    # without the shift an all-zero Theta_1 is named, not refused as singular
    (1e200, 1.0, None, "Theta_1 at step k=2 underflowed to zero"),
    (1.0, 1e-200, None, "Theta_1 at step k=2 underflowed to zero"),
])
def test_a_k_path_out_of_range_raises_naming_it(scale_a, scale_b, shift, match):
    a, b, _ = range_problem()
    # the typed error, and no numpy warning, reaches the caller
    with pytest.raises(NumericalConsistencyError, match=match):
        solve(a * scale_a, b * scale_b, tol_eps=1e-3, shift=shift)


def test_a_k_path_in_range_is_left_as_it_was():
    # the range checks fire on non-finite values only: a scale that a and b
    # share leaves every value in range, and the one-pass path matches the
    # step-by-step reference to the bit
    a, b, x = range_problem()
    a, b = a * 1e200, b * 1e200
    report = solve(a, b, tol_eps=1e-3, x_true=x)
    assert report.stop_reason == "k_max" and report.power_steps == 0
    _same_path(report, loop_solve_path(build_sequence(a, b), 1e-3, x_true=x), rtol=0.0)
