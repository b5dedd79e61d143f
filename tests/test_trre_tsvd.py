import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    closed_form_beta,
    eta_ratio,
    matrix_rre_on_tsvd,
    residual_norm,
    sequence_thetas,
    trre_tsvd_path,
    trre_tsvd_step,
)
from textrap import (
    DimensionMismatchError,
    InsufficientSequenceError,
    NumericalConsistencyError,
    SingularFaceError,
    Stack4,
    Tensor3,
    TensorSequence,
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
        report.timings,
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
