import numpy as np
import pytest

from oracles import classical_mmpe, classical_mpe, classical_rre, classical_tea
from textrap import (
    METHODS,
    DimensionMismatchError,
    InsufficientSequenceError,
    InvalidParameterError,
    NumericalConsistencyError,
    SingularFaceError,
    Stack4,
    Tensor3,
    TensorSequence,
    beta_to_gamma,
    build_y_stack,
    default_tmmpe_y,
    difference_stacks,
    extrapolate,
    frobenius_norm,
    gamma_to_alpha,
    identity_tensor,
    solve_beta_system,
    star,
    tinverse,
    tprod,
    tsvd,
    ttea_solve,
    ttranspose,
)

RNG = np.random.default_rng(20240805)


def rand(n1, n2, n3):
    return Tensor3(RNG.standard_normal((n1, n2, n3)))


def linear_sequence(n, n3, width, count, cols=1):
    """Fixed-point iteration S_{j+1} = M * S_j + C whose transition tensor
    has exactly `width` distinct eigenvalues shared by every DFT face.

    Every eigenvalue gets multiplicity >= cols so that the block Krylov
    space of a cols-column start block reaches dimension width * cols
    exactly, making width-step extrapolation terminate finitely."""
    assert n >= width * cols
    q = tsvd(rand(n, n, n3)).u
    eig = RNG.uniform(0.1, 0.8, size=width) * RNG.choice([-1.0, 1.0], size=width)
    reps = np.tile(eig, cols)
    diag = np.concatenate([reps, eig[RNG.integers(0, width, size=n - reps.size)]])
    d = np.zeros((n, n, n3))
    d[np.arange(n), np.arange(n), 0] = diag
    m = tprod(tprod(q, Tensor3(d)), ttranspose(q))
    c = rand(n, cols, n3)
    fixed = tprod(tinverse(identity_tensor(n, n3) - m), c)
    terms = [rand(n, cols, n3)]
    for _ in range(count - 1):
        terms.append(tprod(m, terms[-1]) + c)
    return TensorSequence(terms), fixed


# ---------------------------------------------------------------------------
# containers and difference windows


def test_sequence_validation():
    with pytest.raises(InsufficientSequenceError):
        TensorSequence([])
    with pytest.raises(DimensionMismatchError):
        TensorSequence([rand(2, 1, 3), rand(2, 1, 4)])
    seq = TensorSequence([rand(2, 1, 3) for _ in range(4)])
    assert len(seq) == 4 and seq.dims == (2, 1, 3)
    seq.require(4, "window")
    with pytest.raises(InsufficientSequenceError):
        seq.require(5, "window")


def test_difference_stacks_values():
    terms = [rand(3, 2, 2) for _ in range(6)]
    seq = TensorSequence(terms)
    delta, delta2 = difference_stacks(seq, 1, 2)
    assert delta.count == 3 and delta2.count == 2
    for j in range(3):
        want = terms[2 + j] - terms[1 + j]
        assert frobenius_norm(delta[j] - want) == 0.0
    for j in range(2):
        want = delta[j + 1] - delta[j]
        assert frobenius_norm(delta2[j] - want) == 0.0
    with pytest.raises(InsufficientSequenceError):
        difference_stacks(seq, 3, 2)  # needs terms through index 6
    with pytest.raises(InsufficientSequenceError):
        difference_stacks(seq, -1, 2)
    with pytest.raises(InsufficientSequenceError):
        difference_stacks(seq, 0, 0)


def test_default_tmmpe_y_structure():
    dims = (7, 3, 5)
    y = default_tmmpe_y(dims, 2)
    assert y.count == 2 and y.dims == dims
    for i, slice_i in enumerate(y):
        assert np.all(slice_i.data[:, :, 1:] == 0.0)
        front = slice_i.data[:, :, 0]
        assert front.sum() == 3.0  # one unit entry per column
        for c in range(3):
            assert front[(i * 3 + c) % 7, c] == 1.0
    # stacked projection directions all distinct: full row rank
    stacked = np.vstack([yi.data[:, :, 0].T for yi in y])
    assert np.linalg.matrix_rank(stacked) == 6


def test_build_y_stack_selects_method():
    seq = TensorSequence([rand(3, 2, 2) for _ in range(5)])
    delta, delta2 = difference_stacks(seq, 0, 2)
    tmpe_y = build_y_stack("tmpe", seq, 0, 2)
    trre_y = build_y_stack("trre", seq, 0, 2)
    for j in range(2):
        assert frobenius_norm(tmpe_y[j] - delta[j]) == 0.0
        assert frobenius_norm(trre_y[j] - delta2[j]) == 0.0
    custom = Stack4([rand(3, 2, 2) for _ in range(2)])
    got = build_y_stack("tmmpe", seq, 0, 2, custom_y=custom)
    assert got is custom
    with pytest.raises(InvalidParameterError) as missing:
        build_y_stack("tmmpe", seq, 0, 2)
    assert missing.value.parameter == "custom_y"
    with pytest.raises(DimensionMismatchError):
        build_y_stack("tmmpe", seq, 0, 2, custom_y=Stack4([rand(3, 2, 2)]))
    with pytest.raises(DimensionMismatchError):
        build_y_stack("tmmpe", seq, 0, 2, custom_y=Stack4([rand(3, 2, 3) for _ in range(2)]))
    with pytest.raises(InvalidParameterError) as unknown:
        build_y_stack("shanks", seq, 0, 2)
    assert unknown.value.parameter == "method"
    with pytest.raises(InvalidParameterError) as unknown:
        extrapolate(seq, 0, 1, "foo")
    assert unknown.value.parameter == "method"


# ---------------------------------------------------------------------------
# finite termination on linearly generated sequences


def test_finite_termination_two_columns():
    width = 2
    seq, fixed = linear_sequence(5, 2, width, count=8, cols=2)
    scale = frobenius_norm(fixed)
    for method in METHODS:
        custom = default_tmmpe_y(seq.dims, width) if method == "tmmpe" else None
        result = extrapolate(seq, 0, width, method, custom_y=custom)
        assert frobenius_norm(result.t_k - fixed) / scale < 1e-8, method
        # coefficient stacks have the documented sizes
        assert result.gamma.count == width + 1
        assert result.beta.count == width
        assert result.alpha.count == width
    e_k = ttea_solve(seq, 0, width, rand(5, 2, 2))[0]
    assert frobenius_norm(e_k - fixed) / scale < 1e-6


def test_finite_termination_single_column():
    width = 3
    seq, fixed = linear_sequence(5, 2, width, count=9)
    scale = frobenius_norm(fixed)
    for method in METHODS:
        custom = default_tmmpe_y(seq.dims, width) if method == "tmmpe" else None
        result = extrapolate(seq, 0, width, method, custom_y=custom)
        assert frobenius_norm(result.t_k - fixed) / scale < 1e-8, method
    e_k = ttea_solve(seq, 0, width, rand(5, 1, 2))[0]
    assert frobenius_norm(e_k - fixed) / scale < 1e-6


def test_finite_termination_windowed_start():
    # same exactness one step into the sequence
    seq, fixed = linear_sequence(4, 3, 2, count=8)
    result = extrapolate(seq, 2, 2, "trre")
    assert frobenius_norm(result.t_k - fixed) / frobenius_norm(fixed) < 1e-8


# ---------------------------------------------------------------------------
# reduction to the classical vector methods (n3 = 1, single column)


def as_tensor_seq(vectors):
    return TensorSequence([Tensor3(v.reshape(-1, 1, 1)) for v in vectors])


def test_classical_reduction():
    n, k, start = 6, 2, 1
    vectors = [RNG.standard_normal(n)]
    for _ in range(7):
        vectors.append(vectors[-1] + RNG.standard_normal(n) * 0.5)
    seq = as_tensor_seq(vectors)

    got = extrapolate(seq, start, k, "tmpe").t_k.data[:, 0, 0]
    np.testing.assert_allclose(got, classical_mpe(vectors, start, k), atol=1e-9)

    got = extrapolate(seq, start, k, "trre").t_k.data[:, 0, 0]
    np.testing.assert_allclose(got, classical_rre(vectors, start, k), atol=1e-9)

    custom = default_tmmpe_y((n, 1, 1), k)
    got = extrapolate(seq, start, k, "tmmpe", custom_y=custom).t_k.data[:, 0, 0]
    qs = [custom[i].data[:, 0, 0] for i in range(k)]
    np.testing.assert_allclose(got, classical_mmpe(vectors, start, k, qs), atol=1e-9)

    y = RNG.standard_normal(n)
    got = ttea_solve(seq, start, k, Tensor3(y.reshape(-1, 1, 1)))[0].data[:, 0, 0]
    np.testing.assert_allclose(got, classical_tea(vectors, start, k, y), atol=1e-9)


# ---------------------------------------------------------------------------
# degenerate windows and validation


def test_constant_sequence_short_circuit():
    term = rand(3, 2, 2)
    seq = TensorSequence([term] * 6)
    result = extrapolate(seq, 0, 2, "tmpe")
    assert frobenius_norm(result.t_k - term) == 0.0
    assert frobenius_norm(result.residual) == 0.0
    assert result.gamma.count == 3
    assert frobenius_norm(result.gamma[2] - identity_tensor(2, 2)) == 0.0
    e_k, beta = ttea_solve(seq, 0, 2, rand(3, 2, 2))
    assert frobenius_norm(e_k - term) == 0.0
    assert all(frobenius_norm(b) == 0.0 for b in beta)


def test_repeated_difference_is_singular():
    # arithmetic progression: both width-2 test stacks degenerate
    base, step = rand(3, 2, 2), rand(3, 2, 2)
    seq = TensorSequence([base + float(j) * step for j in range(6)])
    with pytest.raises(SingularFaceError) as info:
        extrapolate(seq, 0, 2, "tmpe")
    assert info.value.face_index is not None
    with pytest.raises(SingularFaceError):
        extrapolate(seq, 0, 2, "trre")  # second differences identically zero
    with pytest.raises(SingularFaceError, match="identically zero"):
        extrapolate(seq, 0, 2, "tmmpe", custom_y=Stack4([Tensor3.zeros(3, 2, 2)] * 2))


def test_insufficient_terms():
    seq = TensorSequence([rand(2, 1, 2) for _ in range(3)])
    with pytest.raises(InsufficientSequenceError):
        extrapolate(seq, 0, 2, "tmpe")
    with pytest.raises(InsufficientSequenceError):
        ttea_solve(seq, 0, 2, rand(2, 1, 2))
    with pytest.raises(InsufficientSequenceError):
        ttea_solve(seq, 0, 0, rand(2, 1, 2))
    with pytest.raises(InsufficientSequenceError, match="n >= 0"):
        ttea_solve(seq, -1, 1, rand(2, 1, 2))


def test_ttea_dimension_check():
    seq = TensorSequence([rand(2, 1, 2) for _ in range(5)])
    with pytest.raises(DimensionMismatchError):
        ttea_solve(seq, 0, 2, rand(2, 2, 2))


# ---------------------------------------------------------------------------
# coefficient conversions


def test_result_coefficient_identities():
    seq, _ = linear_sequence(4, 2, 2, count=8)
    result = extrapolate(seq, 1, 2, "trre")
    delta, _ = difference_stacks(seq, 1, 2)
    # gamma sums to the identity
    total = result.gamma[0] + result.gamma[1] + result.gamma[2]
    assert frobenius_norm(total - identity_tensor(1, 2)) < 1e-8
    # documented reconstructions of T_k and the residual
    want_t = seq[1] + star(delta[:2], result.alpha)
    assert frobenius_norm(result.t_k - want_t) < 1e-10
    want_r = star(delta, result.gamma)
    assert frobenius_norm(result.residual - want_r) < 1e-10


@pytest.mark.parametrize("method", METHODS)
def test_one_transform_gives_both_contractions(method):
    # t_k and the residual come from one transform of the differences; they
    # are the two star contractions of the returned coefficients
    n, k = 1, 3
    seq = TensorSequence([rand(16, 3, 4) for _ in range(n + k + 2)])
    custom_y = default_tmmpe_y(seq.dims, k) if method == "tmmpe" else None
    result = extrapolate(seq, n, k, method, custom_y)
    delta, _ = difference_stacks(seq, n, k)
    for got, want in ((result.t_k, seq[n] + star(delta[:k], result.alpha)),
                      (result.residual, star(delta, result.gamma))):
        assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)


def test_well_conditioned_systems_run_no_svd(monkeypatch):
    # one LU both solves each face system and settles the refusal rule
    seq = TensorSequence([rand(9, 3, 4) for _ in range(8)])
    y, near_identity = rand(9, 3, 4), identity_tensor(3, 4) + 0.1 * rand(3, 3, 4)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for method in METHODS:
        extrapolate(seq, 0, 3, method, default_tmmpe_y(seq.dims, 3) if method == "tmmpe" else None)
    ttea_solve(seq, 0, 3, y)
    tinverse(near_identity)
    assert calls == []


def test_solve_beta_system_refuses_unmatched_stacks():
    l = Stack4([rand(3, 2, 2) for _ in range(2)])
    for v in (Stack4([]), l[:1]):
        with pytest.raises(DimensionMismatchError):
            solve_beta_system(l, v, rand(3, 2, 2))
    with pytest.raises(DimensionMismatchError):
        solve_beta_system(l, l, rand(3, 3, 2))


def test_beta_to_gamma_sums_to_identity():
    beta = Stack4([rand(3, 3, 2) for _ in range(2)])
    gamma = beta_to_gamma(beta)
    assert gamma.count == 3
    total = gamma[0] + gamma[1] + gamma[2]
    assert frobenius_norm(total - identity_tensor(3, 2)) < 1e-10


def test_beta_to_gamma_singular_sum_raises():
    # one 1x1x2 slice whose DFT face 0 equals -1: total = beta + I is
    # singular on that face
    beta = Stack4([Tensor3(np.array([-0.25, -0.75]).reshape(1, 1, 2))])
    with pytest.raises(SingularFaceError):
        beta_to_gamma(beta)
    with pytest.raises(DimensionMismatchError):
        beta_to_gamma(Stack4([]))
    with pytest.raises(DimensionMismatchError):
        beta_to_gamma(Stack4([rand(2, 3, 2)]))


def test_gamma_to_alpha_telescoping():
    seq, _ = linear_sequence(4, 2, 2, count=8)
    gamma = extrapolate(seq, 0, 2, "tmpe").gamma
    alpha = gamma_to_alpha(gamma)
    eye = identity_tensor(1, 2)
    assert frobenius_norm(alpha[0] - (eye - gamma[0])) < 1e-12
    assert frobenius_norm(alpha[1] - (alpha[0] - gamma[1])) < 1e-12


def test_gamma_to_alpha_rejects_drift():
    eye = identity_tensor(2, 2)
    bad = Stack4([0.5 * eye, 0.1 * eye])  # sums to 0.6 I, not I
    with pytest.raises(NumericalConsistencyError):
        gamma_to_alpha(bad)
    with pytest.raises(DimensionMismatchError):
        gamma_to_alpha(Stack4([eye]))
    with pytest.raises(DimensionMismatchError):
        gamma_to_alpha(Stack4([rand(2, 3, 2), rand(2, 3, 2)]))


def test_gamma_to_alpha_refuses_nan():
    with pytest.raises(NumericalConsistencyError):
        gamma_to_alpha(Stack4([np.full((2, 2, 2), np.nan)] * 2))


@pytest.mark.parametrize("k", [-1, 0, 2.5, "2", True])
def test_default_tmmpe_y_refuses_a_bad_k(k):
    with pytest.raises(InvalidParameterError) as info:
        default_tmmpe_y((4, 2, 3), k)
    assert info.value.parameter == "k"


@pytest.mark.parametrize("method", ["tmpe", "trre"])
def test_extrapolate_forms_the_differences_once(monkeypatch, method):
    import textrap.extrapolation as engine

    calls = []
    original = engine.difference_stacks

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(engine, "difference_stacks", counted)
    seq = TensorSequence([rand(3, 1, 2) for _ in range(5)])
    engine.extrapolate(seq, 0, 2, method)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda seq, y: extrapolate(seq, 0, 2.5), "k"),
        (lambda seq, y: extrapolate(seq, 0.5, 2), "n"),
        (lambda seq, y: ttea_solve(seq, 0, 2.5, y), "k"),
        (lambda seq, y: difference_stacks(seq, 0, 1.5), "k"),
        (lambda seq, y: extrapolate(seq, 0, "2", "trre"), "k"),
        (lambda seq, y: extrapolate(seq, 0, True, "trre"), "k"),
    ],
)
def test_non_integer_window_parameter_is_refused(call, name):
    seq = TensorSequence([rand(3, 1, 2) for _ in range(8)])
    with pytest.raises(InvalidParameterError) as info:
        call(seq, rand(3, 1, 2))
    assert info.value.parameter == name
    assert name in str(info.value)
