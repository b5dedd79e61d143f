import numpy as np
import pytest

from oracles import bcirc_pinv_tensor, brute_tprod, brute_ttranspose, sampled_positive_definite
from textrap import (
    DimensionMismatchError,
    PenroseReport,
    SingularFaceError,
    Tensor3,
    check_moore_penrose,
    frobenius_norm,
    identity_tensor,
    is_invertible,
    is_orthogonal,
    is_positive_definite,
    slice_product_entry,
    tinverse,
    tprod,
    tscalar_product,
    tsvd,
    ttranspose,
)

RNG = np.random.default_rng(20240802)


def rand(n1, n2, n3):
    return Tensor3(RNG.standard_normal((n1, n2, n3)))


def rel_err(got: Tensor3, want: np.ndarray) -> float:
    scale = np.linalg.norm(want)
    return np.linalg.norm(got.data - want) / (scale if scale > 0 else 1.0)


# ---------------------------------------------------------------------------
# the product itself


def test_tprod_matches_circulant_embedding():
    for _ in range(30):
        n1, n2, m = RNG.integers(1, 7, size=3)
        n3 = int(RNG.integers(1, 6))
        x, y = rand(n1, n2, n3), rand(n2, m, n3)
        assert rel_err(tprod(x, y), brute_tprod(x.data, y.data)) < 1e-12
    # the tube, inner-product and outer-product shapes of a per-term sequence build
    for n3 in (1, 2, 7, 8):
        for n1, n2, m in ((1, 1, 1), (1, 64, 1), (64, 1, 1)):
            x, y = rand(n1, n2, n3), rand(n2, m, n3)
            assert rel_err(tprod(x, y), brute_tprod(x.data, y.data)) < 1e-12


def test_tprod_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        tprod(rand(2, 3, 4), rand(4, 2, 4))
    with pytest.raises(DimensionMismatchError):
        tprod(rand(2, 3, 4), rand(3, 2, 5))


def test_tprod_identity_and_associativity():
    a = rand(3, 4, 5)
    eye_l, eye_r = identity_tensor(3, 5), identity_tensor(4, 5)
    assert frobenius_norm(tprod(eye_l, a) - a) < 1e-12
    assert frobenius_norm(tprod(a, eye_r) - a) < 1e-12
    b, c = rand(4, 2, 5), rand(2, 6, 5)
    lhs = tprod(tprod(a, b), c)
    rhs = tprod(a, tprod(b, c))
    assert frobenius_norm(lhs - rhs) / frobenius_norm(rhs) < 1e-12


def test_tprod_bilinearity():
    a, b = rand(3, 3, 4), rand(3, 3, 4)
    c = rand(3, 2, 4)
    lhs = tprod(a + b, c)
    rhs = tprod(a, c) + tprod(b, c)
    assert frobenius_norm(lhs - rhs) < 1e-10


def test_ttranspose_matches_slice_reversal():
    t = rand(3, 5, 6)
    np.testing.assert_allclose(ttranspose(t).data, brute_ttranspose(t.data), atol=0.0)
    # involution
    np.testing.assert_allclose(ttranspose(ttranspose(t)).data, t.data, atol=0.0)


def test_ttranspose_product_rule():
    x, y = rand(3, 4, 5), rand(4, 2, 5)
    lhs = ttranspose(tprod(x, y))
    rhs = tprod(ttranspose(y), ttranspose(x))
    assert frobenius_norm(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# inverses


def well_conditioned(n, n3):
    base = RNG.standard_normal((n, n, n3))
    base[:, :, 0] += 3.0 * n * np.eye(n)  # diagonally dominant embedding
    return Tensor3(base)


def test_tinverse_two_sided():
    a = well_conditioned(4, 5)
    inv = tinverse(a)
    eye = identity_tensor(4, 5)
    assert frobenius_norm(tprod(a, inv) - eye) < 1e-10
    assert frobenius_norm(tprod(inv, a) - eye) < 1e-10


def test_tinverse_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        tinverse(rand(3, 4, 2))


def test_tinverse_singular_face_reports_index():
    # DFT face 0 is the sum of frontal slices; zero one of its rows
    n, n3 = 3, 4
    data = RNG.standard_normal((n, n, n3))
    data[n - 1, :, 0] -= data.sum(axis=2)[n - 1, :]
    with pytest.raises(SingularFaceError) as info:
        tinverse(Tensor3(data))
    assert info.value.face_index == 0
    assert info.value.cond > 1e6


def test_is_invertible_report():
    good = well_conditioned(3, 4)
    report = is_invertible(good)
    assert bool(report) and report.invertible
    assert report.face_min_sv.shape == (4,) and report.face_max_sv.shape == (4,)
    assert 0 < report.ratio <= 1.0
    assert np.all(report.face_conds >= 1.0)
    # rank-1 tensor is never invertible
    u, v = RNG.standard_normal(3), RNG.standard_normal(3)
    flat = Tensor3(np.repeat(np.outer(u, v)[:, :, None], 4, axis=2))
    assert not is_invertible(flat)
    with pytest.raises(DimensionMismatchError):
        is_invertible(rand(2, 3, 2))


def test_face_conds_is_inf_on_an_exactly_zero_face():
    # 0 / 0 on a zero face must read inf, not warn about an invalid value
    conds = is_invertible(Tensor3(np.zeros((2, 2, 3)))).face_conds
    np.testing.assert_array_equal(conds, np.inf)
    constant = np.repeat(well_conditioned(2, 1).data, 4, axis=2)  # faces 1..3 are zero
    conds = is_invertible(Tensor3(constant)).face_conds
    assert np.isfinite(conds[0]) and np.all(conds[1:] == np.inf)


def test_tinverse_raises_from_the_is_invertible_report():
    for data in (np.zeros((2, 2, 3)), np.repeat(well_conditioned(3, 1).data, 4, axis=2)):
        report = is_invertible(Tensor3(data))
        with pytest.raises(SingularFaceError) as info:
            tinverse(Tensor3(data))
        worst = int(np.argmin(report.face_min_sv))
        assert info.value.face_index == worst
        assert info.value.cond == report.face_conds[worst] == np.inf
        assert str(info.value).startswith(f"face {worst} is singular to working precision")


# ---------------------------------------------------------------------------
# scalar products, orthogonality, definiteness


def test_tscalar_product_norm_identity():
    x = rand(5, 1, 4)
    tube = tscalar_product(x, x)
    assert tube.values[0] == pytest.approx(frobenius_norm(x) ** 2, rel=1e-12)
    with pytest.raises(DimensionMismatchError):
        tscalar_product(rand(5, 2, 4), x)
    with pytest.raises(DimensionMismatchError):
        tscalar_product(rand(4, 1, 4), x)


def test_slice_product_entry_matches_full_product():
    a, b = rand(4, 3, 5), rand(4, 3, 5)
    full = tprod(ttranspose(a), b)
    for i in range(3):
        for j in range(3):
            np.testing.assert_allclose(
                slice_product_entry(a, b, i, j).values, full.data[i, j, :], atol=1e-10
            )
    with pytest.raises(DimensionMismatchError):
        slice_product_entry(a, rand(4, 2, 5), 0, 0)
    with pytest.raises(IndexError):
        slice_product_entry(a, b, 0, 3)


def test_is_orthogonal():
    q = tsvd(rand(4, 4, 3)).u
    assert is_orthogonal(q)
    assert not is_orthogonal(2.0 * q)
    with pytest.raises(DimensionMismatchError):
        is_orthogonal(rand(3, 4, 2))


def test_positive_definite_modes_agree():
    # the face decision against the sampled falsifier in the oracles
    n, n3 = 4, 3
    g = rand(n, n, n3)
    gram = tprod(ttranspose(g), g)  # PSD, almost surely PD
    shifted = gram + identity_tensor(n, n3)
    assert is_positive_definite(shifted)
    assert sampled_positive_definite(shifted.data, rng=np.random.default_rng(0))
    neg = -1.0 * shifted
    assert not is_positive_definite(neg)
    assert not sampled_positive_definite(neg.data, rng=np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError):
        is_positive_definite(rand(n, n - 1, n3))


def test_positive_semidefinite_boundary():
    # rank-deficient gram tensor: semidefinite yes, definite no
    g = rand(2, 4, 3)
    gram = tprod(ttranspose(g), g)
    assert is_positive_definite(gram, semi=True)
    assert not is_positive_definite(gram)


# ---------------------------------------------------------------------------
# Moore-Penrose checking


def test_check_moore_penrose_accepts_true_pinv():
    a = rand(5, 3, 4)
    x = Tensor3(bcirc_pinv_tensor(a.data))
    report = check_moore_penrose(a, x)
    assert report.passed and bool(report)
    assert max(report.residuals) < 1e-8


def test_a_nan_residual_fails_the_penrose_check():
    # Python's max skips a NaN that is not first, so each residual is
    # compared on its own
    for where in range(4):
        residuals = [0.0] * 4
        residuals[where] = np.nan
        assert not PenroseReport(tuple(residuals)).passed


def test_check_moore_penrose_rejects_wrong_candidate():
    a = rand(4, 3, 2)
    x = rand(3, 4, 2)
    report = check_moore_penrose(a, x)
    assert not report.passed
    with pytest.raises(DimensionMismatchError):
        check_moore_penrose(a, rand(4, 3, 2))
