import json

import numpy as np
import pytest

from oracles import bcirc_pinv_apply, brute_bcirc, face_singular_values
from textrap import (
    DimensionMismatchError,
    Tensor3,
    check_moore_penrose,
    frobenius_norm,
    identity_tensor,
    load_factors,
    save_factors,
    tls_solve,
    tprod,
    tsvd,
    ttranspose,
    ttsvd,
    tubal_rank,
    truncated_expansion,
)

RNG = np.random.default_rng(20240804)


def rand(n1, n2, n3):
    return Tensor3(RNG.standard_normal((n1, n2, n3)))


# ---------------------------------------------------------------------------
# full decomposition contracts


@pytest.mark.parametrize("dims", [(5, 3, 4), (3, 5, 4), (4, 4, 3), (2, 2, 1), (6, 1, 5)])
def test_tsvd_contracts(dims):
    n1, n2, n3 = dims
    r = min(n1, n2)
    a = rand(*dims)
    f = tsvd(a)
    assert f.u.dims == (n1, r, n3)
    assert f.s.dims == (r, r, n3)
    assert f.v.dims == (n2, r, n3)
    assert f.r == r
    assert f.face_singular_values.shape == (n3, r)
    # faces sorted descending
    assert np.all(np.diff(f.face_singular_values, axis=1) <= 1e-12)
    assert frobenius_norm(f.reconstruction() - a) / frobenius_norm(a) < 1e-12
    assert f.orthogonality_residual() < 1e-10
    assert f.f_diagonality_residual() < 1e-12


def test_tsvd_face_values_match_dense_svds():
    a = rand(5, 4, 6)
    np.testing.assert_allclose(
        tsvd(a).face_singular_values, face_singular_values(a.data), atol=1e-10
    )


def test_tsvd_frobenius_energy_identity():
    # |A|_F^2 = (1/n3) sum_f sum_j sigma_j(f)^2
    a = rand(4, 6, 5)
    sv = tsvd(a).face_singular_values
    assert frobenius_norm(a) ** 2 == pytest.approx(np.sum(sv**2) / a.n3, rel=1e-12)


# ---------------------------------------------------------------------------
# truncation


def test_truncation_error_identity():
    a = rand(6, 5, 4)
    sv = face_singular_values(a.data)
    for k in range(1, 5):
        factors, _ = ttsvd(a, k)
        err_sq = frobenius_norm(factors.reconstruction() - a) ** 2
        want = np.sum(sv[:, k:] ** 2) / a.n3
        assert err_sq == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_ttsvd_errors_monotone():
    a = rand(6, 6, 3)
    errs = [
        frobenius_norm(ttsvd(a, k)[0].reconstruction() - a) for k in range(1, 7)
    ]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-10


def test_ttsvd_validates_k():
    a = rand(4, 3, 2)
    for bad in (0, -1, 4):
        with pytest.raises(DimensionMismatchError):
            ttsvd(a, bad)


def test_ttsvd_full_k_gives_moore_penrose():
    a = rand(5, 3, 4)
    _, mp = ttsvd(a, 3)
    assert check_moore_penrose(a, mp).passed
    # embedded candidate equals the embedded pseudoinverse
    np.testing.assert_allclose(
        brute_bcirc(mp.data), np.linalg.pinv(brute_bcirc(a.data)), atol=1e-8
    )


def test_truncated_expansion_sums_to_reconstruction():
    a = rand(4, 5, 3)
    factors, _ = ttsvd(a, 3)
    triplets = truncated_expansion(factors)
    assert len(triplets) == 3
    total = None
    for u_j, d_j, v_j in triplets:
        assert u_j.dims == (4, 1, 3)
        assert d_j.dims == (1, 1, 3)
        assert v_j.dims == (5, 1, 3)
        term = tprod(tprod(u_j, d_j), ttranspose(v_j))
        total = term if total is None else total + term
    assert frobenius_norm(total - factors.reconstruction()) < 1e-10


# ---------------------------------------------------------------------------
# least squares


def test_tls_solve_matches_embedded_pinv():
    for n1, n2 in [(6, 4), (4, 6), (5, 5)]:
        a, b = rand(n1, n2, 3), rand(n1, 2, 3)
        got = tls_solve(a, b)
        want = bcirc_pinv_apply(a.data, b.data)
        assert np.linalg.norm(got.data - want) / np.linalg.norm(want) < 1e-10


def test_tls_solve_consistent_system_exact():
    a, x0 = rand(5, 3, 4), rand(3, 2, 4)
    b = tprod(a, x0)
    x = tls_solve(a, b)
    assert frobenius_norm(tprod(a, x) - b) / frobenius_norm(b) < 1e-10


def test_tls_solve_minimum_norm():
    # wide system: solution set is an affine subspace; the returned point
    # must beat every null-space perturbation in norm at equal residual
    a = rand(3, 6, 2)
    b = rand(3, 2, 2)
    x = tls_solve(a, b)
    res = frobenius_norm(tprod(a, x) - b)
    bc = brute_bcirc(a.data)
    pinv_bc = np.linalg.pinv(bc)
    for _ in range(10):
        z = RNG.standard_normal((6 * 2, 2))
        null_part = z - pinv_bc @ (bc @ z)
        x2 = Tensor3(x.data + np.stack((null_part[:6], null_part[6:]), axis=2))
        assert frobenius_norm(tprod(a, x2) - b) == pytest.approx(res, rel=1e-8)
        assert frobenius_norm(x2) >= frobenius_norm(x) - 1e-10


def test_tls_solve_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        tls_solve(rand(3, 4, 2), rand(4, 2, 2))
    with pytest.raises(DimensionMismatchError):
        tls_solve(rand(3, 4, 2), rand(3, 2, 3))


# ---------------------------------------------------------------------------
# rank and persistence


def test_tubal_rank_of_exact_truncation():
    a = rand(6, 6, 3)
    for k in (1, 3, 5):
        ak = ttsvd(a, k)[0].reconstruction()
        assert tubal_rank(ak) == k
    assert tubal_rank(identity_tensor(4, 3)) == 4
    assert tubal_rank(Tensor3(np.zeros((3, 3, 2)))) == 0


def test_save_load_round_trip(tmp_path):
    a = rand(5, 4, 3)
    factors, _ = ttsvd(a, 2)
    prefix = tmp_path / "fac"
    paths = save_factors(factors, prefix)
    assert set(paths) == {"u", "s", "v", "sidecar"}
    sidecar_path = tmp_path / "fac_tsvd.json"
    sidecar = json.loads(sidecar_path.read_text())
    assert sidecar["r"] == 2
    back = load_factors(prefix)
    assert back.r == 2
    for name in ("u", "s", "v"):
        np.testing.assert_array_equal(getattr(back, name).data, getattr(factors, name).data)
    np.testing.assert_allclose(
        back.face_singular_values, factors.face_singular_values, atol=1e-12
    )
    # sidecars written with the former tol key still load
    sidecar_path.write_text(json.dumps(dict(sidecar, tol=1e-10)))
    assert load_factors(prefix).r == 2
