import dataclasses
import importlib
import json
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import bcirc_pinv_apply, brute_bcirc, face_singular_values, spectral_operator
from textrap import (
    DimensionMismatchError,
    FaceSvdError,
    InvalidParameterError,
    Tensor3,
    TsvdFactors,
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

from textrap import tensor_core
from textrap.tensor_core import _faces
from textrap.tsvd import _MARGIN, PINV_RCOND, _leading_tsvd

tsvd_module = importlib.import_module("textrap.tsvd")

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


@pytest.mark.parametrize("k", [2.5, "2", np.float64(2.0), True])
def test_ttsvd_refuses_a_non_integer_k(k):
    with pytest.raises(InvalidParameterError) as info:
        ttsvd(rand(4, 3, 2), k)
    assert info.value.parameter == "k"


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


def test_factors_keep_their_faces_private_and_make_tensors_on_first_read():
    assert all(f.name.startswith("_") for f in dataclasses.fields(TsvdFactors))
    public = {name for name in dir(TsvdFactors) if not name.startswith("_")}
    assert public == {"u", "s", "v", "r", "face_singular_values", "reconstruction",
                      "orthogonality_residual", "f_diagonality_residual"}
    for factors in (tsvd(rand(5, 4, 3)), ttsvd(rand(5, 4, 3), 2)[0],
                    _leading_tsvd(rand(64, 64, 3), 16)[0]):
        lazy = ("u", "s", "v", "face_singular_values")
        assert not set(lazy) & set(vars(factors))
        first = [getattr(factors, name) for name in lazy]
        assert all(getattr(factors, name) is x for name, x in zip(lazy, first))


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


# ---------------------------------------------------------------------------
# the leading-triplet factorization of a solve's truncated attempt


def _geometric(n, n3, rate, seed):
    sv = np.tile(10.0 ** (-rate * np.arange(n)), (n3 // 2 + 1, 1))
    return spectral_operator(sv, n3, np.random.default_rng(seed))[0]


@pytest.mark.parametrize("n3", [1, 2, 5, 8])
@pytest.mark.parametrize("rate", [0.1, 0.2, 0.3, 0.5, 0.8, 1.2])
def test_leading_tsvd_trusts_only_resolved_triplets(n3, rate):
    a = _geometric(64, n3, rate, seed=int(10 * rate) + n3)
    factors, trusted = _leading_tsvd(a, 16)
    full = tsvd(a)
    assert factors.r == 16 and factors.u.dims == (64, 16, n3) and factors.v.dims == (64, 16, n3)
    assert 0 <= trusted <= 16 - _MARGIN
    top = full.face_singular_values[:, :1]
    got, want = factors.face_singular_values[:, :trusted], full.face_singular_values[:, :trusted]
    assert np.all(np.abs(got - want) <= PINV_RCOND * top)
    # each trusted triplet spans the same face columns as the full one
    faces = n3 // 2 + 1
    for x, y in ((factors.u, full.u), (factors.v, full.v)):
        xf = np.fft.rfft(x.data[:, :trusted], axis=2)
        yf = np.fft.rfft(y.data[:, :trusted], axis=2)
        overlap = np.abs(np.einsum("ijf,ijf->fj", xf.conj(), yf))
        big = want[:faces] > 1e-6 * top[:faces]  # well separated from the cutoff
        assert np.all(np.abs(overlap - 1.0)[big] <= 1e-8)
    if rate == 0.1:
        assert trusted == 0  # a slow decay is not resolved by 16 columns
    if rate >= 0.5:
        assert trusted == 16 - _MARGIN


def test_margin_keeps_unresolved_trailing_triplets_out():
    # why ``_MARGIN`` is 4: at 10**-0.26 per index the sketch resolves the
    # singular values through index 12 = 16 - 4 to the pseudo-inverse cutoff,
    # while index 13 already misses by 1e-11 of the largest
    assert _MARGIN >= 4
    a = _geometric(64, 2, 0.26, seed=2)
    factors, trusted = _leading_tsvd(a, 16)
    full = tsvd(a)
    miss = np.max(np.abs(factors.face_singular_values - full.face_singular_values[:, :16]), axis=0)
    miss /= np.max(full.face_singular_values[:, 0])
    assert np.all(miss[: 16 - _MARGIN] <= PINV_RCOND)
    assert miss[16 - _MARGIN] > PINV_RCOND
    assert trusted <= 16 - _MARGIN


def test_leading_tsvd_refuses_a_non_finite_operator():
    a = _geometric(64, 4, 0.5, seed=3)
    data = a.data.copy()
    data[0, 0, 0] = np.inf
    with pytest.raises(FaceSvdError):
        _leading_tsvd(Tensor3(data), 16)


def test_leading_tsvd_never_calls_tsvd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full tsvd ran")

    module = importlib.import_module("textrap.tsvd")
    monkeypatch.setattr(module, "tsvd", refuse)
    factors, trusted = _leading_tsvd(_geometric(64, 4, 0.5, seed=4), 16)
    assert factors.r == 16 and trusted == 16 - _MARGIN


@pytest.mark.parametrize("n3", [1, 2, 5, 8])
@pytest.mark.parametrize("rate", [0.26, 0.5, 1.2])
def test_trusted_triplets_meet_the_bound_from_the_returned_tensors(n3, rate):
    # faces 0 and n3/2 of the factors are exactly real, so the bound the
    # attempt checked on its face arrays survives the transform back
    a = _geometric(64, n3, rate, seed=n3)
    factors, trusted = _leading_tsvd(a, 16)
    assert trusted > 0
    af, uf, vf = (_faces(t.data) for t in (a, factors.u, factors.v))
    sv = factors.face_singular_values[: n3 // 2 + 1]
    residual = np.linalg.norm(af @ vf - uf * sv[:, None, :], axis=1)[:, :trusted]
    assert np.all(residual <= PINV_RCOND * sv[:, :1])


# ---------------------------------------------------------------------------
# the operator's transform and the range finder split over the usable CPUs


def _layouts(data):
    """Face-first (the layout tprod returns), C-ordered and F-ordered copies."""
    face_first = np.moveaxis(np.ascontiguousarray(np.moveaxis(data, 2, 0)), 0, 2)
    return {"face-first": face_first, "C": np.ascontiguousarray(data), "F": np.asfortranarray(data)}


@pytest.mark.parametrize("n3", [1, 6, 7])
def test_leading_tsvd_has_the_same_bits_on_any_number_of_cpus(monkeypatch, n3):
    a = _geometric(64, n3, 0.5, seed=n3)
    want_faces = _faces(a.data)
    calls = []  # (thread, operator faces) of every range
    kernel = tsvd_module._range_finder

    def recorded(af, *out):
        calls.append((threading.current_thread(), af))
        return kernel(af, *out)

    monkeypatch.setattr(tsvd_module, "_range_finder", recorded)
    results = []
    for layout, data in _layouts(a.data).items():
        for cpus in (1, 2, 3):
            monkeypatch.setattr(tensor_core, "_usable_cpus", lambda cpus=cpus: cpus)
            calls.clear()
            results.append(_leading_tsvd(Tensor3(data), 16))
            parts = min(n3 // 2 + 1, cpus)
            # ranges that cover every face, one on this thread and the others
            # on helper threads
            assert len(calls) == parts and sum(len(af) for _, af in calls) == n3 // 2 + 1
            assert [thread for thread, _ in calls].count(threading.current_thread()) == 1
            # the ranges are slices of one face array, transformed by row
            # ranges with the bits of one transform of the operator; each face
            # is contiguous in the operator's order of rows and columns
            start = min(af.ctypes.data for _, af in calls)
            for _, af in calls:
                lo = (af.ctypes.data - start) // af.strides[0]
                assert np.array_equal(af, want_faces[lo : lo + len(af)]), layout
                assert af[0].flags.c_contiguous == (layout != "F"), layout
                assert af[0].flags.f_contiguous == (layout == "F"), layout
    (want, trusted), *others = results
    assert trusted == 16 - _MARGIN
    for got, got_trusted in others:
        assert got_trusted == trusted
        for name in ("u", "s", "v"):
            assert np.array_equal(getattr(got, name).data, getattr(want, name).data)
        assert np.array_equal(got.face_singular_values, want.face_singular_values)


def test_one_face_starts_no_helper_thread(monkeypatch):
    monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 3)
    here = threading.current_thread()
    calls = []
    with monkeypatch.context() as helpers_refused:
        helpers_refused.setattr(tensor_core, "_helper_jobs", _refuse_helpers)
        tensor_core._face_split(
            lambda lo, hi: calls.append((threading.current_thread(), lo, hi)), 1)
    assert calls == [(here, 0, 1)]
    # the operator's 64 rows are still transformed in 3 ranges, but its one
    # face runs through the range finder once, on the calling thread
    kernel = tsvd_module._range_finder

    def recorded(af, *out):
        calls.append((threading.current_thread(), len(af)))
        return kernel(af, *out)

    monkeypatch.setattr(tsvd_module, "_range_finder", recorded)
    calls.clear()
    factors, trusted = _leading_tsvd(_geometric(64, 1, 0.5, seed=1), 16)
    assert factors.r == 16 and trusted == 16 - _MARGIN
    assert calls == [(here, 1)]


def _refuse_helpers(size):
    raise AssertionError("a helper thread was asked for")


class _HelperRangeError(Exception):
    pass


def test_an_error_in_a_helper_range_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 2)
    kernel = tsvd_module._range_finder
    finished = []

    def fails_off_the_calling_thread(af, *out):
        if threading.current_thread() is not threading.main_thread():
            raise _HelperRangeError(len(af))
        kernel(af, *out)
        finished.append(len(af))

    monkeypatch.setattr(tsvd_module, "_range_finder", fails_off_the_calling_thread)
    with pytest.raises(_HelperRangeError) as info:
        _leading_tsvd(_geometric(64, 8, 0.5, seed=8), 16)
    assert finished == [3] and info.value.args == (2,)


def test_a_non_finite_operator_is_refused_before_any_range_starts(monkeypatch):
    monkeypatch.setattr(tsvd_module, "_face_split", _refuse_ranges)
    data = _geometric(64, 6, 0.5, seed=6).data.copy()
    data[3, 5, 4] = np.nan
    with pytest.raises(FaceSvdError) as info:
        _leading_tsvd(Tensor3(data), 16)
    assert info.value.face_index == 0


def _refuse_ranges(kernel, count):
    raise AssertionError("a range was started")


def test_concurrent_callers_share_the_helper_threads(monkeypatch):
    # more callers and ranges than cores, with a short switch interval
    monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 3)
    a = _geometric(64, 8, 0.5, seed=10)
    want, _ = _leading_tsvd(a, 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            futures = [callers.submit(_leading_tsvd, a, 16) for _ in range(8)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, trusted in results:
        assert trusted == 16 - _MARGIN
        assert np.array_equal(got.u.data, want.u.data)
        assert np.array_equal(got.v.data, want.v.data)


def test_the_interpreter_exits_with_helper_threads_idle():
    code = (
        "import threading\n"
        "import numpy as np\n"
        "from textrap import tensor_core\n"
        "tensor_core._usable_cpus = lambda: 2\n"
        "tensor_core._face_split(lambda lo, hi: np.ones((hi - lo, 2)), 3)\n"
        "print(threading.active_count())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"]
