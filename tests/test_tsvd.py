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
    Stack5,
    Tensor3,
    TsvdFactors,
    check_moore_penrose,
    frobenius_norm,
    identity_tensor,
    left_inverse,
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
from textrap.tensor_core import _adjoint, _face_linalg, _faces
from textrap.tsvd import _MARGIN, _POWER_STEPS, PINV_RCOND, _leading_tsvd

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
                    _last_step(rand(64, 64, 3))[0]):
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


def _last_step(a):
    """``(factors, trusted)`` of the last power step of ``_leading_tsvd(a, 16)``."""
    return [*_leading_tsvd(a, 16)][-1]


@pytest.mark.parametrize("n3", [1, 2, 5, 8])
@pytest.mark.parametrize("rate", [0.1, 0.2, 0.3, 0.5, 0.8, 1.2])
def test_leading_tsvd_trusts_only_resolved_triplets(n3, rate):
    a = _geometric(64, n3, rate, seed=int(10 * rate) + n3)
    factors, trusted = _last_step(a)
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
    factors, trusted = _last_step(a)
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
    factors, trusted = _last_step(_geometric(64, 4, 0.5, seed=4))
    assert factors.r == 16 and trusted == 16 - _MARGIN


@pytest.mark.parametrize("n3", [1, 2, 5, 8])
@pytest.mark.parametrize("rate", [0.26, 0.5, 1.2])
def test_trusted_triplets_meet_the_bound_from_the_returned_tensors(n3, rate):
    # faces 0 and n3/2 of the factors are exactly real, so the bound the
    # attempt checked on its face arrays survives the transform back
    a = _geometric(64, n3, rate, seed=n3)
    factors, trusted = _last_step(a)
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
            results.append([*_leading_tsvd(Tensor3(data), 16)])
            parts = min(n3 // 2 + 1, cpus)
            # per power step, ranges that cover every face, one on this thread
            # and the others on helper threads
            assert len(results[-1]) == _POWER_STEPS
            assert len(calls) == parts * _POWER_STEPS
            assert sum(len(af) for _, af in calls) == (n3 // 2 + 1) * _POWER_STEPS
            assert [thread for thread, _ in calls].count(threading.current_thread()) == _POWER_STEPS
            # the ranges are slices of one face array, transformed by row
            # ranges with the bits of one transform of the operator; each face
            # is contiguous in the operator's order of rows and columns
            start = min(af.ctypes.data for _, af in calls)
            for _, af in calls:
                lo = (af.ctypes.data - start) // af.strides[0]
                assert np.array_equal(af, want_faces[lo : lo + len(af)]), layout
                assert af[0].flags.c_contiguous == (layout != "F"), layout
                assert af[0].flags.f_contiguous == (layout == "F"), layout
    first, *others = results
    assert first[-1][1] == 16 - _MARGIN
    for steps in others:
        for (got, got_trusted), (want, trusted) in zip(steps, first):
            assert got_trusted == trusted
            for name in ("u", "s", "v"):
                assert np.array_equal(getattr(got, name).data, getattr(want, name).data)
            assert np.array_equal(got.face_singular_values, want.face_singular_values)


def _power_scheme(af, omega, steps):
    """Face factors after ``steps`` power steps made in one go on the faces
    ``af``, then the R-SVD: the range finder of ``_leading_tsvd`` with its
    steps in one loop."""
    q = np.linalg.qr(af @ omega)[0]
    for _ in range(steps):
        q = np.linalg.qr(af @ _adjoint(_adjoint(q) @ af))[0]
    pf, rf = np.linalg.qr(_adjoint(_adjoint(q) @ af))
    ur, sv, vr = np.linalg.svd(_adjoint(rf), full_matrices=False)
    return q @ ur, sv, pf @ _adjoint(vr)


@pytest.mark.parametrize("dims", [(64, 64, 4), (96, 64, 7), (64, 80, 1)])
def test_each_power_step_continues_the_one_before(monkeypatch, dims):
    # step s yields the bits of s power steps made in one go, on either
    # memory layout (on any number of CPUs by the test above), and reading
    # step 2 leaves the factors of step 1 as they were
    n1, n2, n3 = dims
    data = _geometric(max(n1, n2), n3, 0.3, seed=n3).data[:n1, :n2]
    omega = np.random.default_rng(tsvd_module._TEST_MATRIX_SEED).standard_normal((n2, 16))
    kernel = tsvd_module._range_finder
    faces = []

    def recorded(af, *out):
        faces.append(af)
        return kernel(af, *out)

    monkeypatch.setattr(tsvd_module, "_range_finder", recorded)
    monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 1)
    for layout in ("C", "F"):
        a = Tensor3(np.asfortranarray(data) if layout == "F" else np.ascontiguousarray(data))
        faces.clear()
        steps = _leading_tsvd(a, 16)
        first = next(steps)
        first_bytes = _factor_bytes(first[0])
        got = [first, *steps]
        assert _factor_bytes(first[0]) == first_bytes
        # one range per step: the operator's faces as the range finder reads them
        assert len(got) == len(faces) == _POWER_STEPS and len(faces[0]) == n3 // 2 + 1
        want = [[x.tobytes() for x in _power_scheme(faces[0], omega, count)]
                for count in range(1, _POWER_STEPS + 1)]
        assert [_factor_bytes(factors) for factors, _ in got] == want, layout
        assert all(0 <= trusted <= 16 - _MARGIN for _, trusted in got)


def _factor_bytes(factors):
    return [x.tobytes() for x in (factors._uf, factors._sv, factors._vf)]


def test_one_face_starts_no_helper_thread(monkeypatch):
    monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 3)
    here = threading.current_thread()
    calls = []
    with monkeypatch.context() as helpers_refused:
        helpers_refused.setattr(tensor_core, "_helpers", _RefusingHelpers())
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
    factors, trusted = _last_step(_geometric(64, 1, 0.5, seed=1))
    assert factors.r == 16 and trusted == 16 - _MARGIN
    assert calls == [(here, 1)] * _POWER_STEPS


class _RefusingHelpers:
    def submit(self, *job):
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
        _last_step(_geometric(64, 8, 0.5, seed=8))
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
    want, _ = _last_step(a)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            futures = [callers.submit(_last_step, a) for _ in range(8)]
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


_SPLIT_AT_SHUTDOWN = (
    "import threading\n"
    "import numpy as np\n"
    "from textrap import tensor_core\n"
    "def split(name):\n"
    "    seen = np.zeros(5, dtype=int)\n"
    "    def kernel(lo, hi):\n"
    "        seen[lo:hi] += 1\n"
    "    for cpus, count in [(2, 3), (2, 5), (3, 3), (3, 5)]:\n"
    "        tensor_core._usable_cpus = lambda: cpus\n"
    "        seen[:] = 0\n"
    "        tensor_core._face_split(kernel, count)\n"
    "        assert seen[:count].tolist() == [1] * count, (name, cpus, seen)\n"
    "    print(name)\n"
)


@pytest.mark.parametrize("when", ["atexit", "thread"])
def test_ranges_run_during_interpreter_shutdown(when):
    # once shutdown has begun the executor takes no new jobs: an atexit
    # handler, or a non-daemon thread that outlives the main thread, still
    # gets every range run
    start = {
        "atexit": "import atexit\natexit.register(split, 'atexit')\n",
        # the main thread counts as finished once the shutdown hooks have run
        "thread": "threading.Thread(target=lambda: (threading.main_thread().join(), split('thread'))).start()\n",
    }[when]
    proc = subprocess.run([sys.executable, "-c", _SPLIT_AT_SHUTDOWN + start],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [when]


def test_importing_the_package_starts_no_thread():
    code = "import threading\nimport textrap\nprint(threading.active_count())\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


# ---------------------------------------------------------------------------
# the full path's face SVDs split over the usable CPUs


def _full_path_bytes(a, b, grid):
    """The bytes of every full-path result: tsvd's factors, ttsvd, tls_solve
    and left_inverse."""
    factors = tsvd(a)
    kept, mp = ttsvd(a, 3)
    inverse = left_inverse(grid)
    k, ell = inverse.grid_shape
    arrays = [factors._uf, factors._sv, factors._vf, factors.u.data, factors.s.data,
              factors.v.data, kept.u.data, mp.data, tls_solve(a, b).data,
              *(inverse.block(i, j).data for i in range(k) for j in range(ell))]
    return [x.tobytes() for x in arrays]


@pytest.mark.parametrize("n3", [2, 6, 7])
def test_full_face_svds_have_the_same_bits_on_any_number_of_cpus(monkeypatch, n3):
    data = RNG.standard_normal((24, 16, n3))
    b = Tensor3(RNG.standard_normal((24, 2, n3)))
    grid = Stack5([[rand(8, 6, n3), rand(8, 6, n3)]])
    ranges = []  # (thread, lo, hi) of every range of a face split
    split = tsvd_module._face_split

    def recorded(kernel, count):
        def traced(lo, hi):
            ranges.append((threading.current_thread(), lo, hi))
            kernel(lo, hi)

        split(traced, count)

    monkeypatch.setattr(tsvd_module, "_face_split", recorded)
    results = []
    for layout in ("C", "F"):
        a = Tensor3(np.asfortranarray(data) if layout == "F" else np.ascontiguousarray(data))
        for cpus in (1, 2, 3):
            monkeypatch.setattr(tensor_core, "_usable_cpus", lambda cpus=cpus: cpus)
            ranges.clear()
            tsvd(a)
            # ranges that cover every face, one on this thread
            parts = min(n3 // 2 + 1, cpus)
            assert len(ranges) == parts and sum(hi - lo for _, lo, hi in ranges) == n3 // 2 + 1
            assert [thread for thread, _, _ in ranges].count(threading.current_thread()) == 1
            results.append(_full_path_bytes(a, b, grid))
    for got in results[1:]:
        assert got == results[0]


@pytest.mark.parametrize("n3", [1, 2, 5, 8])
def test_real_faces_are_decomposed_as_real_matrices(n3):
    a = rand(9, 6, n3)
    factors = tsvd(a)
    faces = _faces(a.data)
    real = {0, n3 // 2} if n3 % 2 == 0 else {0}
    for f in range(n3 // 2 + 1):
        u, sv, vh = np.linalg.svd(faces[f].real if f in real else faces[f], full_matrices=False)
        assert np.array_equal(factors._uf[f], u) and np.array_equal(factors._sv[f], sv)
        assert np.array_equal(factors._vf[f], vh.conj().T)
        if f in real:
            assert not factors._uf[f].imag.any() and not factors._vf[f].imag.any()
    np.testing.assert_allclose(factors.face_singular_values, face_singular_values(a.data),
                               atol=1e-10)
    assert frobenius_norm(factors.reconstruction() - a) / frobenius_norm(a) < 1e-12
    assert factors.orthogonality_residual() < 1e-10


def _svd_error(call):
    with pytest.raises(FaceSvdError) as info:
        call()
    return str(info.value), info.value.face_index


@pytest.mark.parametrize("bad", [0, 2, 3])
def test_a_non_finite_face_is_named_as_by_one_batched_svd(monkeypatch, bad):
    faces = _faces(rand(5, 4, 6).data)
    faces[bad, 1, 2] = np.nan
    want = _svd_error(lambda: _face_linalg(np.linalg.svd, faces, full_matrices=False))
    assert want == (f"svd refused: face {bad} has non-finite entries", bad)
    # the check runs over the whole stack before any range starts
    monkeypatch.setattr(tsvd_module, "_face_split", _refuse_ranges)
    assert _svd_error(lambda: tsvd_module._face_svd(faces)) == want


def test_an_overflowing_operator_is_refused_as_by_one_batched_svd():
    # the one huge tube overflows the transform on faces 1 and 2 only
    data = RNG.standard_normal((4, 3, 6))
    data[1, 2] = 1e308 * np.array([1, 0, -1, 0, 1, 0])
    a = Tensor3(data)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _svd_error(lambda: _face_linalg(np.linalg.svd, _faces(data), full_matrices=False))
        assert want == ("svd refused: face 1 has non-finite entries", 1)
        for call in (lambda: tsvd(a), lambda: ttsvd(a, 2), lambda: tls_solve(a, rand(4, 1, 6))):
            assert _svd_error(call) == want


def test_an_svd_failure_in_a_helper_range_raises_face_svd_error(monkeypatch):
    monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 2)
    svd = np.linalg.svd
    done = []

    def fails_off_the_calling_thread(face, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise np.linalg.LinAlgError("SVD did not converge")
        done.append(face.shape)
        return svd(face, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_off_the_calling_thread)
    with pytest.raises(FaceSvdError) as info:
        tsvd(rand(6, 5, 8))
    assert str(info.value) == "svd failed on the DFT faces: SVD did not converge"
    assert info.value.face_index is None
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    # the calling thread's range, the real faces 0 and 4 and the complex
    # face 1 of 5, ran to its end
    assert done == [(6, 5)] * 3


@pytest.mark.parametrize("n3, here, helper", [(8, "rrc", "cc"), (7, "rc", "cc"), (2, "r", "r")])
def test_the_real_faces_run_first(monkeypatch, n3, here, helper):
    # a real face costs about half a complex one, so the first range, the
    # longer and the calling thread's, takes them: of faces 0 .. 4 at
    # n3 = 8 the calling thread decomposes 0, 4 and 1, the helper 2 and 3
    monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 2)
    svd = np.linalg.svd
    kinds = {}

    def recorded(face, *args, **kwargs):
        kinds.setdefault(threading.current_thread() is threading.main_thread(), []).append(
            "c" if np.iscomplexobj(face) else "r")
        return svd(face, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    tsvd(rand(6, 5, n3))
    assert "".join(kinds[True]) == here and "".join(kinds[False]) == helper
