"""The batched half-spectrum face kernel against the per-face loop forms.

Every routine that solves one matrix problem per DFT face is checked
against its loop reference in ``oracles`` (full complex ``fft``, one face
at a time, conjugate faces mirrored by hand) or against the dense
block-circulant oracles, over n3 values that cover n3 = 1, odd n3 and an
even n3 with its real Nyquist face.  The kernel's transform pair itself is
checked against the DFT by quadratic summation.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    bcirc_pinv_apply,
    bcirc_pinv_tensor,
    direct_dft_faces,
    face_singular_values,
    loop_bar_star,
    loop_beta_system,
    loop_beta_to_gamma,
    loop_left_inverse,
    loop_positive_definite,
    loop_star,
    loop_tinverse,
    loop_tls_solve,
    loop_ttsvd_pinv,
    loop_tsvd,
)
from textrap import (
    FaceSvdError,
    SingularFaceError,
    Stack4,
    Stack5,
    Tensor3,
    TextrapError,
    TensorSequence,
    bar_star,
    beta_to_gamma,
    build_sequence,
    check_moore_penrose,
    extrapolate,
    identity_tensor,
    is_invertible,
    is_positive_definite,
    left_inverse,
    solve,
    solve_beta_system,
    star,
    tinverse,
    tls_solve,
    tprod,
    tsvd,
    ttea_solve,
    ttranspose,
    ttsvd,
    tubal_rank,
    verify_left_inverse,
)
from textrap.tensor_core import _face_linalg, _faces, _unfaces
from textrap.tproduct_algebra import INVERTIBILITY_THRESHOLD, _face_solve, _refusal
from textrap.trre_tsvd_solver import _parseval_weights

N3S = (1, 2, 3, 4, 7, 8)
RNG = np.random.default_rng(20261018)


def rand(*dims):
    return RNG.standard_normal(dims)


def from_faces(faces: np.ndarray, n3: int) -> np.ndarray:
    """Real tensor with the given half-spectrum faces (last axis)."""
    return np.fft.irfft(faces, n=n3, axis=-1)


def random_faces(n1, n2, n3):
    f = n3 // 2 + 1
    return rand(n1, n2, f) + 1j * rand(n1, n2, f)


def singular_faces(n3: int) -> list:
    """Faces to make singular: the last half-spectrum face (the Nyquist
    face for even n3) and the one below it."""
    return sorted({n3 // 2, max(n3 // 2 - 1, 0)})


def close(x, ref, tol=1e-10):
    x = x.data if isinstance(x, Tensor3) else np.asarray(x)
    ref = np.asarray(ref)
    return np.linalg.norm(x - ref) <= tol * max(1.0, np.linalg.norm(ref))


@pytest.mark.parametrize("n3", N3S)
def test_batched_face_routines_match_loop_oracles(n3):
    a = rand(5, 4, n3)
    b = rand(5, 2, n3)
    factors = tsvd(Tensor3(a))
    u, s, v, sv = loop_tsvd(a)
    assert close(factors.u, u) and close(factors.s, s) and close(factors.v, v)
    assert factors.face_singular_values.shape == (n3, 4)
    assert close(factors.face_singular_values, sv)
    assert close(factors.face_singular_values, face_singular_values(a))
    assert tubal_rank(Tensor3(a)) == 4

    _, mp2 = ttsvd(Tensor3(a), 2)
    assert close(mp2, loop_ttsvd_pinv(a, 2))
    _, mp = ttsvd(Tensor3(a), 4)
    assert close(mp, bcirc_pinv_tensor(a), 1e-9)

    x = tls_solve(Tensor3(a), Tensor3(b))
    assert close(x, loop_tls_solve(a, b))
    assert close(x, bcirc_pinv_apply(a, b), 1e-9)

    c = rand(4, 4, n3) + 4.0 * identity_tensor(4, n3).data
    assert close(tinverse(Tensor3(c)), loop_tinverse(c))
    report = is_invertible(Tensor3(c))
    assert report and report.face_min_sv.shape == (n3,)
    assert close(report.face_min_sv, face_singular_values(c)[:, -1])

    g = Tensor3(rand(3, 4, n3))
    gram = tprod(ttranspose(g), g)  # rank 3 of 4: semidefinite only
    for t, semi in ((gram, True), (gram, False), (-1.0 * gram, True),
                    (gram + identity_tensor(4, n3), False)):
        assert is_positive_definite(t, semi=semi) == loop_positive_definite(t.data, semi)

    l = [rand(6, 2, n3) for _ in range(2)]
    w = [rand(6, 2, n3) for _ in range(2)]
    rhs = rand(6, 2, n3)
    beta = solve_beta_system(Stack4(l), Stack4(w), Tensor3(rhs))
    for got, want in zip(beta, loop_beta_system(l, w, rhs)):
        assert close(got, want)

    grid = [[rand(3, 2, n3) for _ in range(3)] for _ in range(2)]
    inv = left_inverse(Stack5(grid))
    want = loop_left_inverse(grid)
    for eta in range(2):
        for j in range(3):
            assert close(inv.block(eta, j), want[eta][j])

    # TTEA's Hankel system: sum_i (y^T * D2S_{i+j-1}) * beta_i = -(y^T * DS_j)
    terms = [Tensor3(rand(6, 2, n3)) for _ in range(6)]
    y = Tensor3(rand(6, 2, n3))
    _, betas = ttea_solve(TensorSequence(terms), 0, 2, y)
    ds = [terms[j + 1] - terms[j] for j in range(5)]
    d2s = [ds[j + 1] - ds[j] for j in range(4)]
    yt = ttranspose(y)
    for j in range(2):
        right = tprod(yt, ds[j])
        row = right
        for i in range(1, 3):
            row = row + tprod(tprod(yt, d2s[i + j - 1]), betas[i - 1])
        assert close(row, np.zeros(row.dims), 1e-9 * max(1.0, np.linalg.norm(right.data)))


@pytest.mark.parametrize("n3", N3S)
def test_singular_face_index_matches_loop_oracles(n3):
    bad = singular_faces(n3)

    # tinverse names the face whose smallest singular value is least
    faces = random_faces(4, 4, n3)
    faces[3, :, bad[-1]] = faces[0, :, bad[-1]]
    a = from_faces(faces, n3)
    with pytest.raises(SingularFaceError) as got:
        tinverse(Tensor3(a))
    with pytest.raises(SingularFaceError) as want:
        loop_tinverse(a)
    assert got.value.face_index == want.value.face_index == bad[-1]
    assert not is_invertible(Tensor3(a))

    # the block system names the face whose smallest singular value is least,
    # not the first refused one: face bad[0] is near singular (its columns
    # differ by 1e-13) and face bad[-1] exactly so
    l = [from_faces(random_faces(6, 2, n3), n3) for _ in range(2)]
    wf = [random_faces(6, 2, n3) for _ in range(2)]
    wf[1][:, :, bad[0]] = wf[0][:, :, bad[0]] + 1e-13 * random_faces(6, 2, 1)[:, :, 0]
    wf[1][:, :, bad[-1]] = wf[0][:, :, bad[-1]]
    w = [from_faces(x, n3) for x in wf]
    rhs = rand(6, 2, n3)
    with pytest.raises(SingularFaceError) as got:
        solve_beta_system(Stack4(l), Stack4(w), Tensor3(rhs))
    with pytest.raises(SingularFaceError) as want:
        loop_beta_system(l, w, rhs)
    assert got.value.face_index == want.value.face_index == bad[-1]
    assert got.value.cond >= 1.0 / INVERTIBILITY_THRESHOLD

    # the grid left inverse keeps its own residual test, which names the
    # first rank-deficient face
    gf = [[random_faces(3, 1, n3) for _ in range(3)] for _ in range(2)]
    for j in range(3):
        gf[1][j][:, :, bad] = gf[0][j][:, :, bad]
    grid = [[from_faces(x, n3) for x in row] for row in gf]
    with pytest.raises(SingularFaceError) as got:
        left_inverse(Stack5(grid))
    with pytest.raises(SingularFaceError) as want:
        loop_left_inverse(grid)
    assert got.value.face_index == want.value.face_index == bad[0]


def test_block_system_refused_against_the_largest_face_value():
    # k = 1, n3 = 2: face 1 of the block matrix is face 0 times
    # 1e-3 * diag(1, 1e-10).  Face 1's own condition is 1e10, so a per-face
    # test at 1e-14 passes it; its smallest value is 1e-13 of the largest
    # over both faces, so the one rule refuses it
    q = np.linalg.qr(rand(2, 2))[0]
    v = from_faces(np.stack([q, q @ (1e-3 * np.diag([1.0, 1e-10]))], axis=-1), 2)
    l = identity_tensor(2, 2).data
    rhs = rand(2, 2, 2)
    with pytest.raises(SingularFaceError) as got:
        solve_beta_system(Stack4([l]), Stack4([v]), Tensor3(rhs))
    with pytest.raises(SingularFaceError) as want:
        loop_beta_system([l], [v], rhs)
    assert got.value.face_index == want.value.face_index == 1
    assert got.value.cond == pytest.approx(1e13, rel=1e-2)
    assert str(got.value).startswith("block system face 1 is singular to working precision")
    with pytest.raises(SingularFaceError) as inverse:
        tinverse(Tensor3(v))
    assert inverse.value.face_index == 1
    # the report's per-face condition is not what refused the face: the
    # refusal's cond is the global ratio's reciprocal
    report = is_invertible(Tensor3(v))
    assert report.face_conds[1] == pytest.approx(1e10, rel=1e-2)
    assert inverse.value.cond == pytest.approx(1 / report.ratio, rel=1e-14)


def svd_guarded_solve(faces, rhs=None, what=""):
    """The face solve guarded by a batched SVD under the one rule: the
    decisions, results and errors ``_face_solve`` must reproduce."""
    if (error := _refusal(_face_linalg(np.linalg.svd, faces, compute_uv=False), what)) is not None:
        raise error
    if rhs is None:
        return _face_linalg(np.linalg.inv, faces)
    return _face_linalg(np.linalg.solve, faces, rhs)


def outcome(call):
    """``(result, None)``, or ``(None, (type, message, face index, cond))``
    of the TextrapError ``call()`` raises."""
    try:
        return call(), None
    except TextrapError as exc:
        return None, (type(exc), str(exc), exc.face_index, getattr(exc, "cond", None))


def random_unitary(rng, count, n):
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return np.linalg.qr(z)[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    log_ratio=st.floats(-15.0, -6.0),
    log_scale=st.floats(-150.0, 150.0),
    columns=st.integers(0, 3),
)
def test_face_solve_decides_as_the_svd_rule(n, count, seed, log_ratio, log_scale, columns):
    # face f is U_f diag(sv_f) V_f^H; over all faces the smallest singular
    # value is 10**log_ratio of the largest, log-uniform across the threshold
    assume(n * count >= 2)
    rng = np.random.default_rng(seed)
    logs = rng.uniform(log_ratio, 0.0, size=count * n)
    top, least = rng.choice(count * n, size=2, replace=False)
    logs[top], logs[least] = 0.0, log_ratio
    sv = 10.0 ** (log_scale + logs.reshape(count, n))
    u, v = random_unitary(rng, count, n), random_unitary(rng, count, n)
    faces = (u * sv[:, None, :]) @ v.conj().swapaxes(1, 2)
    shape = (count, n, columns)
    rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape) if columns else None
    got, got_error = outcome(lambda: _face_solve(faces, rhs, "block system "))
    want, want_error = outcome(lambda: svd_guarded_solve(faces, rhs, "block system "))
    assert got_error == want_error
    if want_error is None:
        # largest entries, not norms, whose squares overflow at these scales
        kappa = 10.0 ** -log_ratio
        assert np.abs(got - want).max() <= 1e-10 * kappa * np.abs(want).max()


def test_face_solve_fails_as_the_svd_rule():
    faces = random_faces(3, 3, 4).transpose(2, 0, 1)  # 3 faces of 3 x 3
    rhs = random_faces(3, 2, 4).transpose(2, 0, 1)
    singular = faces.copy()
    singular[1, :, 2] = 0.0  # LU meets an exactly zero pivot
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(singular, rhs)
    nan_face, inf_rhs = faces.copy(), rhs.copy()
    nan_face[1, 0, 0] = np.nan
    inf_rhs[2, 1, 1] = np.inf
    cases = {
        "singular": (singular, rhs), "singular inverse": (singular, None),
        "zero": (np.zeros_like(faces), rhs), "nan face": (nan_face, rhs),
        "nan inverse": (nan_face, None), "inf rhs": (faces, inf_rhs),
        "singular, inf rhs": (singular, inf_rhs),
    }
    errors = {}
    for name, (a, b) in cases.items():
        got, errors[name] = outcome(lambda: _face_solve(a, b, "block system "))
        want, want_error = outcome(lambda: svd_guarded_solve(a, b, "block system "))
        assert got is want is None and errors[name] == want_error, name
    assert errors["singular"][0] is SingularFaceError and errors["singular"][2:] == (1, np.inf)
    assert errors["zero"][0] is SingularFaceError and errors["zero"][2:] == (0, np.inf)
    assert errors["nan face"][1:3] == ("svd refused: face 1 has non-finite entries", 1)
    assert errors["inf rhs"][1:3] == ("solve refused: face 2 has non-finite entries", 2)


def unitary_faces(rng, n, n3):
    """Random unitary faces, real orthogonal on the self-conjugate faces 0
    and n3/2, as an (n, n, F) half-spectrum stack."""
    out = []
    for f in range(n3 // 2 + 1):
        z = rng.standard_normal((n, n))
        if f and 2 * f != n3:
            z = z + 1j * rng.standard_normal((n, n))
        out.append(np.linalg.qr(z)[0])
    return np.stack(out, axis=-1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    n3=st.sampled_from([1, 2, 3, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    scales=st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
    spreads=st.lists(st.floats(0.0, 24.0), min_size=3, max_size=3),
)
def test_refusal_follows_the_one_rule(n, n3, seed, scales, spreads):
    # face f of the system is U_f diag(sv_f) V_f^H with largest singular value
    # 10**scales[f] and smallest 10**(scales[f] - spreads[f])
    rng = np.random.default_rng(seed)
    count = n3 // 2 + 1
    sv = np.array([10.0 ** (scales[f] - spreads[f] * np.linspace(0.0, 1.0, n))
                   for f in range(count)])
    top, least = sv[:, 0].max(), sv[:, -1].min()
    ratio = least / top
    assume(not INVERTIBILITY_THRESHOLD / 2 < ratio < 2 * INVERTIBILITY_THRESHOLD)
    u, w, q = (unitary_faces(rng, n, n3) for _ in range(3))
    faces = np.einsum("ijf,fj,kjf->ikf", u, sv, w.conj())
    a = from_faces(faces, n3)
    # the block matrix of l = Q and v = Q M is Q^H Q M = M on every face
    l = from_faces(q, n3)
    v = from_faces(np.einsum("ijf,jkf->ikf", q, faces), n3)
    rhs = rng.standard_normal((n, n, n3))
    # the face the rule names, when rounding (about 1e-16 of the largest
    # value) cannot reorder the smallest values
    second = np.sort(sv[:, -1])[1] if count > 1 else np.inf
    named = int(np.argmin(sv[:, -1])) if second > 10 * max(least, 1e-14 * top) else None
    systems = (
        (lambda: tinverse(Tensor3(a)).data, lambda: loop_tinverse(a)),
        (lambda: solve_beta_system(Stack4([l]), Stack4([v]), Tensor3(rhs))[0].data,
         lambda: loop_beta_system([l], [v], rhs)[0]),
    )
    if ratio <= INVERTIBILITY_THRESHOLD:
        assert not is_invertible(Tensor3(a))
        for call, oracle in systems:
            with pytest.raises(SingularFaceError) as got:
                call()
            with pytest.raises(SingularFaceError) as want:
                oracle()
            assert got.value.cond >= 1.0 / INVERTIBILITY_THRESHOLD
            if named is not None:
                assert got.value.face_index == want.value.face_index == named
        return
    assert is_invertible(Tensor3(a))
    # both sides invert faces known to about eps times the largest value, so
    # they agree to eps over the rule's ratio, relative to the result
    for call, oracle in systems:
        got, want = call(), oracle()
        bound = 1e3 * np.finfo(float).eps / ratio * np.linalg.norm(want)
        assert np.linalg.norm(got - want) <= bound


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    n3=st.sampled_from([1, 2, 3, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    rotate=st.booleans(),
    logs=st.lists(st.floats(-16.0, 0.0), min_size=9, max_size=9),
)
@example(n=3, n3=4, seed=0, rotate=False, logs=[0.0, np.log10(0.5), np.log10(5e-11)] * 3)
def test_tubal_rank_below_the_size_means_not_invertible(n, n3, seed, rotate, logs):
    # face f has singular values 10**logs; unrotated faces are diagonal, so
    # the tensor is F-diagonal.  The example (1, 0.5 and 5e-11 on every
    # face) once had tubal rank 2 of 3 while the refusal rule inverted it.
    count = n3 // 2 + 1
    sv = -np.sort(-(10.0 ** np.reshape(logs[: count * n], (count, n))), axis=1)
    if rotate:
        u, w = (unitary_faces(np.random.default_rng(seed), n, n3) for _ in range(2))
        faces = np.einsum("ijf,fj,kjf->ikf", u, sv, w.conj())
    else:
        faces = np.einsum("ij,fj->ijf", np.eye(n), sv)
    a = Tensor3(from_faces(faces, n3))
    if tubal_rank(a) < n:
        assert not is_invertible(a)
        with pytest.raises(SingularFaceError):
            tinverse(a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n3=st.sampled_from([1, 2, 3, 4, 5]),
    seed=st.integers(0, 2**32 - 1),
    deficient=st.booleans(),
    e=st.integers(-100, 100),
)
def test_verdicts_do_not_depend_on_the_input_scale(n3, seed, deficient, e):
    # every rank, definiteness and identity check compares a dimensionless
    # quantity, so scaling the input by c (and a candidate inverse by 1/c)
    # keeps its verdict
    rng = np.random.default_rng(seed)
    n = 3
    if deficient:  # tubal rank n - 1 on every face
        a = tprod(Tensor3(rng.standard_normal((n, n - 1, n3))),
                  Tensor3(rng.standard_normal((n - 1, n, n3))))
    else:
        a = Tensor3(rng.standard_normal((n, n, n3)))
    gram = tprod(ttranspose(a), a)
    tall = tprod(Tensor3(rng.standard_normal((n + 2, n, n3))), a)  # full column rank iff a is
    _, x = ttsvd(a, n)
    binv = None if deficient else left_inverse(Stack5([[tall]])).block(0, 0)

    def verdicts(c):
        grid = Stack5([[c * tall]])
        try:
            left_inverse(grid)
            refused = False
        except SingularFaceError:
            refused = True
        return (
            tubal_rank(c * a),
            bool(is_invertible(c * a)),
            is_positive_definite(c * a),
            is_positive_definite(c * a, semi=True),
            is_positive_definite(c * gram),
            is_positive_definite(c * gram, semi=True),
            refused,
            binv is not None and verify_left_inverse(Stack5([[binv * (1 / c)]]), grid),
            check_moore_penrose(c * a, x * (1 / c)).passed,
        )

    at_one = verdicts(1.0)
    full = not deficient
    assert at_one[:2] == (n - 1 if deficient else n, full)
    assert at_one[4:] == (full, True, deficient, full, True)
    assert verdicts(10.0**e) == at_one


@pytest.mark.parametrize("n3", N3S)
def test_stack_contractions_match_per_slice_loops(n3):
    # k = 1 and wider stacks, with 1 x 1 x n3 blocks and rectangular ones
    for k in (1, 3):
        for p, q in ((1, 1), (3, 2)):
            a = Stack4(rand(p, q, n3) for _ in range(k))
            b = Stack4(rand(q, 2, n3) for _ in range(k))
            assert close(star(a, b), loop_star(a, b).data, 1e-12)

            grid = Stack5(tuple(rand(p, q, n3) for _ in range(2)) for _ in range(k))
            for got, want in zip(star(grid, b), loop_star(grid, b)):
                assert close(got, want.data, 1e-12)

            other = Stack5(tuple(rand(q, 2, n3) for _ in range(2)) for _ in range(k))
            got, want = bar_star(grid, other), loop_bar_star(grid, other)
            assert got.grid_shape == want.grid_shape == (k, k)
            for tau in range(k):
                for eta in range(k):
                    assert close(got.block(tau, eta), want.block(tau, eta).data, 1e-12)

            beta = Stack4(0.3 * rand(p, p, n3) for _ in range(k))
            for got, want in zip(beta_to_gamma(beta), loop_beta_to_gamma(beta)):
                assert close(got, want.data, 1e-12)

            # TTEA's E_k = S_n + sum_i DS_{n+i-1} * beta_i
            terms = [Tensor3(rand(p, q, n3)) for _ in range(2 * k + 1)]
            e_k, betas = ttea_solve(TensorSequence(terms), 0, k, Tensor3(rand(p, q, n3)))
            ds = Stack4(terms[j + 1] - terms[j] for j in range(k))
            assert close(e_k, (terms[0] + loop_star(ds, betas)).data, 1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_input_raises_typed_error(value):
    n3 = 4
    data = rand(4, 4, n3)
    data[1, 2, 3] = value
    a = Tensor3(data)
    ok = Tensor3(rand(4, 4, n3))
    b, x_true = rand(4, 1, n3), rand(4, 1, n3)
    b[1, 0, 1] = x_true[2, 0, 0] = value
    calls = [
        lambda: tinverse(a),
        lambda: is_invertible(a),
        lambda: tls_solve(a, Tensor3(rand(4, 1, n3))),
        lambda: tls_solve(ok, Tensor3(b)),
        lambda: is_positive_definite(a),
        lambda: tsvd(a),
        lambda: ttsvd(a, 2),
        lambda: tubal_rank(a),
        lambda: build_sequence(a, Tensor3(rand(4, 1, n3))),
        lambda: solve(a, Tensor3(rand(4, 1, n3))),
        # a finite operator with a non-finite right-hand side or reference
        lambda: build_sequence(ok, Tensor3(b)),
        lambda: solve(ok, Tensor3(b)),
        lambda: solve(ok, Tensor3(rand(4, 1, n3)), x_true=Tensor3(x_true)),
        lambda: solve_beta_system(Stack4([a]), Stack4([a]), Tensor3(rand(4, 4, n3))),
        lambda: left_inverse(Stack5([[a]])),
        lambda: extrapolate(TensorSequence([Tensor3(rand(4, 4, n3)), a, a + a]), 0, 1, "tmpe"),
        # only the right-hand side of the block system is non-finite
        lambda: extrapolate(TensorSequence([Tensor3(rand(4, 4, n3)) for _ in range(2)] + [a]),
                            0, 1, "tmpe"),
    ]
    with np.errstate(invalid="ignore"):
        for call in calls:
            with pytest.raises(FaceSvdError) as info:
                call()
            assert isinstance(info.value, TextrapError)
            assert info.value.face_index == 0


def test_a_face_routine_that_fails_raises_typed_error():
    # LAPACK can fail on finite faces too (an SVD that does not converge)
    def diverges(faces):
        raise np.linalg.LinAlgError("SVD did not converge")

    with pytest.raises(FaceSvdError, match="diverges failed on the DFT faces"):
        _face_linalg(diverges, np.ones((2, 3, 3)))


@pytest.mark.parametrize("n3", N3S)
def test_faces_follow_the_dft_convention(n3):
    x = rand(3, 4, n3)
    faces = _faces(x)
    want = np.moveaxis(direct_dft_faces(x), 2, 0)[: n3 // 2 + 1]
    assert faces.shape == want.shape
    np.testing.assert_allclose(faces, want, atol=1e-12)
    np.testing.assert_allclose(_unfaces(faces, n3).data, x, atol=1e-12)
    energy = np.sum(_parseval_weights(n3)[:, None, None] * np.abs(faces) ** 2)
    assert energy == pytest.approx(np.sum(x**2), rel=1e-12)
