"""Independent reference implementations used to cross-check the package.

Everything here is deliberately brute force and built on plain numpy
arrays: explicit block placement for the circulant embedding, quadratic
DFT summation, dense pseudoinverses of the embedded matrix, and the
textbook vector-extrapolation formulas in their classical
gamma-parameterized forms.  None of it shares code paths with the
package implementations it is used to validate.

Four sections are exceptions.  The per-face loop forms transform with the
full complex ``fft``, solve one face at a time in a Python loop and mirror
the conjugate faces by hand; they are the references for the package's
batched half-spectrum face kernel.  The per-slice stack contractions sum
one package T-product per block; they are the references for the package's
contractions, each of which is one T-product of concatenated operands.  The
tensor-level TTSVD sequence (one lateral-slice T-product chain per term) and
TRRE-TTSVD step (closed-form beta by T-product inverses, the trace-identity
residual and eta) are built from the package's T-product primitives; they
are the references for the face-domain builder and solver, which share none
of that arithmetic.  The step-by-step k-path loop reads the package's own
sequence faces; it is the reference for the solver's block evaluation, and
its long-double twin the reference for that evaluation's rounding.
"""

from types import SimpleNamespace

import numpy as np

from textrap import (
    DimensionMismatchError,
    InsufficientSequenceError,
    NumericalConsistencyError,
    SingularFaceError,
    Stack4,
    Stack5,
    Tensor3,
    frobenius_norm,
    gamma_to_alpha,
    identity_tensor,
    star,
    tinverse,
    tprod,
    tsvd,
    ttranspose,
)
from textrap.tproduct_algebra import INVERTIBILITY_THRESHOLD
from textrap.trre_tsvd_solver import DEFAULT_THETA_SHIFT
from textrap.tsvd import _pseudo_invert_diagonal


def brute_bcirc(data: np.ndarray) -> np.ndarray:
    """Block-circulant embedding by explicit block placement."""
    n1, n2, n3 = data.shape
    out = np.zeros((n1 * n3, n2 * n3))
    for i in range(n3):
        for j in range(n3):
            out[i * n1 : (i + 1) * n1, j * n2 : (j + 1) * n2] = data[:, :, (i - j) % n3]
    return out


def brute_matvec(data: np.ndarray) -> np.ndarray:
    n1, n2, n3 = data.shape
    out = np.zeros((n1 * n3, n2))
    for i in range(n3):
        out[i * n1 : (i + 1) * n1, :] = data[:, :, i]
    return out


def brute_fold(mat: np.ndarray, dims) -> np.ndarray:
    n1, n2, n3 = dims
    out = np.zeros(dims)
    for i in range(n3):
        out[:, :, i] = mat[i * n1 : (i + 1) * n1, :]
    return out


def brute_tprod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T-product through the circulant embedding, no FFT anywhere."""
    n1 = x.shape[0]
    n2 = y.shape[1]
    n3 = x.shape[2]
    return brute_fold(brute_bcirc(x) @ brute_matvec(y), (n1, n2, n3))


def brute_ttranspose(data: np.ndarray) -> np.ndarray:
    n1, n2, n3 = data.shape
    out = np.zeros((n2, n1, n3))
    out[:, :, 0] = data[:, :, 0].T
    for i in range(1, n3):
        out[:, :, i] = data[:, :, n3 - i].T
    return out


def sampled_positive_definite(data: np.ndarray, semi: bool = False, tol: float = 1e-12,
                              samples: int = 64, rng=None) -> bool:
    """Falsifier for definiteness: evaluates the first entry of the form
    ``x^T * a * x`` on ``samples`` random unit-norm lateral slices and
    returns False at the first value at or below ``tol * |a|`` (strict) or
    below ``-tol * |a|`` (semi).  True only means no sample broke it."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n, _, n3 = data.shape
    scale = np.linalg.norm(data)
    for _ in range(samples):
        x = gen.standard_normal((n, 1, n3))
        x /= np.linalg.norm(x)
        form = brute_tprod(brute_tprod(brute_ttranspose(x), data), x)[0, 0, 0]
        if (form < -tol * scale) if semi else (form <= tol * scale):
            return False
    return True


def direct_dft_faces(data: np.ndarray) -> np.ndarray:
    """Mode-3 DFT by quadratic summation against explicit roots of unity."""
    n3 = data.shape[2]
    out = np.zeros(data.shape, dtype=np.complex128)
    for f in range(n3):
        for m in range(n3):
            out[:, :, f] += data[:, :, m] * np.exp(-2j * np.pi * f * m / n3)
    return out


def bcirc_pinv_tensor(data: np.ndarray) -> np.ndarray:
    """Tensor whose circulant embedding is pinv(bcirc(data)).

    The pseudoinverse of a block circulant is block circulant, so the
    first block column determines the tensor.
    """
    n1, n2, n3 = data.shape
    pinv = np.linalg.pinv(brute_bcirc(data))
    return brute_fold(pinv[:, :n1], (n2, n1, n3))


def bcirc_pinv_apply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution through the dense embedded pseudoinverse."""
    n2 = a.shape[1]
    m = b.shape[1]
    n3 = a.shape[2]
    sol = np.linalg.pinv(brute_bcirc(a)) @ brute_matvec(b)
    return brute_fold(sol, (n2, m, n3))


def face_singular_values(data: np.ndarray) -> np.ndarray:
    """(n3, r) singular values of the DFT faces, via dense numpy svd."""
    faces = np.fft.fft(data, axis=2)
    return np.stack(
        [np.linalg.svd(faces[:, :, f], compute_uv=False) for f in range(data.shape[2])]
    )


# ---------------------------------------------------------------------------
# per-face loop forms (references for the batched half-spectrum face kernel)


def _half(n3: int) -> range:
    """Faces 0 .. n3 // 2; the others are conjugates of these."""
    return range(n3 // 2 + 1)


def _mirror(faces: np.ndarray) -> np.ndarray:
    """Fill faces n3//2 + 1 .. (last axis) with conjugates of their mirrors."""
    n3 = faces.shape[-1]
    for f in range(1, (n3 - 1) // 2 + 1):
        faces[..., n3 - f] = np.conj(faces[..., f])
    return faces


def _inverse_dft(faces: np.ndarray) -> np.ndarray:
    return np.fft.ifft(_mirror(faces), axis=-1).real


def loop_tsvd(data: np.ndarray):
    """(u, s, v, sv) of the tensor SVD, one face SVD at a time; sv is the
    (n3, r) full-spectrum table of face singular values."""
    n1, n2, n3 = data.shape
    r = min(n1, n2)
    faces = np.fft.fft(data, axis=2)
    uf = np.empty((n1, r, n3), dtype=np.complex128)
    vf = np.empty((n2, r, n3), dtype=np.complex128)
    sf = np.zeros((r, r, n3), dtype=np.complex128)
    sv = np.empty((n3, r))
    for f in _half(n3):
        mu, sig, vh = np.linalg.svd(faces[:, :, f], full_matrices=False)
        uf[:, :, f], vf[:, :, f] = mu, vh.conj().T
        sv[f] = sv[(n3 - f) % n3] = sig
    sf[np.arange(r), np.arange(r), :] = sv.T
    return _inverse_dft(uf), _inverse_dft(sf), _inverse_dft(vf), sv


def loop_ttsvd_pinv(data: np.ndarray, k: int, rcond: float = 1e-13) -> np.ndarray:
    """v_k * s_k^+ * u_k^T face by face: the rank-k Moore-Penrose approximation."""
    n1, n2, n3 = data.shape
    faces = np.fft.fft(data, axis=2)
    out = np.empty((n2, n1, n3), dtype=np.complex128)
    for f in _half(n3):
        mu, sig, vh = np.linalg.svd(faces[:, :, f], full_matrices=False)
        inv = np.where(sig[:k] > rcond * sig[0], 1.0 / sig[:k], 0.0)
        out[:, :, f] = (vh[:k].conj().T * inv) @ mu[:, :k].conj().T
    return _inverse_dft(out)


def loop_tls_solve(a: np.ndarray, b: np.ndarray, rcond: float = 1e-13) -> np.ndarray:
    """pinv(face of a) @ face of b, one face at a time."""
    af = np.fft.fft(a, axis=2)
    bf = np.fft.fft(b, axis=2)
    out = np.empty((a.shape[1], b.shape[1], a.shape[2]), dtype=np.complex128)
    for f in _half(a.shape[2]):
        out[:, :, f] = np.linalg.pinv(af[:, :, f], rcond=rcond) @ bf[:, :, f]
    return _inverse_dft(out)


def _refuse_singular(sv: np.ndarray) -> None:
    """The refusal rule on a table of per-face singular values (one row per
    face, rows descending): the face whose smallest singular value is least
    must stay above ``INVERTIBILITY_THRESHOLD`` times the largest singular
    value over all faces, else SingularFaceError names that face, with
    ``cond`` the ratio of the two."""
    worst = int(np.argmin(sv[:, -1]))
    smin, top = sv[worst, -1], np.max(sv[:, 0])
    if smin <= INVERTIBILITY_THRESHOLD * top:
        cond = top / smin if smin > 0 else np.inf
        raise SingularFaceError(f"face {worst} is singular", face_index=worst, cond=cond)


def loop_tinverse(data: np.ndarray) -> np.ndarray:
    """Per-face inverse after the refusal rule (see ``_refuse_singular``)."""
    n3 = data.shape[2]
    faces = np.fft.fft(data, axis=2)
    sv = np.empty((n3, data.shape[0]))
    for f in _half(n3):
        sv[f] = sv[(n3 - f) % n3] = np.linalg.svd(faces[:, :, f], compute_uv=False)
    _refuse_singular(sv)
    out = np.empty_like(faces)
    for f in _half(n3):
        out[:, :, f] = np.linalg.inv(faces[:, :, f])
    return _inverse_dft(out)


def loop_positive_definite(data: np.ndarray, semi: bool = False, tol: float = 1e-12) -> bool:
    """Sign of the smallest eigenvalue of the Hermitian parts of the faces."""
    faces = np.fft.fft(data, axis=2)
    eig_min, scale = np.inf, 0.0
    for f in _half(data.shape[2]):
        h = faces[:, :, f]
        w = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
        eig_min = min(eig_min, float(w[0]))
        scale = max(scale, float(np.max(np.abs(w))))
    return eig_min >= -tol * scale if semi else eig_min > tol * scale


def loop_beta_system(l, v, rhs) -> list:
    """Solve sum_j (l_i^T * v_j) * beta_j = -(l_i^T * rhs) one face at a
    time, after the refusal rule on the block matrices of all faces (see
    ``_refuse_singular``)."""
    k = len(l)
    n3 = rhs.shape[2]
    q, m = l[0].shape[1], rhs.shape[1]
    lf = [np.fft.fft(x, axis=2) for x in l]
    vf = [np.fft.fft(x, axis=2) for x in v]
    rf = np.fft.fft(rhs, axis=2)
    bigs, rights = [], []
    for f in _half(n3):
        bigs.append(np.block([[lf[i][:, :, f].conj().T @ vf[j][:, :, f] for j in range(k)]
                              for i in range(k)]))
        rights.append(np.vstack([-lf[i][:, :, f].conj().T @ rf[:, :, f] for i in range(k)]))
    _refuse_singular(np.array([np.linalg.svd(big, compute_uv=False) for big in bigs]))
    xf = np.empty((k * q, m, n3), dtype=np.complex128)
    for f in _half(n3):
        xf[:, :, f] = np.linalg.solve(bigs[f], rights[f])
    sol = _inverse_dft(xf)
    return [sol[j * q : (j + 1) * q] for j in range(k)]


def loop_left_inverse(grid, tol: float = 1e-8):
    """Blocks of the grid left inverse from per-face pseudoinverses of the
    stacked face matrices; ``grid[tau][j]`` is block (tau, j).  The first
    face whose left-identity residual exceeds ``tol`` raises."""
    k, ell = len(grid), len(grid[0])
    n1, n2, n3 = grid[0][0].shape
    bf = [[np.fft.fft(x, axis=2) for x in row] for row in grid]
    out = np.empty((k * n2, ell * n1, n3), dtype=np.complex128)
    for f in _half(n3):
        stacked = np.block([[bf[tau][j][:, :, f] for tau in range(k)] for j in range(ell)])
        pinv = np.linalg.pinv(stacked)
        if np.linalg.norm(pinv @ stacked - np.eye(k * n2)) > tol:
            raise SingularFaceError(f"face {f} block system is rank-deficient", face_index=f)
        out[:, :, f] = pinv
    sol = _inverse_dft(out)
    return [[sol[eta * n2 : (eta + 1) * n2, j * n1 : (j + 1) * n1] for j in range(ell)]
            for eta in range(k)]


# ---------------------------------------------------------------------------
# per-slice stack contractions (references for the one-product forms)


def loop_star(a, b: Stack4):
    """``sum_j a[j] * b[j]`` for a Stack4 ``a``; for a Stack5 ``a`` the
    Stack4 whose slice i is ``sum_j a.block(j, i) * b[j]``."""
    if isinstance(a, Stack4):
        total = tprod(a[0], b[0])
        for aj, bj in zip(a[1:], b[1:]):
            total = total + tprod(aj, bj)
        return total
    k, ell = a.grid_shape
    out = []
    for i in range(ell):
        total = tprod(a.block(0, i), b[0])
        for j in range(1, k):
            total = total + tprod(a.block(j, i), b[j])
        out.append(total)
    return Stack4(out)


def loop_bar_star(a: Stack5, b: Stack5) -> Stack5:
    """The k x k grid with ``block(tau, eta) = sum_j a.block(eta, j) * b.block(tau, j)``."""
    k, ell = a.grid_shape
    rows = []
    for tau in range(k):
        row = []
        for eta in range(k):
            total = tprod(a.block(eta, 0), b.block(tau, 0))
            for j in range(1, ell):
                total = total + tprod(a.block(eta, j), b.block(tau, j))
            row.append(total)
        rows.append(tuple(row))
    return Stack5(rows)


def loop_beta_to_gamma(beta: Stack4) -> Stack4:
    """``gamma_i = beta_i * inv(I + sum beta)`` one slice at a time, then the inverse."""
    q, _, n3 = beta.dims
    total = identity_tensor(q, n3)
    for b in beta:
        total = total + b
    inv = tinverse(total)
    return Stack4([tprod(b, inv) for b in beta] + [inv])


# ---------------------------------------------------------------------------
# classical vector extrapolation (the n3 = 1, width-1 reduction targets)


def _gamma_to_extrapolant(terms, n, gamma):
    return sum(g * terms[n + j] for j, g in enumerate(gamma))


def classical_mpe(terms, n: int, k: int) -> np.ndarray:
    """Minimal-polynomial extrapolation: least squares on the differences
    with the last coefficient fixed to one, then normalized."""
    u = np.column_stack([terms[n + j + 1] - terms[n + j] for j in range(k + 1)])
    c, *_ = np.linalg.lstsq(u[:, :k], -u[:, k], rcond=None)
    c = np.append(c, 1.0)
    gamma = c / c.sum()
    return _gamma_to_extrapolant(terms, n, gamma)


def classical_rre(terms, n: int, k: int) -> np.ndarray:
    """Reduced-rank extrapolation: minimize the combined difference subject
    to the coefficients summing to one (KKT system)."""
    u = np.column_stack([terms[n + j + 1] - terms[n + j] for j in range(k + 1)])
    g = u.T @ u
    kkt = np.zeros((k + 2, k + 2))
    kkt[: k + 1, : k + 1] = g
    kkt[: k + 1, k + 1] = 1.0
    kkt[k + 1, : k + 1] = 1.0
    rhs = np.zeros(k + 2)
    rhs[k + 1] = 1.0
    gamma = np.linalg.solve(kkt, rhs)[: k + 1]
    return _gamma_to_extrapolant(terms, n, gamma)


def classical_mmpe(terms, n: int, k: int, qs) -> np.ndarray:
    """Modified MPE: project the difference equation on fixed vectors."""
    u = np.column_stack([terms[n + j + 1] - terms[n + j] for j in range(k + 1)])
    proj = np.column_stack(qs).T
    c = np.linalg.solve(proj @ u[:, :k], -(proj @ u[:, k]))
    c = np.append(c, 1.0)
    gamma = c / c.sum()
    return _gamma_to_extrapolant(terms, n, gamma)


def classical_tea(terms, n: int, k: int, y) -> np.ndarray:
    """Topological Shanks transform via the moment system: coefficients sum
    to one and annihilate the moments mu_m = <y, delta term>."""
    mu = np.array([float(y @ (terms[n + m + 1] - terms[n + m])) for m in range(2 * k)])
    sys = np.zeros((k + 1, k + 1))
    sys[0, :] = 1.0
    for i in range(k):
        sys[i + 1, :] = mu[i : i + k + 1]
    rhs = np.zeros(k + 1)
    rhs[0] = 1.0
    gamma = np.linalg.solve(sys, rhs)
    return _gamma_to_extrapolant(terms, n, gamma)


def matrix_rre_on_tsvd(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Matrix-case oracle: RRE applied to the truncated-SVD partial sums
    S_0 = 0, S_1, ..., S_{k+1}."""
    u, s, vt = np.linalg.svd(a)
    terms = [np.zeros(a.shape[1])]
    for j in range(k + 1):
        terms.append(terms[-1] + (u[:, j] @ b / s[j]) * vt[j, :])
    return classical_rre(terms, 0, k)


def plain_truncation_errors(a: np.ndarray, b: np.ndarray, x_true: np.ndarray):
    """Relative errors of every plain truncated solution, by face-wise
    dense SVD accumulation (the exhaustive-sweep oracle)."""
    n1, n2, n3 = a.shape
    af = np.fft.fft(a, axis=2)
    bf = np.fft.fft(b, axis=2)
    r = min(n1, n2)
    svds = [np.linalg.svd(af[:, :, f]) for f in range(n3)]
    partial = np.zeros((n2, b.shape[1], n3), dtype=np.complex128)
    errors = []
    scale = np.linalg.norm(x_true)
    for j in range(r):
        for f, (u, s, vh) in enumerate(svds):
            if s[j] > s[0] * 1e-13:
                partial[:, :, f] += np.outer(vh[j].conj(), u[:, j].conj() @ bf[:, :, f]) / s[j]
        spatial = np.fft.ifft(partial, axis=2).real
        errors.append(np.linalg.norm(spatial - x_true) / scale)
    return errors


# ---------------------------------------------------------------------------
# tensor-level TRRE-TTSVD step (reference for the face-domain solver)


def loop_build_sequence(a: Tensor3, b: Tensor3, k_max=None) -> SimpleNamespace:
    """The TTSVD sequence one term at a time in the time domain: delta_j =
    d_j^+ * u_j^T * b and v_j * delta_j by package T-products of lateral
    slices, a term dropped when its delta is exactly zero, and the partial
    sums accumulated tensor by tensor.  Reference for ``build_sequence``."""
    n3 = a.n3
    limit = min(a.n1, a.n2) if k_max is None else min(int(k_max), a.n1, a.n2)
    factors = tsvd(a)
    inv_sv = _pseudo_invert_diagonal(factors.face_singular_values[: n3 // 2 + 1])
    d_dag = Tensor3(np.fft.irfft(inv_sv[:, :limit], n=n3, axis=0).T[None])
    deltas, sdeltas, kept = [], [], []
    for j in range(limit):
        uj = factors.u.lateral_slice(j)
        delta = tprod(tprod(d_dag.lateral_slice(j), ttranspose(uj)), b)
        if frobenius_norm(delta) == 0.0:
            continue
        deltas.append(delta)
        sdeltas.append(tprod(factors.v.lateral_slice(j), delta))
        kept.append(j + 1)
    partial_sums = [Tensor3.zeros(a.n2, b.n2, n3)]
    for ds in sdeltas:
        partial_sums.append(partial_sums[-1] + ds)
    return SimpleNamespace(
        deltas=deltas, sdeltas=sdeltas, partial_sums=partial_sums, kept_indices=tuple(kept)
    )


def sequence_thetas(state) -> list:
    """Theta_j = delta_j^T * delta_j for every retained term of the state."""
    return [tprod(ttranspose(d), d) for d in state.deltas]

def _checked_inverse(theta: Tensor3, shift) -> Tensor3:
    eye = identity_tensor(theta.n1, theta.n3)
    shifted = theta if not shift else theta + float(shift) * eye
    inv = tinverse(shifted)
    # left and right T-product inverses coincide for square tensors; assert
    # commutation as a structural sanity check (tolerance scales with the
    # conditioning proxy |theta| |inv|)
    drift = frobenius_norm(tprod(shifted, inv) - tprod(inv, shifted))
    limit = 1e-8 * (1.0 + frobenius_norm(shifted) * frobenius_norm(inv))
    if drift > limit:
        raise NumericalConsistencyError(
            f"left/right inverse mismatch {drift:.3e} exceeds {limit:.3e}"
        )
    return inv


def closed_form_beta(thetas, k: int, shift=DEFAULT_THETA_SHIFT) -> Stack4:
    """Closed-form coefficients ``beta_i = inv(Theta_{i+1}) * Theta_{k+1}``.

    ``thetas`` lists Theta_1, Theta_2, ... (0-based storage); ``k+1`` of
    them are consumed.  Each inverse is taken after adding ``shift`` times
    the identity (``shift=None`` requires exact invertibility, and a
    singular Theta raises).
    """
    if k < 1 or len(thetas) < k + 1:
        raise InsufficientSequenceError(
            f"closed-form beta at width {k} needs {k + 1} theta terms, have {len(thetas)}"
        )
    last = thetas[k]
    return Stack4(tprod(_checked_inverse(thetas[i], shift), last) for i in range(k))


def trre_tsvd_step(state, k: int, shift=DEFAULT_THETA_SHIFT):
    """One reduced-rank step on the TTSVD sequence: returns (T_k, gamma, alpha).

    beta comes from the closed form; gamma normalizes by ``inv(sum beta + I)``
    with the final slice taken as ``I - sum gamma`` so the telescoped alpha
    is exactly consistent; ``T_k = sum_j DS_j * alpha_j`` (the S_0 term
    vanishes because S_0 = 0).
    """
    if state.count < k + 1:
        raise InsufficientSequenceError(
            f"step k={k} needs k+1={k + 1} sequence terms, state has {state.count}"
        )
    beta = closed_form_beta(sequence_thetas(state), k, shift)
    s = beta.dims[0]
    n3 = beta.dims[2]
    eye = identity_tensor(s, n3)
    total = eye
    for bi in beta:
        total = total + bi
    inv_total = tinverse(total)
    gammas = [tprod(bi, inv_total) for bi in beta]
    tail = eye
    for g in gammas:
        tail = tail - g
    gammas.append(tail)
    gamma = Stack4(gammas)
    alpha = gamma_to_alpha(gamma)
    t_k = star(Stack4(state.sdeltas[:k]), alpha)
    return t_k, gamma, alpha


def _first_slice_trace(t: Tensor3) -> float:
    return float(np.trace(t.data[:, :, 0]))


def residual_norm(thetas, gamma: Stack4, k: int, tol: float = 1e-10) -> float:
    """Residual norm from the trace identity ``|R|^2 = tr((Theta_k * gamma_{k-1})_1)``.

    A slightly negative trace within ``-tol`` is clamped to zero; anything
    more negative means the inputs are inconsistent and raises.
    """
    if k < 1 or len(thetas) < k:
        raise InsufficientSequenceError(f"residual norm at k={k} needs Theta_{k}")
    if gamma.count < k:
        raise DimensionMismatchError(f"gamma holds {gamma.count} slices, need >= {k}")
    tr = _first_slice_trace(tprod(thetas[k - 1], gamma[k - 1]))
    if tr < -tol:
        raise NumericalConsistencyError(
            f"residual trace {tr:.3e} is negative beyond -{tol:.1e}"
        )
    return float(np.sqrt(max(tr, 0.0)))


def eta_ratio(state, t_k: Tensor3, t_k1: Tensor3, alphas_k: Stack4, alphas_k1: Stack4) -> float:
    """Relative change ``|T_{k+1} - T_k| / |T_k|`` from Theta traces.

    ``alphas_k`` and ``alphas_k1`` are the alpha stacks of the consecutive
    steps (k and k+1 slices).  Both norms are evaluated through the
    quadratic-form identities ``|T|^2 = sum_j tr((alpha_{j-1}^T * Theta_j *
    alpha_{j-1})_1)`` and its difference analogue, never by expanding the
    extrapolants.  The direct ratio of the extrapolants is what the solver
    reports; at late k the two can differ well beyond rounding.
    """
    k = alphas_k.count
    if alphas_k1.count != k + 1:
        raise DimensionMismatchError(
            f"alpha stacks must have consecutive widths, got {k} and {alphas_k1.count}"
        )
    thetas = sequence_thetas(state)
    if len(thetas) < k + 1:
        raise InsufficientSequenceError(f"eta at width {k} needs {k + 1} theta terms")
    if frobenius_norm(t_k) == 0.0:
        raise NumericalConsistencyError("eta undefined: previous extrapolant has zero norm")

    def quad(theta: Tensor3, left: Tensor3, right: Tensor3) -> float:
        return _first_slice_trace(tprod(tprod(ttranspose(left), theta), right))

    num_sq = quad(thetas[k], alphas_k1[k], alphas_k1[k])
    den_sq = 0.0
    for j in range(k):
        diff = alphas_k1[j] - alphas_k[j]
        num_sq += quad(thetas[j], diff, diff)
        den_sq += quad(thetas[j], alphas_k[j], alphas_k[j])
    guard = 1e-10 * max(1.0, frobenius_norm(t_k) ** 2, frobenius_norm(t_k1) ** 2)
    if num_sq < -guard or den_sq < -guard:
        raise NumericalConsistencyError(
            f"eta traces came out negative (num {num_sq:.3e}, den {den_sq:.3e})"
        )
    den_sq = max(den_sq, 0.0)
    if den_sq == 0.0:
        raise NumericalConsistencyError("eta undefined: trace norm of T_k is zero")
    return float(np.sqrt(max(num_sq, 0.0) / den_sq))


def trre_tsvd_path(state, shift=DEFAULT_THETA_SHIFT, x_true=None) -> dict:
    """The solver's per-k history by the tensor-level step, run to the end
    with no stopping test: for k = 2 .. count-1 the extrapolant, the
    trace-identity residual, the direct eta ratio, the extrapolant norm and
    (with ``x_true``) the relative error.  The k = 1 row is S_1."""
    out = {"ks": [1], "t": [state.partial_sums[1]], "residual_norms": [None],
           "eta_ratios": [None]}
    thetas = sequence_thetas(state)
    for k in range(2, state.count):
        t_k, gamma, _ = trre_tsvd_step(state, k, shift)
        t_prev = out["t"][-1]
        out["ks"].append(k)
        out["t"].append(t_k)
        out["residual_norms"].append(residual_norm(thetas, gamma, k))
        out["eta_ratios"].append(frobenius_norm(t_k - t_prev) / frobenius_norm(t_prev))
    out["t_norms"] = [frobenius_norm(t) for t in out["t"]]
    if x_true is not None:
        scale = frobenius_norm(x_true)
        out["errors"] = [frobenius_norm(t - x_true) / scale for t in out["t"]]
    return out



def loop_solve_path(state, tol_eps, shift=DEFAULT_THETA_SHIFT, x_true=None) -> dict:
    """``solve``'s k-path one step at a time on the state's half-spectrum
    faces: the running prefix sums updated per k, three Parseval norms per
    step, and the stop tested after each step.  Step k raises
    ``SingularFaceError`` when one of Theta_1 .. Theta_k is singular by the
    ``tinverse`` rule.  Returns the per-k columns, ``stop_reason`` and the
    final ``t_k``.  Reference for the one-pass evaluation in ``solve``."""
    n3 = state.factors.u.n3
    deltas = state.delta_faces[:, :, 0, 0]
    theta = deltas.real**2 + deltas.imag**2
    sums = state.sum_faces[..., 0]
    shifted = theta + float(shift) if shift else theta
    singular = shifted.min(axis=1) <= INVERTIBILITY_THRESHOLD * shifted.max(axis=1)
    with np.errstate(divide="ignore"):
        weights = 1.0 / shifted
    parseval = np.full(n3 // 2 + 1, 2.0 / n3)
    parseval[0] = 1.0 / n3
    if n3 % 2 == 0:
        parseval[-1] = 1.0 / n3

    def norm(faces):
        return float(np.sqrt(np.sum(parseval[:, None] * (faces.real**2 + faces.imag**2))))

    x_faces = scale = None
    if x_true is not None:
        x_faces = np.fft.rfft(x_true.data[:, 0], axis=-1).T
        scale = frobenius_norm(x_true)
    out = {"ks": [], "residual_norms": [], "eta_ratios": [], "t_norms": [], "errors": []}

    def record(k, t, res, eta):
        t_norm = norm(t)
        out["ks"].append(k)
        out["residual_norms"].append(res)
        out["eta_ratios"].append(eta)
        out["t_norms"].append(t_norm)
        if x_faces is None:
            out["errors"].append(None)
        else:
            out["errors"].append(norm(t - x_faces) / scale if scale > 0 else t_norm)
        return t_norm

    t_prev = sums[1]
    prev_norm = record(1, t_prev, None, None)
    out["stop_reason"] = "k_max"
    weighted = np.zeros_like(t_prev)
    weight_sum = weights[0]
    for k in range(2, state.count):
        if singular[:k].any():
            j = int(np.argmax(singular))
            face = int(np.argmin(shifted[j]))
            smin, top = float(shifted[j, face]), float(np.max(shifted[j]))
            raise SingularFaceError(
                f"Theta_{j + 1} at step k={k}: face {face} is singular to working "
                f"precision (min sv {smin:.3e}, global max sv {top:.3e})",
                face_index=face,
                cond=top / smin if smin > 0 else np.inf,
            )
        weighted += weights[k - 1, :, None] * sums[k - 1]
        weight_sum = weight_sum + weights[k - 1]
        den = 1.0 + theta[k] * weight_sum
        t_k = (sums[k] + theta[k, :, None] * weighted) / den[:, None]
        res = float(np.sqrt(np.sum(parseval * theta[k - 1] * weights[k - 1] * theta[k] / den)))
        eta = norm(t_k - t_prev) / prev_norm
        prev_norm = record(k, t_k, res, eta)
        t_prev = t_k
        if min(res, eta) < tol_eps:
            out["stop_reason"] = "tolerance"
            break
    out["t_k"] = Tensor3(np.fft.irfft(t_prev, n=n3, axis=0).T[:, None, :])
    return out


def ld_solve_path(state, tol_eps, shift=DEFAULT_THETA_SHIFT) -> dict:
    """``solve``'s partial-sum k-path evaluated in ``np.longdouble`` from the
    state's float64 faces, one step at a time: with theta_j = |delta_j(f)|^2
    and W_j = 1 / (theta_j + shift), ``T_k = (S_k + theta_{k+1} sum_{j<k}
    W_{j+1} S_j) / den_k`` and ``den_k = 1 + theta_{k+1} sum_{j<=k} W_j``,
    every weight, prefix sum, extrapolant and Parseval norm carried in
    extended precision.  It is the reference for how far the float64 path is
    from the exact one on the same inputs; it does not test the Thetas for
    singularity.

    Stops at the first k with ``min(res, eta) < tol_eps``, else at the last
    term.  Returns long-double per-k ``ks``, ``residual_norms`` and
    ``eta_ratios`` (None at k = 1), ``t_norms``, the extrapolants ``t`` as
    (n2, 1, n3) arrays, ``scales`` and ``stop_reason``.  ``scales[k - 1]``
    is the norm of the terms T_k sums, |S_k| + theta_{k+1} sum_{j<k} W_{j+1}
    |S_j| over den_k, per face: rounding in a sum of them is relative to it.
    """
    ld = np.longdouble
    n3 = state.factors.u.n3
    deltas = state.delta_faces[:, :, 0, 0].astype(np.clongdouble)
    theta = deltas.real**2 + deltas.imag**2
    sums = state.sum_faces[..., 0].astype(np.clongdouble)
    weights = 1 / (theta + ld(shift or 0))
    parseval = np.full(n3 // 2 + 1, 2 / ld(n3))
    parseval[0] = 1 / ld(n3)
    if n3 % 2 == 0:
        parseval[-1] = 1 / ld(n3)

    def face_norms(faces):
        return np.sqrt(np.sum(faces.real**2 + faces.imag**2, axis=-1))

    def norm(per_face):  # the tensor norm from the norms of its faces
        return np.sqrt(np.sum(parseval * per_face**2))

    def tensor(faces):
        return np.fft.irfft(faces, n=n3, axis=0).T[:, None, :]

    sizes = face_norms(sums)
    out = {"ks": [1], "residual_norms": [None], "eta_ratios": [None], "t": [tensor(sums[1])],
           "t_norms": [norm(sizes[1])], "scales": [norm(sizes[1])], "stop_reason": "k_max"}
    t_prev, weighted, weighted_sizes = sums[1], np.zeros_like(sums[1]), np.zeros_like(sizes[1])
    weight_sum = weights[0]
    for k in range(2, state.count):
        weighted = weighted + weights[k - 1, :, None] * sums[k - 1]
        weighted_sizes = weighted_sizes + weights[k - 1] * sizes[k - 1]
        weight_sum = weight_sum + weights[k - 1]
        den = 1 + theta[k] * weight_sum
        t_k = (sums[k] + theta[k, :, None] * weighted) / den[:, None]
        res = np.sqrt(np.sum(parseval * theta[k - 1] * weights[k - 1] * theta[k] / den))
        eta = norm(face_norms(t_k - t_prev)) / norm(face_norms(t_prev))
        out["ks"].append(k)
        out["residual_norms"].append(res)
        out["eta_ratios"].append(eta)
        out["t"].append(tensor(t_k))
        out["t_norms"].append(norm(face_norms(t_k)))
        out["scales"].append(norm((sizes[k] + theta[k] * weighted_sizes) / den))
        t_prev = t_k
        if min(res, eta) < tol_eps:
            out["stop_reason"] = "tolerance"
            break
    return out


# ---------------------------------------------------------------------------
# operators with a prescribed face spectrum


def spectral_operator(sv: np.ndarray, n3: int, rng) -> tuple[Tensor3, np.ndarray]:
    """A real n x n x n3 tensor whose half-spectrum face f is
    ``U_f diag(sv[f]) V_f^H`` with random unitary ``U_f`` and ``V_f`` (real
    on face 0 and, for even n3, on face n3/2, so that the tensor is real).
    ``sv`` has shape (n3 // 2 + 1, n); returns the tensor and the faces
    ``V_f`` (F, n, n), whose columns are its right singular vectors."""
    faces, n = sv.shape
    z = rng.standard_normal((2, faces, n, n)) + 1j * rng.standard_normal((2, faces, n, n))
    z[:, 0] = z[:, 0].real
    if n3 % 2 == 0:
        z[:, -1] = z[:, -1].real
    u, v = np.linalg.qr(z[0])[0], np.linalg.qr(z[1])[0]
    a_faces = (u * sv[:, None, :]) @ v.conj().swapaxes(1, 2)
    return Tensor3(np.fft.irfft(a_faces, n=n3, axis=0).transpose(1, 2, 0)), v
