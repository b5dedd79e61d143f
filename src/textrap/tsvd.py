"""Tensor SVD, truncation, tubal rank, and minimum-norm least squares.

The decomposition is an ordinary SVD of every DFT face: one batched
``np.linalg.svd`` over the real-FFT half spectrum (faces ``0 .. n3 // 2``,
see :mod:`textrap.tensor_core`), whose factors are transformed back along
mode 3 so that ``a = u * s * v^T`` holds under the T-product.  The other
faces are the conjugates of these, so the inverse transform is real by
construction.  Factors are kept in economy form: ``u`` is n1 x r x n3,
``s`` is r x r x n3 and F-diagonal, ``v`` is n2 x r x n3, with
``r = min(n1, n2)`` in the full case.  Column slices of ``u`` and ``v``
are orthonormal under the T-scalar product; ``u`` and ``v`` are orthogonal
tensors outright whenever they are square.  Truncation (before anything is
transformed back), least squares and the grid left inverse of
:mod:`textrap.stack_products` use the same face SVD, and every pseudo-inverse
is ``v s^+ u^H`` on the faces with the one ``PINV_RCOND`` cutoff.

A tolerance-stopped solve first tries the leading singular triplets only:
the private ``_leading_tsvd`` gets them from a randomized range finder on
the same half-spectrum faces and decomposes the small projection by an
R-SVD on the faces, so no factor is transformed back until it returns
ordinary ``TsvdFactors``, together with how many of its leading triplets
can be trusted.

That per-face work (the power steps, the R-SVD and the triplet residuals)
runs through ``tensor_core._face_split``: the faces are split into
min(F, usable CPUs) contiguous ranges, the calling thread runs one and a
persistent pool of helper threads the others.  The CPU count is the
process's CPU affinity; there is no option, and on one CPU the same code
runs a single range on the calling thread.  Each face goes through the same
numpy calls as without the split, so the results are bit-identical for any
CPU count (at one BLAS thread setting: BLAS may round differently with
another).  BLAS threads multiply with these threads: n BLAS threads per
call may mean n x (usable CPUs) threads in all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError
from .tensor_core import (
    Tensor3,
    TubalScalar,
    _adjoint,
    _face_linalg,
    _face_split,
    _faces,
    _full_spectrum,
    _require_finite,
    _require_int,
    _unfaces,
    frobenius_norm,
    identity_tensor,
    read_tns3,
    write_tns3,
)
from .tproduct_algebra import tprod, ttranspose

__all__ = [
    "TsvdFactors",
    "tsvd",
    "ttsvd",
    "truncated_expansion",
    "tls_solve",
    "tubal_rank",
    "save_factors",
    "load_factors",
    "PINV_RCOND",
]

#: relative cutoff for pseudo-inverting singular values, per face:
#: entries at or below PINV_RCOND * (largest singular value of that face)
#: map to zero
PINV_RCOND = 1e-13

#: seed of the fixed Gaussian test tensor of ``_leading_tsvd``
_TEST_TENSOR_SEED = 0
#: trailing triplets of ``_leading_tsvd`` that are never trusted: the
#: range finder resolves the last columns of its test tensor worst (at
#: 10 ** -0.26 per index, 64 x 64 x 2, singular values 1 .. 12 agree with the
#: full T-SVD to 2e-15 of the largest, 13 misses by 2.7e-11), and the
#: deviation bounds of Halko, Martinsson and Tropp (SIAM Review 53, 2011,
#: Section 10.3) assume an oversampling of at least 4
_MARGIN = 4
#: power steps of ``_leading_tsvd``: with one, triplet 11 of 20 smooth
#: 128 x 128 x 32 benchmark operators (10 ** -0.5 per index) had residuals up
#: to 1.5e-13 x the face's largest singular value, above the trust bound; with
#: two, triplets 1 .. 13 stay below 1.1e-14
_POWER_STEPS = 2


@dataclass(frozen=True)
class TsvdFactors:
    """Factors of a (possibly truncated) tensor SVD.

    Attributes
    ----------
    u, s, v : Tensor3
        ``u`` is n1 x r x n3, ``s`` is r x r x n3 F-diagonal with
        nonincreasing diagonal tubes, ``v`` is n2 x r x n3.
    r : int
        Number of retained singular triplets.
    face_singular_values : numpy.ndarray
        Shape (n3, r); row f holds the retained singular values of DFT
        face f, sorted descending.
    """

    u: Tensor3
    s: Tensor3
    v: Tensor3
    r: int
    face_singular_values: np.ndarray

    def reconstruction(self) -> Tensor3:
        """``u * s * v^T`` under the T-product."""
        return tprod(tprod(self.u, self.s), ttranspose(self.v))

    def orthogonality_residual(self) -> float:
        """Worst deviation of the factors from orthonormal columns.

        Measures ``u^T * u - I`` and ``v^T * v - I`` always, and the
        two-sided products as well when the factor is square.
        """
        residuals = []
        for q in (self.u, self.v):
            qt = ttranspose(q)
            eye = identity_tensor(q.n2, q.n3)
            residuals.append(frobenius_norm(tprod(qt, q) - eye))
            if q.n1 == q.n2:
                residuals.append(frobenius_norm(tprod(q, qt) - eye))
        return max(residuals)

    def f_diagonality_residual(self) -> float:
        """Largest off-diagonal magnitude over the frontal slices of ``s``."""
        off = self.s.data.copy()
        idx = np.arange(self.r)
        off[idx, idx, :] = 0.0
        return float(np.max(np.abs(off))) if off.size else 0.0


def _diagonal(values: np.ndarray, n3: int) -> Tensor3:
    """The r x r x n3 F-diagonal tensor whose diagonal tubes have the
    half-spectrum faces ``values`` (shape (F, r))."""
    r = values.shape[1]
    data = np.zeros((r, r, n3))
    data[np.arange(r), np.arange(r), :] = np.fft.irfft(values, n=n3, axis=0).T
    return Tensor3(data)


def _face_svd(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD of every face of an (F, m, n) stack: ``(uf, sv, vf)`` of
    shapes (F, m, r), (F, r) and (F, n, r) with ``face = uf sv vf^H`` and
    each row of ``sv`` sorted descending."""
    uf, sv, vh = _face_linalg(np.linalg.svd, faces, full_matrices=False)
    return uf, sv, _adjoint(vh)


def _pseudo_invert_diagonal(sv: np.ndarray) -> np.ndarray:
    """Per-face reciprocals of the singular values ``sv`` (F, k), rows sorted
    descending; entries at or below ``PINV_RCOND`` times the face maximum map
    to zero.  This is the one place the cutoff is applied."""
    out = np.zeros_like(sv)
    keep = sv > PINV_RCOND * sv[:, :1]
    out[keep] = 1.0 / sv[keep]
    return out


def _face_pinv(uf: np.ndarray, sv: np.ndarray, vf: np.ndarray) -> np.ndarray:
    """Pseudo-inverse faces ``(vf s^+) @ uf^H`` of :func:`_face_svd` factors,
    possibly truncated to their leading columns."""
    return (vf * _pseudo_invert_diagonal(sv)[:, None, :]) @ _adjoint(uf)


def _time_factors(uf: np.ndarray, sv: np.ndarray, vf: np.ndarray, n3: int) -> TsvdFactors:
    """The time-domain factors of half-spectrum face factors."""
    # v before u: u first made solve() ~8 % slower at 128x128x32, an allocator
    # effect (gone with malloc's trim and mmap thresholds pinned)
    v = _unfaces(vf, n3)
    return TsvdFactors(
        u=_unfaces(uf, n3),
        s=_diagonal(sv, n3),
        v=v,
        r=sv.shape[1],
        face_singular_values=_full_spectrum(sv, n3),
    )


def tsvd(a: Tensor3) -> TsvdFactors:
    """Full tensor SVD: ``a = u * s * v^T`` with r = min(n1, n2) triplets."""
    return _time_factors(*_face_svd(_faces(a.data)), a.n3)


def _range_finder(af: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, ...]:
    """The per-face body of :func:`_leading_tsvd` on a range of faces: for
    operator faces ``af`` and test-tensor faces ``omega``, the face factors
    ``(uf, sv, vf)`` of the leading triplets and their residuals
    ``|A_f v_j - s_j u_j|``, shape (F, p)."""
    if not (af[0].flags.c_contiguous or af[0].flags.f_contiguous):
        # strided faces (those of a C-ordered operator) would run every
        # product below on numpy's own loops instead of BLAS
        af = np.ascontiguousarray(af)
    q = np.linalg.qr(af @ omega)[0]
    for _ in range(_POWER_STEPS):
        # A^H Q as (Q^H A)^H, so that A's faces are never copied
        q = np.linalg.qr(af @ _adjoint(_adjoint(q) @ af))[0]
    pf, rf = np.linalg.qr(_adjoint(_adjoint(q) @ af))
    ur, sv, vr = _face_svd(_adjoint(rf))
    uf, vf = q @ ur, pf @ vr
    # a helper thread's malloc arena keeps its peak, so free what is done
    del q, pf
    return uf, sv, vf, np.linalg.norm(af @ vf - uf * sv[:, None, :], axis=1)


def _leading_tsvd(a: Tensor3, p: int) -> tuple[TsvdFactors, int]:
    """The leading ``p`` singular triplets of every face of ``a``, and how
    many of them are trusted.

    A randomized range finder (Halko, Martinsson and Tropp, SIAM Review 53,
    2011) on the half-spectrum faces ``A_f`` of ``a``, formed once; in
    T-product terms the randomized t-SVD of Zhang, Saibaba, Kilmer and Aeron
    (Numer. Linear Algebra Appl. 25, 2018).  ``Y_f = A_f Omega_f`` for a
    fixed-seed real Gaussian n2 x p x n3 tensor ``Omega`` (real, so faces 0
    and n3/2 stay real) and a QR, then ``_POWER_STEPS`` power steps
    ``A_f (A_f^H Q_f)``, each followed by a QR, give an orthonormal ``Q``.
    The projection ``B_f = Q_f^H A_f`` is decomposed on the faces by Chan's
    R-SVD (ACM TOMS 8, 1982): a QR ``B_f^H = P_f R_f`` and the SVD
    ``R_f^H = U_R S V_R^H`` of a p x p face give ``u = Q U_R`` and
    ``v = P V_R``.  The result does not depend on numpy's global random
    state, and repeated calls give identical bits.

    Triplet j is trusted when ``|A_f v_j - s_j u_j|`` is at most
    ``PINV_RCOND`` times the largest singular value of face f on every face
    (it is then an exact triplet of a perturbation of ``a`` below the
    pseudo-inverse cutoff) and it lies at least ``_MARGIN`` before ``p``;
    the count is of the leading run of trusted triplets.
    """
    n3 = a.n3
    omega = _faces(np.random.default_rng(_TEST_TENSOR_SEED).standard_normal((a.n2, p, n3)))
    uf, sv, vf, residual = _face_split(_range_finder, _faces(a.data), omega)
    ok = (residual <= PINV_RCOND * sv[:, :1]).all(axis=0)
    trusted = min(int(np.logical_and.accumulate(ok).sum()), p - _MARGIN)
    return _time_factors(uf, sv, vf, n3), trusted


def ttsvd(a: Tensor3, k: int) -> tuple[TsvdFactors, Tensor3]:
    """Truncated tensor SVD plus the rank-k Moore-Penrose approximation.

    Keeps the leading ``k`` singular triplets of every face and returns
    ``(factors, mp_inverse)`` with ``mp_inverse = v_k * s_k^+ * u_k^T``,
    where the F-diagonal ``s_k^+`` pseudo-inverts each face's diagonal.
    At ``k = min(n1, n2)`` on a full-tubal-rank tensor, ``mp_inverse``
    satisfies all four Moore-Penrose axioms.  A ``k`` that is not an
    integer raises ``InvalidParameterError``.
    """
    _require_int(k, "k")
    r = min(a.n1, a.n2)
    if not 1 <= k <= r:
        raise DimensionMismatchError(f"truncation index k = {k} outside 1 .. {r} for dims {a.dims}")
    uf, sv, vf = (x[..., :k] for x in _face_svd(_faces(a.data)))
    return _time_factors(uf, sv, vf, a.n3), _unfaces(_face_pinv(uf, sv, vf), a.n3)


def truncated_expansion(factors: TsvdFactors) -> list[tuple[Tensor3, TubalScalar, Tensor3]]:
    """Expansion of the factors as r triplets ``(u_j, d_j, v_j)``.

    ``u_j`` and ``v_j`` are lateral slices, ``d_j = s(j, j, :)`` the j-th
    singular tube; ``sum_j u_j * d_j * v_j^T`` reproduces the factor
    product.
    """
    return [
        (factors.u.lateral_slice(j), factors.s.tube(j, j), factors.v.lateral_slice(j))
        for j in range(factors.r)
    ]


def tls_solve(a: Tensor3, b: Tensor3) -> Tensor3:
    """Minimum-norm least-squares solution of ``a * x = b``.

    Returns ``a^+ * b`` computed facewise: every DFT face of the result is
    the matrix pseudoinverse of the corresponding face of ``a`` (relative
    cutoff ``PINV_RCOND``) applied to the face of ``b``, all faces in one
    batched call.  Among all ``x`` minimizing ``frobenius_norm(a*x - b)``
    this solution has the smallest Frobenius norm.  A non-finite entry in
    ``a`` or ``b`` raises ``FaceSvdError``.
    """
    if a.n1 != b.n1 or a.n3 != b.n3:
        raise DimensionMismatchError(f"tls_solve shapes disagree: {a.dims} vs {b.dims}")
    _require_finite(b, "right-hand side")
    pinv = _face_pinv(*_face_svd(_faces(a.data)))
    return _unfaces(pinv @ _faces(b.data), a.n3)


def tubal_rank(a: Tensor3, tol: float = 1e-10) -> int:
    """Number of singular tubes exceeding ``tol`` relative to the largest.

    Counts indices j with ``max_f sigma_j(f) > tol * max_f sigma_1(f)``.
    """
    sv = _face_linalg(np.linalg.svd, _faces(a.data), compute_uv=False)
    top = float(np.max(sv[:, 0]))
    return int(np.sum(np.max(sv, axis=0) > tol * top))


def save_factors(factors: TsvdFactors, prefix) -> dict:
    """Write factors as three TNS3 files plus a JSON sidecar.

    Files are ``{prefix}_u.tns3``, ``{prefix}_s.tns3``, ``{prefix}_v.tns3``
    and ``{prefix}_tsvd.json``; returns the mapping of part name to path.
    """
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = {
        "u": prefix.with_name(prefix.name + "_u.tns3"),
        "s": prefix.with_name(prefix.name + "_s.tns3"),
        "v": prefix.with_name(prefix.name + "_v.tns3"),
        "sidecar": prefix.with_name(prefix.name + "_tsvd.json"),
    }
    write_tns3(factors.u, paths["u"])
    write_tns3(factors.s, paths["s"])
    write_tns3(factors.v, paths["v"])
    sidecar = {
        "r": factors.r,
        "face_singular_values": factors.face_singular_values.tolist(),
    }
    paths["sidecar"].write_text(json.dumps(sidecar, indent=2), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def load_factors(prefix) -> TsvdFactors:
    """Read factors written by :func:`save_factors`; other sidecar keys,
    such as the ``tol`` that earlier versions wrote, are ignored."""
    prefix = Path(prefix)
    sidecar = json.loads(
        prefix.with_name(prefix.name + "_tsvd.json").read_text(encoding="utf-8")
    )
    return TsvdFactors(
        u=read_tns3(prefix.with_name(prefix.name + "_u.tns3")),
        s=read_tns3(prefix.with_name(prefix.name + "_s.tns3")),
        v=read_tns3(prefix.with_name(prefix.name + "_v.tns3")),
        r=int(sidecar["r"]),
        face_singular_values=np.asarray(sidecar["face_singular_values"], dtype=float),
    )
