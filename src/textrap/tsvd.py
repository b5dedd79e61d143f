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
tensors outright whenever they are square.  The least-squares solve and the
tubal rank use the same batched face format.
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
    _face_linalg,
    _faces,
    _full_spectrum,
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


def tsvd(a: Tensor3) -> TsvdFactors:
    """Full tensor SVD: ``a = u * s * v^T`` with r = min(n1, n2) triplets."""
    n3 = a.n3
    uf, sv, vh = _face_linalg(np.linalg.svd, _faces(a.data), full_matrices=False)
    return TsvdFactors(
        u=_unfaces(uf, n3),
        s=_diagonal(sv, n3),
        v=_unfaces(vh.conj().swapaxes(1, 2), n3),
        r=sv.shape[1],
        face_singular_values=_full_spectrum(sv, n3),
    )


def _truncate(factors: TsvdFactors, k: int) -> TsvdFactors:
    return TsvdFactors(
        u=Tensor3(factors.u.data[:, :k, :]),
        s=Tensor3(factors.s.data[:k, :k, :]),
        v=Tensor3(factors.v.data[:, :k, :]),
        r=k,
        face_singular_values=factors.face_singular_values[:, :k].copy(),
    )


def _pseudo_invert_diagonal(sv: np.ndarray) -> np.ndarray:
    """Per-face reciprocal of singular values with the relative cutoff.

    ``sv`` has shape (n3, k), row f sorted descending.  Entries at or below
    ``PINV_RCOND`` times the face maximum are mapped to zero, matching the
    pinv-over-inv choice for rank-deficient faces.
    """
    cutoff = PINV_RCOND * sv[:, :1]
    out = np.zeros_like(sv)
    keep = sv > cutoff
    out[keep] = 1.0 / sv[keep]
    return out


def ttsvd(a: Tensor3, k: int) -> tuple[TsvdFactors, Tensor3]:
    """Truncated tensor SVD plus the rank-k Moore-Penrose approximation.

    Keeps the leading ``k`` singular triplets of every face and returns
    ``(factors, mp_inverse)`` with ``mp_inverse = v_k * s_k^+ * u_k^T``,
    where the F-diagonal ``s_k^+`` pseudo-inverts each face's diagonal.
    At ``k = min(n1, n2)`` on a full-tubal-rank tensor, ``mp_inverse``
    satisfies all four Moore-Penrose axioms.
    """
    n1, n2, _ = a.dims
    if not 1 <= k <= min(n1, n2):
        raise DimensionMismatchError(
            f"truncation index k = {k} outside 1 .. {min(n1, n2)} for dims {a.dims}"
        )
    factors = _truncate(tsvd(a), k)
    inv_sv = _pseudo_invert_diagonal(factors.face_singular_values[: a.n3 // 2 + 1])
    sdag = _diagonal(inv_sv, a.n3)
    mp_inverse = tprod(tprod(factors.v, sdag), ttranspose(factors.u))
    return factors, mp_inverse


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
    this solution has the smallest Frobenius norm.
    """
    if a.n1 != b.n1 or a.n3 != b.n3:
        raise DimensionMismatchError(f"tls_solve shapes disagree: {a.dims} vs {b.dims}")
    pinv = _face_linalg(np.linalg.pinv, _faces(a.data), rcond=PINV_RCOND)
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
