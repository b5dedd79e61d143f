"""The T-product and its derived algebra.

Everything is computed on the DFT faces: a T-product, an inverse or a
definiteness test of real tensors is an independent matrix problem on each
face of the real-FFT half spectrum (see :mod:`textrap.tensor_core`), solved
for all faces at once by one batched ``np.linalg`` call, then transformed
back.  This is equivalent to the block-circulant definition
``fold(bcirc(x) @ matvec(y))`` but costs ``O(n1 n2 m2 n3)`` per face set
instead of materializing the circulant.  ``bcirc`` itself stays in
:mod:`textrap.tensor_core` as a capped test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularFaceError
from .tensor_core import (
    Tensor3,
    TubalScalar,
    _face_linalg,
    _faces,
    _full_spectrum,
    _unfaces,
    frobenius_norm,
    identity_tensor,
)

__all__ = [
    "INVERTIBILITY_THRESHOLD",
    "InvertibilityReport",
    "PenroseReport",
    "tprod",
    "ttranspose",
    "tinverse",
    "is_invertible",
    "tscalar_product",
    "is_orthogonal",
    "is_positive_definite",
    "check_moore_penrose",
    "slice_product_entry",
]

#: relative face-condition threshold below which a tensor counts as
#: singular: a face's smallest singular value at or below it times the
#: largest singular value over all faces
INVERTIBILITY_THRESHOLD = 1e-12


def tprod(x: Tensor3, y: Tensor3) -> Tensor3:
    """T-product of ``x`` (n1 x n2 x n3) and ``y`` (n2 x m2 x n3).

    Parameters
    ----------
    x, y : Tensor3
        Operands with matching inner dimension and matching n3.

    Returns
    -------
    Tensor3
        The n1 x m2 x n3 product, equal to ``fold(bcirc(x) @ matvec_unfold(y))``.
    """
    if x.n2 != y.n1:
        raise DimensionMismatchError(
            f"inner dimensions disagree: {x.dims} * {y.dims}"
        )
    if x.n3 != y.n3:
        raise DimensionMismatchError(f"n3 disagrees: {x.dims} * {y.dims}")
    # real-input FFT computes only the non-redundant faces; the inverse
    # transform is then exactly real by construction
    xf = np.fft.rfft(x.data, axis=2)
    yf = np.fft.rfft(y.data, axis=2)
    zf = np.einsum("ikf,kjf->ijf", xf, yf)
    return Tensor3(np.fft.irfft(zf, n=x.n3, axis=2))


def ttranspose(x: Tensor3) -> Tensor3:
    """Tensor transpose: each frontal slice transposed, slices 2..n3 reversed."""
    d = x.data.transpose(1, 0, 2)
    out = np.empty(d.shape)
    out[:, :, 0] = d[:, :, 0]
    if x.n3 > 1:
        out[:, :, 1:] = d[:, :, :0:-1]
    return Tensor3(out)


def _face_singular_values(a: Tensor3) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum faces and their singular values: returns (faces, sv)
    with sv[f] sorted descending."""
    faces = _faces(a.data)
    return faces, _face_linalg(np.linalg.svd, faces, compute_uv=False)


@dataclass(frozen=True)
class InvertibilityReport:
    """Per-face conditioning summary behind an invertibility decision."""

    invertible: bool
    threshold: float
    face_min_sv: np.ndarray
    face_max_sv: np.ndarray

    @property
    def ratio(self) -> float:
        """Smallest singular value over largest, across all faces."""
        top = float(np.max(self.face_max_sv))
        return float(np.min(self.face_min_sv)) / top if top > 0 else 0.0

    @property
    def face_conds(self) -> np.ndarray:
        """Condition estimate per face (inf where a face is exactly singular)."""
        with np.errstate(divide="ignore"):
            return np.where(
                self.face_min_sv > 0, self.face_max_sv / self.face_min_sv, np.inf
            )

    def __bool__(self) -> bool:
        return self.invertible


def is_invertible(a: Tensor3, threshold: float = INVERTIBILITY_THRESHOLD) -> InvertibilityReport:
    """Decide invertibility from the DFT faces.

    ``a`` is invertible exactly when every DFT face is nonsingular; the
    numerical test is that the smallest singular value across all faces,
    relative to the largest, exceeds ``threshold``.  The report carries the
    extremal singular values of all ``n3`` faces and is truthy iff
    invertible.
    """
    if a.n1 != a.n2:
        raise DimensionMismatchError(f"invertibility needs square slices, got {a.dims}")
    _, sv = _face_singular_values(a)
    sv = _full_spectrum(sv, a.n3)
    face_min = sv[:, -1]
    face_max = sv[:, 0]
    top = float(np.max(face_max))
    ok = top > 0 and float(np.min(face_min)) / top > threshold
    return InvertibilityReport(bool(ok), float(threshold), face_min, face_max)


def tinverse(a: Tensor3, threshold: float = INVERTIBILITY_THRESHOLD) -> Tensor3:
    """T-product inverse via batched per-face matrix inversion.

    Raises
    ------
    SingularFaceError
        If some face's smallest singular value falls at or below
        ``threshold`` times the largest singular value over all faces.
        The error carries the offending face index and condition estimate.
    """
    if a.n1 != a.n2:
        raise DimensionMismatchError(f"tinverse needs square slices, got {a.dims}")
    faces, sv = _face_singular_values(a)
    top = float(np.max(sv[:, 0]))
    worst = int(np.argmin(sv[:, -1]))
    if sv[worst, -1] <= threshold * top:
        smin = sv[worst, -1]
        cond = float(sv[worst, 0] / smin) if smin > 0 else np.inf
        raise SingularFaceError(
            f"face {worst} is singular to working precision "
            f"(min sv {smin:.3e}, global max sv {top:.3e})",
            face_index=worst,
            cond=cond,
        )
    return _unfaces(_face_linalg(np.linalg.inv, faces), a.n3)


def tscalar_product(x: Tensor3, y: Tensor3) -> TubalScalar:
    """T-scalar product of lateral slices: ``ttranspose(x) * y`` as a tube.

    For ``x = y`` the first frontal entry equals ``frobenius_norm(x)**2``.
    """
    if x.n2 != 1 or y.n2 != 1:
        raise DimensionMismatchError(
            f"t-scalar product needs n1 x 1 x n3 operands, got {x.dims} and {y.dims}"
        )
    if x.dims != y.dims:
        raise DimensionMismatchError(f"operands differ in dims: {x.dims} vs {y.dims}")
    return TubalScalar(tprod(ttranspose(x), y).data)


def is_orthogonal(q: Tensor3, tol: float = 1e-8) -> bool:
    """True iff ``q^T * q`` and ``q * q^T`` both equal the identity within tol."""
    if q.n1 != q.n2:
        raise DimensionMismatchError(f"orthogonality needs square slices, got {q.dims}")
    eye = identity_tensor(q.n1, q.n3)
    qt = ttranspose(q)
    return (
        frobenius_norm(tprod(qt, q) - eye) <= tol
        and frobenius_norm(tprod(q, qt) - eye) <= tol
    )


def is_positive_definite(a: Tensor3, *, semi: bool = False, tol: float = 1e-12) -> bool:
    """Positive (semi-)definiteness of the quadratic form ``(x^T * a * x)`` first entry.

    The test is decided on the DFT faces: the form equals a nonnegative mix
    ``(1/n3) * sum_f conj(xhat_f)^H H_f xhat_f`` over conjugate-symmetric
    face vectors, so the Hermitian parts ``H_f`` of the faces govern its sign
    exactly.  ``a`` is square-sliced and not assumed symmetric.  With
    ``semi`` the test is for semi-definiteness.  The boundary is resolved at
    relative tolerance ``tol``: strict requires every face eigenvalue above
    ``+tol * scale``, semi above ``-tol * scale``, where ``scale`` is the
    largest eigenvalue magnitude.  A non-finite entry raises ``FaceSvdError``.
    """
    if a.n1 != a.n2:
        raise DimensionMismatchError(f"definiteness needs square slices, got {a.dims}")
    faces = _faces(a.data)
    w = _face_linalg(np.linalg.eigvalsh, 0.5 * (faces + faces.conj().swapaxes(1, 2)))
    eig_min = float(np.min(w[:, 0]))
    scale = float(np.max(np.abs(w)))
    if semi:
        return eig_min >= -tol * scale
    return eig_min > tol * scale


@dataclass(frozen=True)
class PenroseReport:
    """Residuals of the four Moore-Penrose axioms for a candidate inverse."""

    residuals: tuple[float, float, float, float]
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.residuals) <= self.tol

    def __bool__(self) -> bool:
        return self.passed


def check_moore_penrose(a: Tensor3, x: Tensor3, tol: float = 1e-8) -> PenroseReport:
    """Residuals of the four axioms that define the Moore-Penrose inverse.

    Checks, in order: ``a*x*a = a``, ``x*a*x = x``, ``(a*x)^T = a*x``,
    ``(x*a)^T = x*a``.  ``x`` must have the transposed dims of ``a``.
    """
    if x.dims != (a.n2, a.n1, a.n3):
        raise DimensionMismatchError(
            f"candidate inverse must have dims {(a.n2, a.n1, a.n3)}, got {x.dims}"
        )
    ax = tprod(a, x)
    xa = tprod(x, a)
    residuals = (
        frobenius_norm(tprod(ax, a) - a),
        frobenius_norm(tprod(xa, x) - x),
        frobenius_norm(ttranspose(ax) - ax),
        frobenius_norm(ttranspose(xa) - xa),
    )
    return PenroseReport(residuals, tol)


def slice_product_entry(a: Tensor3, b: Tensor3, i: int, j: int) -> TubalScalar:
    """Tube ``(i, j)`` of ``ttranspose(a) * b`` via the lateral-slice identity.

    Equals ``tscalar_product(a[:, i, :], b[:, j, :])`` without forming the
    full product.  Indices are 0-based.
    """
    if a.dims != b.dims:
        raise DimensionMismatchError(f"operands differ in dims: {a.dims} vs {b.dims}")
    if not (0 <= i < a.n2 and 0 <= j < b.n2):
        raise IndexError(f"lateral indices ({i}, {j}) out of range for n2 = {a.n2}")
    return tscalar_product(a.lateral_slice(i), b.lateral_slice(j))
