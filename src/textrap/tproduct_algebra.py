"""The T-product and its derived algebra.

Everything is computed on the DFT faces: a T-product, an inverse or a
definiteness test of real tensors is an independent matrix problem on each
face of the real-FFT half spectrum (see :mod:`textrap.tensor_core`), solved
for all faces at once, then transformed back.  A T-product multiplies its
faces by one batched matmul; an inverse or a definiteness test is one
batched ``np.linalg`` call.  This is equivalent to the block-circulant definition
``fold(bcirc(x) @ matvec(y))`` but costs ``O(n1 n2 m2 n3)`` per face set
instead of materializing the circulant.  ``bcirc`` itself stays in
:mod:`textrap.tensor_core` as a capped test oracle.

Every face system is refused by one rule, ``_refusal``, argued in
:mod:`textrap.tensor_core`.  Pseudo-inverses and least squares live in
:mod:`textrap.tsvd`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularFaceError
from .tensor_core import (
    Tensor3,
    TubalScalar,
    _adjoint,
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

#: a face system is singular when some face's smallest singular value is at
#: or below this times the largest singular value over all faces
INVERTIBILITY_THRESHOLD = 1e-12


def _singular(sv: np.ndarray) -> np.ndarray:
    """The one refusal rule over the leading axes of half-spectrum singular
    values ``sv`` of shape ``(..., F, r)``, rows descending."""
    return sv[..., -1].min(axis=-1) <= INVERTIBILITY_THRESHOLD * sv[..., 0].max(axis=-1)


def _refusal(sv: np.ndarray, what: str = "") -> SingularFaceError | None:
    """The error refusing a face system with singular values ``sv`` (``(F, r)``)
    by :func:`_singular`, or None.  It names the face whose smallest value is
    least; ``cond`` is the global largest over that value, the ratio compared."""
    if not _singular(sv):
        return None
    face = int(np.argmin(sv[:, -1]))
    smin, top = float(sv[face, -1]), float(np.max(sv[:, 0]))
    return SingularFaceError(
        f"{what}face {face} is singular to working precision "
        f"(min sv {smin:.3e}, global max sv {top:.3e})",
        face_index=face, cond=top / smin if smin > 0 else np.inf)


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
    # real-input FFT computes only the non-redundant faces, so the inverse is
    # exactly real; the transposes to face-first order are views, not copies
    xf = np.fft.rfft(x.data, axis=2).transpose(2, 0, 1)
    yf = np.fft.rfft(y.data, axis=2).transpose(2, 0, 1)
    return Tensor3(np.fft.irfft((xf @ yf).transpose(1, 2, 0), n=x.n3, axis=2))


def ttranspose(x: Tensor3) -> Tensor3:
    """Tensor transpose: each frontal slice transposed, slices 2..n3 reversed."""
    d = x.data.transpose(1, 0, 2)
    out = np.empty(d.shape)
    out[:, :, 0] = d[:, :, 0]
    if x.n3 > 1:
        out[:, :, 1:] = d[:, :, :0:-1]
    return Tensor3(out)


@dataclass(frozen=True)
class InvertibilityReport:
    """Per-face conditioning summary behind an invertibility decision."""

    invertible: bool
    face_min_sv: np.ndarray
    face_max_sv: np.ndarray

    @property
    def ratio(self) -> float:
        """Smallest singular value over largest, across all faces: the
        quantity the refusal rule compares (see ``_refusal``).  A refusal's
        ``SingularFaceError.cond`` is ``1 / ratio``."""
        top = float(np.max(self.face_max_sv))
        return float(np.min(self.face_min_sv)) / top if top > 0 else 0.0

    @property
    def face_conds(self) -> np.ndarray:
        """Condition estimate per face, each face against its own largest
        singular value (inf where a face is exactly singular).  The refusal
        rule does not use it: a face is refused against the largest value
        over all faces, by :attr:`ratio`."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.face_min_sv > 0, self.face_max_sv / self.face_min_sv, np.inf
            )

    def __bool__(self) -> bool:
        return self.invertible


def is_invertible(a: Tensor3) -> InvertibilityReport:
    """Decide invertibility from the DFT faces by the one face rule (see
    ``_refusal``).  The report carries the extremal singular values of all
    ``n3`` faces and is truthy iff invertible."""
    if a.n1 != a.n2:
        raise DimensionMismatchError(f"invertibility needs square slices, got {a.dims}")
    sv = _face_linalg(np.linalg.svd, _faces(a.data), compute_uv=False)
    full = _full_spectrum(sv, a.n3)
    return InvertibilityReport(not _singular(sv), full[:, -1], full[:, 0])


def tinverse(a: Tensor3) -> Tensor3:
    """T-product inverse via batched per-face matrix inversion.  Raises
    ``SingularFaceError`` when :func:`is_invertible` refuses ``a``, naming
    the face whose smallest singular value is least (see ``_refusal``)."""
    if a.n1 != a.n2:
        raise DimensionMismatchError(f"invertibility needs square slices, got {a.dims}")
    faces = _faces(a.data)
    if (error := _refusal(_face_linalg(np.linalg.svd, faces, compute_uv=False))) is not None:
        raise error
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
    w = _face_linalg(np.linalg.eigvalsh, 0.5 * (faces + _adjoint(faces)))
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
