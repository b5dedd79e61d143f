"""The T-product and its derived algebra.

Everything is computed on the DFT faces: a T-product, an inverse or a
definiteness test of real tensors is an independent matrix problem on each
face of the real-FFT half spectrum (see :mod:`textrap.tensor_core`), solved
for all faces at once by the kernel of :mod:`textrap.tensor_core`, then
transformed back.  A T-product multiplies its faces by one batched matmul;
an inverse or a definiteness test is one batched ``np.linalg`` call.  This
is equivalent to the block-circulant definition
``fold(bcirc(x) @ matvec(y))`` but costs ``O(n1 n2 m2 n3)`` per face set
instead of materializing the circulant.  ``bcirc`` itself stays in
:mod:`textrap.tensor_core` as a capped test oracle.

Every face system is refused by one rule, ``_refusal``, argued in
:mod:`textrap.tensor_core`, which also gives the two fixed tolerances of
every other check.  One batched LU settles it for the systems it solves
(``_face_solve``); an SVD runs only within a factor 2 of refusal.
Pseudo-inverses and least squares live in :mod:`textrap.tsvd`.
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
    "IDENTITY_TOL",
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
#: or below this times the largest singular value over all faces; tubal rank
#: and definiteness are decided against the same relative bound
INVERTIBILITY_THRESHOLD = 1e-12
#: an identity check passes when its dimensionless residual is at or below this
IDENTITY_TOL = 1e-8


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


def _face_solve(faces: np.ndarray, rhs: np.ndarray | None = None, what: str = "") -> np.ndarray:
    """``faces^-1 rhs``, or ``faces^-1``, for an ``(F, n, n)`` face stack the
    one rule (``_refusal``) does not refuse.  One batched LU solves for
    ``[rhs | I]``; as sigma_min(B) >= 1 / |B^-1|_F and sigma_max(B) <= |B|_F,
    ``2 * INVERTIBILITY_THRESHOLD * max_f |X_f|_F * max_f |B_f|_F < 1`` for
    the inverse columns X proves that the rule passes (the 2 covers X's
    relative error, about n eps kappa: Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 14).  Otherwise, or on non-finite input or a
    LAPACK failure, the batched SVD decides and fails as the rule always did.
    """
    n = faces.shape[-1]
    eye = np.broadcast_to(np.eye(n), faces.shape)
    if np.isfinite(faces).all() and (rhs is None or np.isfinite(rhs).all()):
        try:
            x = np.linalg.solve(faces, eye if rhs is None else np.concatenate([rhs, eye], axis=2))
        except np.linalg.LinAlgError:  # an exactly singular face
            x = None
        if x is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                sizes = [np.linalg.norm(m, axis=(1, 2)).max() for m in (x[:, :, -n:], faces)]
            if 2 * INVERTIBILITY_THRESHOLD * sizes[0] * sizes[1] < 1:  # NaN fails the test
                return x if rhs is None else x[:, :, :-n]
    if (error := _refusal(_face_linalg(np.linalg.svd, faces, compute_uv=False), what)) is not None:
        raise error
    return _face_linalg(np.linalg.solve, faces, eye if rhs is None else rhs)


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
    return _unfaces(_faces(x.data) @ _faces(y.data), x.n3)


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
    """T-product inverse via one batched per-face LU inversion.  Raises
    ``SingularFaceError`` when :func:`is_invertible` refuses ``a``, naming
    the face whose smallest singular value is least (see ``_refusal``); the
    LU settles that rule, and an SVD runs only within a factor 2 of refusal."""
    if a.n1 != a.n2:
        raise DimensionMismatchError(f"invertibility needs square slices, got {a.dims}")
    return _unfaces(_face_solve(_faces(a.data)), a.n3)


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


def _orthogonality_residual(q: Tensor3) -> float:
    """Worst of ``|q^T * q - I|`` and, for square slices, ``|q * q^T - I|``
    (NaN if either is)."""
    qt = ttranspose(q)
    eye = identity_tensor(q.n2, q.n3)
    products = (tprod(qt, q), tprod(q, qt)) if q.n1 == q.n2 else (tprod(qt, q),)
    return float(np.max([frobenius_norm(p - eye) for p in products]))


def is_orthogonal(q: Tensor3) -> bool:
    """True iff ``q^T * q`` and ``q * q^T`` both equal the identity within
    ``IDENTITY_TOL``."""
    if q.n1 != q.n2:
        raise DimensionMismatchError(f"orthogonality needs square slices, got {q.dims}")
    return _orthogonality_residual(q) <= IDENTITY_TOL


def is_positive_definite(a: Tensor3, *, semi: bool = False) -> bool:
    """Positive (semi-)definiteness of the quadratic form ``(x^T * a * x)`` first entry.

    The test is decided on the DFT faces: the form equals a nonnegative mix
    ``(1/n3) * sum_f conj(xhat_f)^H H_f xhat_f`` over conjugate-symmetric
    face vectors, so the Hermitian parts ``H_f`` of the faces govern its sign
    exactly.  ``a`` is square-sliced and not assumed symmetric.  With
    ``semi`` the test is for semi-definiteness.  Strict requires every face
    eigenvalue above ``+INVERTIBILITY_THRESHOLD * scale``, semi at or above
    ``-INVERTIBILITY_THRESHOLD * scale``, where ``scale`` is the largest
    eigenvalue magnitude.  A non-finite entry raises ``FaceSvdError``.
    """
    if a.n1 != a.n2:
        raise DimensionMismatchError(f"definiteness needs square slices, got {a.dims}")
    faces = _faces(a.data)
    w = _face_linalg(np.linalg.eigvalsh, 0.5 * (faces + _adjoint(faces)))
    eig_min = float(np.min(w[:, 0]))
    bound = INVERTIBILITY_THRESHOLD * float(np.max(np.abs(w)))
    return eig_min >= -bound if semi else eig_min > bound


@dataclass(frozen=True)
class PenroseReport:
    """Relative residuals of the four Moore-Penrose axioms for a candidate
    inverse; it passes when each is at or below ``IDENTITY_TOL``."""

    residuals: tuple[float, float, float, float]

    @property
    def passed(self) -> bool:
        return all(r <= IDENTITY_TOL for r in self.residuals)  # NaN fails

    def __bool__(self) -> bool:
        return self.passed


def check_moore_penrose(a: Tensor3, x: Tensor3) -> PenroseReport:
    """Residuals of the four axioms that define the Moore-Penrose inverse.

    Checks, in order: ``a*x*a = a``, ``x*a*x = x``, ``(a*x)^T = a*x``,
    ``(x*a)^T = x*a``, each divided by the size of the term it should equal
    (zero where that term is zero), so ``(c*a, x/c)`` gets the verdict of
    ``(a, x)``.  ``x`` must have the transposed dims of ``a``.
    """
    if x.dims != (a.n2, a.n1, a.n3):
        raise DimensionMismatchError(
            f"candidate inverse must have dims {(a.n2, a.n1, a.n3)}, got {x.dims}"
        )
    ax = tprod(a, x)
    xa = tprod(x, a)
    pairs = ((tprod(ax, a), a), (tprod(xa, x), x), (ttranspose(ax), ax), (ttranspose(xa), xa))
    # a zero term leaves |got - want| = 0 for finite input, so divide by 1
    return PenroseReport(tuple(
        frobenius_norm(got - want) / (frobenius_norm(want) or 1.0) for got, want in pairs))


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
