"""Reduced-rank extrapolation on the truncated-TSVD sequence.

For an ill-posed ``a * x = b`` the truncated pseudoinverse solutions

    S_k = sum_{j<=k} v_j * delta_j,    delta_j = d_j^+ * u_j^T * b,

form a sequence whose early terms damp the noise and whose late terms are
noise-dominated.  Applying the reduced-rank transform to that sequence has
closed-form coefficients: with Theta_j = delta_j^T * delta_j,

    beta_i = inv(Theta_{i+1}) * Theta_{k+1},

from which gamma and alpha follow by the usual normalization, and
``T_k = sum_j DS_j * alpha_j``.

``build_sequence`` forms every term at once on the real-FFT half spectrum:
one T-product gives all ``u_j^T * b``, a per-face scaling by the
pseudo-inverted singular values gives the delta faces, a broadcast product
with the faces of ``v`` the increments, and one cumulative sum the partial
sums.  The state keeps those face arrays; its tensor lists are transformed
back only when read.

``solve`` takes a one-column right-hand side, so every Theta_j is a tubal
scalar and the whole k-path is scalar arithmetic on the real-FFT half
spectrum.  On face f, with theta_j = |delta_j(f)|^2 and
W_j = 1 / (theta_j + shift),

    T_k = (S_k + theta_{k+1} sum_{j<k} W_{j+1} S_j) / den_k,
    den_k = 1 + theta_{k+1} sum_{j<=k} W_j,

where both sums are running prefix sums.  The k-path is one pass over
every step the sequence allows: one cumulative sum for each prefix sum,
every T_k formed in place as one (K, n2, faces) array, and each per-k
column as one reduction: the residual by the trace identity
``|R_k|^2 = tr((Theta_k * gamma_{k-1})_1)``, eta, the extrapolant norms
and the errors by Parseval.  The path stops at the first k that meets the
tolerance; its extra memory is a few arrays of the shape of ``sum_faces``,
and no step past the first singular Theta is evaluated.  Only the final
T_k is transformed back.  ``build_sequence`` accepts right-hand sides of
any width.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientSequenceError,
    InvalidParameterError,
    SingularFaceError,
)
from .tensor_core import Tensor3, _require_finite, _require_int, frobenius_norm
from .tproduct_algebra import INVERTIBILITY_THRESHOLD, tprod, ttranspose
from .tsvd import TsvdFactors, _pseudo_invert_diagonal, tsvd

__all__ = [
    "TtsvdSequenceState",
    "SolverReport",
    "DEFAULT_THETA_SHIFT",
    "build_sequence",
    "solve",
]

#: absolute epsilon added to each Theta before inversion (the shift is per
#: tensor, one scaled identity, and is on by default; pass shift=None to
#: require exactly invertible Theta)
DEFAULT_THETA_SHIFT = 1e-10

@dataclass(frozen=True)
class TtsvdSequenceState:
    """TTSVD partial-sum sequence, held as real-FFT half-spectrum faces.

    With K retained terms, s right-hand-side columns and F = n3 // 2 + 1
    faces, ``delta_faces`` has shape (K, s, F) and ``sum_faces`` shape
    (K + 1, n2, s, F), whose first entry is S_0 = 0.  Terms whose delta
    vanished are dropped and the sequence reindexed, with the surviving
    original (1-based) indices in ``kept_indices``.

    The tensor lists ``deltas``, ``sdeltas`` and ``partial_sums`` are
    transformed back on first access; ``deltas[j]`` and ``sdeltas[j]``
    belong to retained term j+1.  ``solve`` reads only the face arrays.
    """

    factors: TsvdFactors
    delta_faces: np.ndarray
    sum_faces: np.ndarray
    kept_indices: tuple

    @property
    def count(self) -> int:
        """Number of usable sequence terms (after the drop rule)."""
        return len(self.delta_faces)

    def _tensors(self, faces: np.ndarray) -> list:
        return [Tensor3(t) for t in np.fft.irfft(faces, n=self.factors.u.n3, axis=-1)]

    @cached_property
    def deltas(self) -> list:
        return self._tensors(self.delta_faces[:, None])

    @cached_property
    def sdeltas(self) -> list:
        return self._tensors(_sdelta_faces(self.factors.v, self.delta_faces, self.kept_indices))

    @cached_property
    def partial_sums(self) -> list:
        return self._tensors(self.sum_faces)


def _sdelta_faces(v: Tensor3, delta_faces: np.ndarray, kept, out=None) -> np.ndarray:
    """Faces (K, n2, s, F) of the increments v_j * delta_j of the terms with
    1-based indices ``kept``."""
    vf = np.fft.rfft(v.data[:, np.array(kept, dtype=int) - 1], axis=-1).transpose(1, 0, 2)
    return np.multiply(vf[:, :, None, :], delta_faces[:, None], out=out)


def build_sequence(a: Tensor3, b: Tensor3, k_max: int | None = None) -> TtsvdSequenceState:
    """Build the TTSVD sequence state for ``a * x = b``.

    One full decomposition of ``a`` is computed up front and every term is
    formed at once on the half spectrum: one T-product gives all
    ``u_j^T * b``, whose faces scaled by the pseudo-inverted singular values
    are the delta faces; times the faces of ``v_j`` they are the increments,
    and one cumulative sum gives the partial sums.  The partial sums
    telescope over a single factor set, so this is equivalent to truncating
    at every k separately.

    Drop rule: term j is dropped, and the sequence reindexed, iff delta_j is
    zero on every face.  Its pseudo-inverted singular tube is zero on a face
    where the singular value is at or below ``PINV_RCOND`` times that face's
    largest, so a term whose tube is cut on every face is dropped (as is
    every term of a zero ``b``).  A tube cut on some faces only is kept, and
    its delta is exactly zero on the cut faces.  A non-finite entry in ``a``
    or ``b`` raises ``FaceSvdError``, a non-integer ``k_max`` ``InvalidParameterError``.
    """
    n1, n2, n3 = a.dims
    if b.n1 != n1 or b.n3 != n3:
        raise DimensionMismatchError(f"right-hand side dims {b.dims} do not match {a.dims}")
    _require_finite(b, "right-hand side")
    if k_max is not None:
        _require_int(k_max, "k_max")
    r = min(n1, n2)
    limit = r if k_max is None else min(k_max, r)
    if limit < 1:
        raise DimensionMismatchError(f"k_max = {k_max} leaves no usable terms")
    factors = tsvd(a)
    faces = n3 // 2 + 1
    inv_sv = _pseudo_invert_diagonal(factors.face_singular_values[:faces, :limit])
    utb = tprod(ttranspose(Tensor3(factors.u.data[:, :limit])), b)
    deltas = inv_sv.T[:, None, :] * np.fft.rfft(utb.data, axis=-1)
    kept = np.flatnonzero(deltas.any(axis=(1, 2))) + 1
    deltas = deltas[kept - 1]
    sums = np.zeros((len(kept) + 1, n2, b.n2, faces), dtype=np.complex128)
    _sdelta_faces(factors.v, deltas, kept, out=sums[1:])
    np.cumsum(sums[1:], axis=0, out=sums[1:])
    return TtsvdSequenceState(
        factors=factors,
        delta_faces=deltas,
        sum_faces=sums,
        kept_indices=tuple(kept.tolist()),
    )


@dataclass
class SolverReport:
    """Per-iteration history of a reduced-rank TTSVD solve.

    All per-k lists have one entry per recorded k (the k = 1 row is the
    plain first partial sum, recorded for diagnostics with null residual
    and eta).  ``stop_reason`` is "tolerance" when ``min(residual, eta)``
    fell below the threshold, else "k_max".  ``kept_indices`` are the
    original indices of the sequence terms that survived the drop rule, and
    ``phase_seconds`` splits the wall time into building the sequence and
    the k-path.
    """

    tol_eps: float
    ks: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    eta_ratios: list = field(default_factory=list)
    t_norms: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    stop_reason: str = ""
    t_k: Tensor3 | None = None
    kept_indices: tuple = ()
    phase_seconds: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.ks)

    @property
    def final_k(self) -> int:
        return self.ks[-1] if self.ks else 0

    def as_dict(self) -> dict:
        out = {
            "tol_eps": self.tol_eps,
            "iterations": self.iterations,
            "final_k": self.final_k,
            "stop_reason": self.stop_reason,
            "ks": list(self.ks),
            "residual_norms": list(self.residual_norms),
            "eta_ratios": list(self.eta_ratios),
            "t_norms": list(self.t_norms),
            "phase_seconds": dict(self.phase_seconds),
            "kept_indices": list(self.kept_indices),
        }
        if any(e is not None for e in self.errors):
            out["relative_errors"] = list(self.errors)
        return out


def _parseval_weights(n3: int) -> np.ndarray:
    """Weights c_f with ``|x|^2 = sum_f c_f |rfft(x)_f|^2`` along mode 3: the
    zero face and (for even n3) the Nyquist face appear once in the full
    spectrum, every other half-spectrum face twice."""
    c = np.full(n3 // 2 + 1, 2.0 / n3)
    c[0] = 1.0 / n3
    if n3 % 2 == 0:
        c[-1] = 1.0 / n3
    return c


def solve(
    a: Tensor3,
    b: Tensor3,
    tol_eps: float = 1e-8,
    k_max: int | None = None,
    shift: float | None = DEFAULT_THETA_SHIFT,
    x_true: Tensor3 | None = None,
) -> SolverReport:
    """Run the reduced-rank TTSVD solver with both stopping criteria.

    Starting from ``T_1 = S_1``, forms for every k = 2, 3, ... the sequence
    allows, in one pass, the extrapolant, its residual norm, and the
    relative change ``|T_k - T_{k-1}| / |T_{k-1}|`` from the previous
    extrapolant; stops at the first k with ``min(residual, eta) < tol_eps``,
    else at the last term, and reports the history up to there.
    ``x_true``, when supplied, adds a relative-error column.

    ``b`` must have one column; solve a wider right-hand side one column at
    a time.  Step k inverts Theta_1 .. Theta_k after adding ``shift`` on
    every face (``shift=None`` adds nothing); the first step that inverts a
    Theta singular by the ``tinverse`` rule raises ``SingularFaceError``
    unless the tolerance stopped the path before it.  A non-finite entry in
    ``a``, ``b`` or ``x_true`` raises ``FaceSvdError``; one in ``b`` or
    ``x_true`` before any work.  A NaN or negative ``tol_eps``, and a
    ``shift`` that is NaN, infinite or negative, raise
    ``InvalidParameterError`` naming the parameter, before any work (a
    non-integer ``k_max`` before the decomposition).
    """
    # written so that NaN fails both tests
    if not tol_eps >= 0:
        raise InvalidParameterError("tol_eps", f"tol_eps must be >= 0, got {tol_eps!r}")
    if shift is not None and not 0 <= shift < np.inf:
        raise InvalidParameterError(
            "shift", f"shift must be None or finite and >= 0, got {shift!r}"
        )
    if b.n2 != 1:
        raise DimensionMismatchError(
            f"solve takes a one-column right-hand side, got {b.n2} columns; "
            "solve each column separately"
        )
    n2, n3 = a.n2, a.n3
    x_faces = None
    if x_true is not None:
        if x_true.dims != (n2, 1, n3):
            raise DimensionMismatchError(
                f"x_true dims {x_true.dims} do not match the solution dims {(n2, 1, n3)}"
            )
        _require_finite(x_true, "x_true")
        x_faces = np.fft.rfft(x_true.data[:, 0], axis=-1)
        x_scale = frobenius_norm(x_true) or 1.0  # a zero x_true reports |T_k|
    started = time.perf_counter()
    state = build_sequence(a, b, k_max)
    if state.count == 0:
        raise InsufficientSequenceError(
            "right-hand side produced no usable sequence terms (every delta vanished)"
        )
    steps_started = time.perf_counter()

    # half-spectrum faces: theta (count, faces) and the partial sums
    # S_0 = 0, S_1, ... (count + 1, n2, faces)
    deltas = state.delta_faces[:, 0]
    theta = deltas.real**2 + deltas.imag**2
    sums = state.sum_faces[:, :, 0]
    shifted = theta + float(shift) if shift else theta
    # step k inverts Theta_1 .. Theta_k; the path stops short of the first Theta
    # that ``tinverse`` refuses (smallest face value <= threshold * largest)
    singular = shifted.min(axis=1) <= INVERTIBILITY_THRESHOLD * shifted.max(axis=1)
    first_singular = int(np.argmax(singular)) if singular.any() else state.count
    last = min(state.count - 1, first_singular)  # steps 2 .. last are evaluated
    weights = 1.0 / shifted[:last]
    parseval = _parseval_weights(n3)

    def norms(faces: np.ndarray) -> np.ndarray:
        return np.sqrt(np.sum(parseval * (faces.real**2 + faces.imag**2), axis=(-2, -1)))

    # row k-1 holds T_k: first sum_{1<=j<k} W_{j+1} S_j, then T_k in place
    t = np.zeros((max(last, 1), n2, sums.shape[-1]), dtype=sums.dtype)
    np.multiply(weights[1:, None], sums[1:last], out=t[1:])
    np.cumsum(t, axis=0, out=t)
    theta_next = theta[2 : last + 1]
    den = 1.0 + theta_next * np.cumsum(weights, axis=0)[1:]
    t[1:] *= theta_next[:, None]
    t[1:] += sums[2 : last + 1]
    t[1:] /= den[:, None]
    t[0] = sums[1]
    res = np.sqrt(np.sum(parseval * theta[1:last] * weights[1:] * theta_next / den, axis=-1))
    t_norms = norms(t)
    eta = norms(np.diff(t, axis=0)) / t_norms[:-1]
    hit = np.flatnonzero(np.minimum(res, eta) < tol_eps)
    if hit.size:
        t = t[: hit[0] + 2]
    elif max(2, first_singular + 1) < state.count:
        j = first_singular
        face = int(np.argmin(shifted[j]))
        smin, top = float(shifted[j, face]), float(np.max(shifted[j]))
        raise SingularFaceError(
            f"Theta_{j + 1} at step k={max(2, j + 1)}: face {face} is singular to working "
            f"precision (min sv {smin:.3e}, global max sv {top:.3e})",
            face_index=face, cond=top / smin if smin > 0 else np.inf,
        )
    k = len(t)  # the final k
    return SolverReport(
        float(tol_eps),
        ks=list(range(1, k + 1)),
        residual_norms=[None, *res[: k - 1].tolist()],
        eta_ratios=[None, *eta[: k - 1].tolist()],
        t_norms=t_norms[:k].tolist(),
        errors=[None] * k if x_faces is None else (norms(t - x_faces) / x_scale).tolist(),
        stop_reason="tolerance" if hit.size else "k_max",
        t_k=Tensor3(np.fft.irfft(t[-1], n=n3, axis=-1)[:, None, :]),
        kept_indices=state.kept_indices,
        phase_seconds={
            "sequence": steps_started - started,
            "steps": time.perf_counter() - steps_started,
        },
    )
