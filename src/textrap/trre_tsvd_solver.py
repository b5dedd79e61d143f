"""Reduced-rank extrapolation on the truncated-TSVD sequence.

For an ill-posed ``a * x = b`` the truncated pseudoinverse solutions

    S_k = sum_{j<=k} v_j * delta_j,    delta_j = d_j^+ * u_j^T * b,

form a sequence whose early terms damp the noise and whose late terms are
noise-dominated.  Applying the reduced-rank transform to that sequence has
closed-form coefficients: with Theta_j = delta_j^T * delta_j,

    beta_i = inv(Theta_{i+1}) * Theta_{k+1},

from which gamma and alpha follow by the usual normalization, and
``T_k = sum_j DS_j * alpha_j``.

``build_sequence`` forms every term at once on the real-FFT half spectrum,
from the face factors that ``TsvdFactors`` holds: one T-product gives all
``u_j^T * b``, a per-face scaling by the pseudo-inverted singular values
gives the delta faces, a broadcast product with the faces of ``v`` the
increments, and one cumulative sum the partial sums.  Only ``u`` is
transformed back, for the T-product; ``s`` and ``v`` never are.  The state
keeps those face arrays in the kernel's layout (``tensor_core._faces``);
its Stack4s are transformed back, by the kernel, only when read.

``solve`` takes a one-column right-hand side, so every Theta_j is a tubal
scalar and the whole k-path is scalar arithmetic on the real-FFT half
spectrum.  On face f, with theta_j = |delta_j(f)|^2 and
W_j = 1 / (theta_j + shift),

    T_k = (S_k + theta_{k+1} sum_{j<k} W_{j+1} S_j) / den_k,
    den_k = 1 + theta_{k+1} sum_{j<=k} W_j,

where both sums are running prefix sums.  The k-path is one pass over
every step the sequence allows: one cumulative sum for each prefix sum,
every T_k formed in place as one (K, F, n2) array, and each per-k
column as one reduction: the residual by the trace identity
``|R_k|^2 = tr((Theta_k * gamma_{k-1})_1)``, eta, the extrapolant norms
and the errors by Parseval.  The path stops at the first k that meets the
tolerance; its extra memory is a few arrays of the shape of ``sum_faces``,
and no step past the first singular Theta is evaluated.  Only the final
T_k is transformed back.  ``build_sequence`` accepts right-hand sides of
any width.

A tolerance stop at k reads terms 1 .. k+1 only.  So a solve with
``tol_eps > 0`` on an operator with min(n1, n2) >= 64 first runs the same
sequence body and k-path on the leading 16 triplets of every face, from a
fixed-seed randomized range finder (``tsvd._leading_tsvd``, which uses
one Gaussian test matrix for every face and decomposes its small
projection on the faces by an R-SVD).  The path runs after the range
finder's first power step, and the attempt decides the result when every
term its outcome depends on is trusted (small triplet residual, at least 4
before the 16th).  A second power step is taken only when the outcome
needs a term within those first 12 that the first step did not trust;
otherwise, or when the second step does not trust it either, the full
decomposition is computed and the path run on it, which is what a solve
with ``tol_eps = 0`` does from the start.
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
    NumericalConsistencyError,
)
from .tensor_core import (
    Stack4,
    Tensor3,
    _faces,
    _parseval_weights,
    _require_finite,
    _require_int,
    _unfaces,
    frobenius_norm,
)
from .tproduct_algebra import _refusal, _singular, tprod, ttranspose
from .tsvd import _MARGIN, TsvdFactors, _leading_tsvd, _pseudo_invert_diagonal, tsvd

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

#: singular triplets per face of a solve's truncated attempt, which is made
#: only when min(n1, n2) is at least 4 times this
_LEADING_TRIPLETS = 16


@dataclass(frozen=True)
class TtsvdSequenceState:
    """TTSVD partial-sum sequence, held as real-FFT half-spectrum faces.

    With K retained terms, s right-hand-side columns and F = n3 // 2 + 1
    faces, ``delta_faces`` (K, F, 1, s) and ``sum_faces`` (K + 1, F, n2, s)
    are the kernel's face stacks of the tensors delta_j and S_j, behind one
    stack axis; the first sum is S_0 = 0.  Terms whose delta vanished are
    dropped and the sequence reindexed, with the surviving original
    (1-based) indices in ``kept_indices``.

    ``deltas``, ``sdeltas`` and ``partial_sums`` are Stack4s, each a
    read-only view of one inverse transform made on first access;
    ``deltas[j]`` and ``sdeltas[j]`` belong to retained term j+1.  ``solve``
    reads only the face arrays.
    """

    factors: TsvdFactors
    delta_faces: np.ndarray
    sum_faces: np.ndarray
    kept_indices: tuple

    @property
    def count(self) -> int:
        """Number of usable sequence terms (after the drop rule)."""
        return len(self.delta_faces)

    @cached_property
    def deltas(self) -> Stack4:
        return _unfaces(self.delta_faces, self.factors._n3, Stack4)

    @cached_property
    def sdeltas(self) -> Stack4:
        faces = _sdelta_faces(self.factors._vf, self.delta_faces, self.kept_indices)
        return _unfaces(faces, self.factors._n3, Stack4)

    @cached_property
    def partial_sums(self) -> Stack4:
        return _unfaces(self.sum_faces, self.factors._n3, Stack4)


def _sdelta_faces(vf: np.ndarray, delta_faces: np.ndarray, kept, out=None) -> np.ndarray:
    """Faces (K, F, n2, s) of the increments v_j * delta_j of the terms with
    1-based indices ``kept``, from the (F, n2, r) faces ``vf`` of ``v``."""
    vk = np.moveaxis(vf[:, :, np.array(kept, dtype=int) - 1], -1, 0)
    return np.multiply(vk[..., None], delta_faces, out=out)


def _validated_limit(a: Tensor3, b: Tensor3, k_max) -> int:
    """The number of terms a sequence for ``a * x = b`` may have, after the
    checks of ``b`` and ``k_max`` that precede any decomposition."""
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
    return limit


def _sequence(factors: TsvdFactors, b: Tensor3, limit: int) -> TtsvdSequenceState:
    """The sequence of the leading ``limit`` triplets of ``factors``, every
    term at once (see :func:`build_sequence`)."""
    inv_sv = _pseudo_invert_diagonal(factors._sv[:, :limit])
    # a T-product of the time-domain u: the benchmark's trace test counts tprod
    utb = tprod(ttranspose(Tensor3(factors.u.data[:, :limit])), b)
    deltas = np.moveaxis(inv_sv[:, :, None] * _faces(utb.data), 1, 0)[:, :, None]
    kept = np.flatnonzero(deltas.any(axis=(1, 2, 3))) + 1
    deltas = deltas[kept - 1]
    sums = np.zeros((len(kept) + 1, *factors._vf.shape[:2], b.n2), dtype=np.complex128)
    _sdelta_faces(factors._vf, deltas, kept, out=sums[1:])
    np.cumsum(sums[1:], axis=0, out=sums[1:])
    return TtsvdSequenceState(
        factors=factors,
        delta_faces=deltas,
        sum_faces=sums,
        kept_indices=tuple(kept.tolist()),
    )


def build_sequence(a: Tensor3, b: Tensor3, k_max: int | None = None) -> TtsvdSequenceState:
    """Build the TTSVD sequence state for ``a * x = b``.

    One full decomposition of ``a`` is computed up front and every term is
    formed at once on the half spectrum: one T-product gives all
    ``u_j^T * b``, whose faces scaled by the pseudo-inverted singular values
    are the delta faces; times the faces of ``v_j`` they are the increments,
    and one cumulative sum gives the partial sums.  The partial sums
    telescope over a single factor set, so this is equivalent to truncating
    at every k separately.  ``solve``'s truncated attempt runs the same
    sequence body on its leading triplets.

    Drop rule: term j is dropped, and the sequence reindexed, iff delta_j is
    zero on every face.  Its pseudo-inverted singular tube is zero on a face
    where the singular value is at or below ``PINV_RCOND`` times that face's
    largest, so a term whose tube is cut on every face is dropped (as is
    every term of a zero ``b``).  A tube cut on some faces only is kept, and
    its delta is exactly zero on the cut faces.  A non-finite entry in ``a``
    or ``b`` raises ``FaceSvdError``, a non-integer ``k_max`` ``InvalidParameterError``.
    """
    limit = _validated_limit(a, b, k_max)
    return _sequence(tsvd(a), b, limit)


@dataclass
class SolverReport:
    """Per-iteration history of a reduced-rank TTSVD solve.

    All per-k lists have one entry per recorded k (the k = 1 row is the
    plain first partial sum, recorded for diagnostics with null residual
    and eta).  ``stop_reason`` is "tolerance" when ``min(residual, eta)``
    fell below the threshold, else "k_max".  ``kept_indices`` are the
    original indices of the sequence terms that survived the drop rule, and
    ``triplets`` the singular triplets per face of the factorization the
    result came from: 16 for an accepted truncated attempt, else
    min(n1, n2); ``power_steps`` the range-finder steps the truncated attempt
    ran (0 without one).  ``phase_seconds`` splits the wall time into building
    the sequence, which includes rejected attempts (each power step's
    decomposition, sequence and k-path), and the k-path that gave the result.
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
    triplets: int = 0
    power_steps: int = 0
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
            "triplets": self.triplets,
            "power_steps": self.power_steps,
        }
        if any(e is not None for e in self.errors):
            out["relative_errors"] = list(self.errors)
        return out


def _k_path(state: TtsvdSequenceState, tol_eps: float, shift: float | None):
    """The k-path over the state's terms in one pass.

    Returns ``(t, res, eta, t_norms, reads, error)``: the half-spectrum T_k
    rows (k - 1, F, n2) for k = 1 .. the final k, that path's residuals and
    eta (from k = 2) and extrapolant norms, how many sequence terms decided
    where the path ends (None when it ran out of terms), and the error the
    path ends with (None for a result).
    """
    if state.count == 0:
        return None, None, None, None, None, InsufficientSequenceError(
            "right-hand side produced no usable sequence terms (every delta vanished)"
        )
    # half-spectrum faces: theta (count, F) and the partial sums
    # S_0 = 0, S_1, ... (count + 1, F, n2)
    deltas = state.delta_faces[:, :, 0, 0]
    theta = deltas.real**2 + deltas.imag**2
    sums = state.sum_faces[..., 0]
    shifted = theta + float(shift) if shift else theta
    # step k inverts Theta_1 .. Theta_k; the path stops short of the first
    # Theta refused by the one face rule (a Theta face is its own singular value)
    singular = _singular(shifted[:, :, None])
    first_singular = int(np.argmax(singular)) if singular.any() else state.count
    last = min(state.count - 1, first_singular)  # steps 2 .. last are evaluated
    weights = 1.0 / shifted[:last]

    # row k-1 holds T_k: first sum_{1<=j<k} W_{j+1} S_j, then T_k in place
    t = np.zeros((max(last, 1), *sums.shape[1:]), dtype=sums.dtype)
    np.multiply(weights[1:, :, None], sums[1:last], out=t[1:])
    np.cumsum(t, axis=0, out=t)
    theta_next = theta[2 : last + 1]
    den = 1.0 + theta_next * np.cumsum(weights, axis=0)[1:]
    t[1:] *= theta_next[:, :, None]
    t[1:] += sums[2 : last + 1]
    t[1:] /= den[:, :, None]
    t[0] = sums[1]
    parseval = _parseval_weights(state.factors._n3)
    res = np.sqrt(np.sum(parseval * theta[1:last] * weights[1:] * theta_next / den, axis=-1))
    t_norms = _norms(t, parseval)
    eta = _norms(np.diff(t, axis=0), parseval) / t_norms[:-1]
    hit = np.flatnonzero(np.minimum(res, eta) < tol_eps)
    if hit.size:
        k = hit[0] + 2  # step k reads terms 1 .. k + 1
        return t[:k], res[: k - 1], eta[: k - 1], t_norms[:k], k + 1, None
    step = max(2, first_singular + 1)
    if step < state.count:  # the path reaches the step that inverts it
        j, what = first_singular, f"Theta_{first_singular + 1} at step k={step}"
        # a zero face of a nonzero delta is a square that underflowed
        kind = ("overflowed" if not np.isfinite(shifted[j]).all() else
                "underflowed to zero" if (deltas[j][shifted[j] == 0] != 0).any() else None)
        error = (NumericalConsistencyError(f"{what} {kind}; rescale a or b") if kind
                 else _refusal(shifted[j, :, None], what + ": "))
        return None, None, None, None, step + 1, error
    return t, res, eta, t_norms, None, None


def _norms(faces: np.ndarray, parseval: np.ndarray) -> np.ndarray:
    """Frobenius norms of the one-column tensors whose (F, n2) half-spectrum
    faces are the last two axes of ``faces``."""
    return np.sqrt(np.sum(parseval[:, None] * (faces.real**2 + faces.imag**2), axis=(-2, -1)))


def _decided_path(a: Tensor3, b: Tensor3, k_max, limit: int, tol_eps: float, shift):
    """The sequence state whose k-path decides a solve, that path, when the
    path started, and how many power steps the truncated attempt ran.

    For a tolerance stop on a large enough operator the leading triplets'
    sequence is tried first, after each power step of ``_leading_tsvd``: its
    outcome stands once every term it reads is trusted.  An outcome that
    needs one of the ``_MARGIN`` trailing triplets, which no step trusts,
    goes straight to the full sequence, as does one that the last step does
    not trust either.
    """
    steps = 0
    if tol_eps > 0 and min(a.n1, a.n2) >= 4 * _LEADING_TRIPLETS:
        for steps, (factors, trusted) in enumerate(_leading_tsvd(a, _LEADING_TRIPLETS), 1):
            state = _sequence(factors, b, min(limit, _LEADING_TRIPLETS))
            started = time.perf_counter()
            path = _k_path(state, tol_eps, shift)
            reads = path[4]
            needed = limit if reads is None else state.kept_indices[reads - 1]
            if needed <= trusted:
                return state, path, started, steps
            if needed > _LEADING_TRIPLETS - _MARGIN:
                break
    state = build_sequence(a, b, k_max)
    started = time.perf_counter()
    return state, _k_path(state, tol_eps, shift), started, steps


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

    Truncated attempt: with ``tol_eps > 0`` and ``min(n1, n2)`` at least
    4 x 16, the path first runs on the sequence of the leading 16 triplets
    of every face (``tsvd._leading_tsvd``, a randomized range finder with one
    fixed-seed Gaussian test matrix for every face, run on all usable CPUs:
    the result is deterministic, the same for any CPU count and memory
    layout of ``a``, and numpy's global random state is untouched).  The
    path first runs on the factors of one power step; its outcome stands
    when every term it read is trusted: the triplets up to there have small
    residuals and lie at least 4 before the 16th, whether the path stopped
    at the tolerance, at a singular Theta, or at ``k_max``.  When the
    outcome reads a term within the first 12 that the step did not trust,
    the path runs again after a second power step, which continues from the
    first.  Otherwise the full decomposition is computed and the path run
    again, as a solve with ``tol_eps = 0`` always does.  The drop rule
    applies to the terms computed, so ``kept_indices`` of an accepted
    attempt lie in 1 .. 16.

    ``b`` must have one column; solve a wider right-hand side one column at
    a time.  Step k inverts Theta_1 .. Theta_k after adding ``shift`` on
    every face (``shift=None`` adds nothing); the first step that inverts a
    Theta refused by the one face rule raises ``SingularFaceError`` unless
    the tolerance stopped the path before it, and a Theta that overflows or
    has a zero face where delta is not zero, or a k-path whose norms
    overflow or underflow to zero, raises ``NumericalConsistencyError``
    naming it.  A non-finite entry in ``a``, ``b`` or ``x_true`` raises
    ``FaceSvdError``; one in ``b`` or ``x_true`` before any work.  A
    ``tol_eps``, or a ``shift`` other than None, that is NaN, infinite or
    negative raises ``InvalidParameterError`` naming the parameter, before
    any work (a non-integer ``k_max`` before the decomposition).
    """
    # written so that NaN fails both tests
    if not 0 <= tol_eps < np.inf:
        raise InvalidParameterError("tol_eps", f"tol_eps must be finite and >= 0, got {tol_eps!r}")
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
        x_faces = _faces(x_true.data)[..., 0]
        x_scale = frobenius_norm(x_true) or 1.0  # a zero x_true reports |T_k|
    started = time.perf_counter()
    limit = _validated_limit(a, b, k_max)
    with np.errstate(all="ignore"):  # a k-path out of range raises below, by name
        state, path, steps_started, power_steps = _decided_path(a, b, k_max, limit, tol_eps, shift)
    t, res, eta, t_norms, reads, error = path
    if error is None and not np.isfinite(np.concatenate([t_norms, res, eta])).all():
        kind = "underflowed to zero" if (t_norms == 0).any() else "overflowed"  # eta = 0 / 0
        error = NumericalConsistencyError(f"the k-path {kind}; rescale a or b")
    if error is not None:
        raise error
    k = len(t)  # the final k
    errors = [None] * k
    if x_faces is not None:
        errors = (_norms(t - x_faces, _parseval_weights(n3)) / x_scale).tolist()
    return SolverReport(
        float(tol_eps),
        ks=list(range(1, k + 1)),
        residual_norms=[None, *res.tolist()],
        eta_ratios=[None, *eta.tolist()],
        t_norms=t_norms.tolist(),
        errors=errors,
        stop_reason="k_max" if reads is None else "tolerance",
        t_k=_unfaces(t[-1][..., None], n3),
        kept_indices=state.kept_indices,
        triplets=state.factors.r,
        power_steps=power_steps,
        phase_seconds={
            "sequence": steps_started - started,
            "steps": time.perf_counter() - steps_started,
        },
    )
