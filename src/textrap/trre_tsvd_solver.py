"""Reduced-rank extrapolation on the truncated-TSVD sequence.

For an ill-posed ``a * x = b`` the truncated pseudoinverse solutions

    S_k = sum_{j<=k} v_j * delta_j,    delta_j = d_j^+ * u_j^T * b,

form a sequence whose early terms damp the noise and whose late terms are
noise-dominated.  Applying the reduced-rank transform to that sequence has
closed-form coefficients: with Theta_j = delta_j^T * delta_j,

    beta_i = inv(Theta_{i+1}) * Theta_{k+1},

from which gamma and alpha follow by the usual normalization, and
``T_k = sum_j DS_j * alpha_j``.

``solve`` takes a one-column right-hand side, so every Theta_j is a tubal
scalar and the whole k-path is scalar arithmetic on the real-FFT half
spectrum.  On face f, with theta_j = |delta_j(f)|^2 and
W_j = 1 / (theta_j + shift),

    T_k = (S_k + theta_{k+1} sum_{j<k} W_{j+1} S_j) / den_k,
    den_k = 1 + theta_{k+1} sum_{j<=k} W_j,

where both sums are running prefix sums, so a step costs O(n2 n3) however
large k is.  The residual norm is the trace identity
``|R_k|^2 = tr((Theta_k * gamma_{k-1})_1)``, and the norms behind eta, the
extrapolant norms and the errors come from the same arrays by Parseval;
only the final T_k is transformed back.  ``build_sequence`` itself accepts
right-hand sides of any width.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    FaceSvdError,
    InsufficientSequenceError,
    NumericalConsistencyError,
    SingularFaceError,
)
from .tensor_core import Tensor3, _unfaces, frobenius_norm
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
    """TTSVD partial-sum sequence with its extrapolation intermediates.

    ``deltas[j]`` and ``sdeltas[j]`` belong to retained term j+1 (1-based);
    terms whose delta vanished are dropped and the sequence reindexed, with
    the surviving original indices in ``kept_indices``.  ``partial_sums``
    has one extra leading entry, S_0 = 0.
    """

    factors: TsvdFactors
    deltas: list
    sdeltas: list
    partial_sums: list
    kept_indices: tuple

    @property
    def count(self) -> int:
        """Number of usable sequence terms (after the drop rule)."""
        return len(self.deltas)


def _require_finite(t: Tensor3, name: str) -> None:
    """Refuse a tensor with a NaN or infinite entry: such an entry reaches
    every DFT face, so the error names face 0."""
    if not np.isfinite(t.data).all():
        raise FaceSvdError(f"{name} has non-finite entries", face_index=0)


def build_sequence(a: Tensor3, b: Tensor3, k_max: int | None = None) -> TtsvdSequenceState:
    """Build the TTSVD sequence state for ``a * x = b``.

    One full decomposition of ``a`` is computed up front and sliced per
    term; the partial sums telescope over a single factor set, so this is
    equivalent to truncating at every k separately.  Terms with an exactly
    zero delta (for example beyond the tubal rank, where the pseudo-inverted
    singular tube vanishes) are dropped and the sequence reindexed.  A
    non-finite entry in ``a`` or ``b`` raises ``FaceSvdError``.
    """
    n1, n2, n3 = a.dims
    if b.n1 != n1 or b.n3 != n3:
        raise DimensionMismatchError(f"right-hand side dims {b.dims} do not match {a.dims}")
    _require_finite(b, "right-hand side")
    r = min(n1, n2)
    limit = r if k_max is None else min(int(k_max), r)
    if limit < 1:
        raise DimensionMismatchError(f"k_max = {k_max} leaves no usable terms")
    s = b.n2
    factors = tsvd(a)
    # the pseudo-inverted singular tubes d_j^+ side by side, 1 x limit x n3
    inv_sv = _pseudo_invert_diagonal(factors.face_singular_values[: n3 // 2 + 1])
    d_dag = _unfaces(inv_sv[:, None, :limit], n3)
    deltas, sdeltas, kept = [], [], []
    for j in range(limit):
        uj = factors.u.lateral_slice(j)
        delta = tprod(tprod(d_dag.lateral_slice(j), ttranspose(uj)), b)
        if delta.dims != (1, s, n3):
            raise NumericalConsistencyError(
                f"delta term has dims {delta.dims}, expected {(1, s, n3)}"
            )
        if frobenius_norm(delta) == 0.0:
            continue
        deltas.append(delta)
        sdeltas.append(tprod(factors.v.lateral_slice(j), delta))
        kept.append(j + 1)
    partial_sums = [Tensor3(np.zeros((n2, s, n3)))]
    for ds in sdeltas:
        partial_sums.append(partial_sums[-1] + ds)
    return TtsvdSequenceState(
        factors=factors,
        deltas=deltas,
        sdeltas=sdeltas,
        partial_sums=partial_sums,
        kept_indices=tuple(kept),
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
    timings: list = field(default_factory=list)
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
            "timings": list(self.timings),
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


def _first_singular_theta(shifted: np.ndarray) -> int:
    """Index of the first shifted Theta that ``tinverse`` would refuse, or
    the number of Thetas if none: a face value at or below the invertibility
    threshold times the largest face value of that Theta."""
    bad = np.flatnonzero(
        shifted.min(axis=1) <= INVERTIBILITY_THRESHOLD * shifted.max(axis=1)
    )
    return int(bad[0]) if bad.size else len(shifted)


def solve(
    a: Tensor3,
    b: Tensor3,
    tol_eps: float = 1e-8,
    k_max: int | None = None,
    shift: float | None = DEFAULT_THETA_SHIFT,
    x_true: Tensor3 | None = None,
) -> SolverReport:
    """Run the reduced-rank TTSVD solver with both stopping criteria.

    Starting from ``T_1 = S_1``, iterates k = 2, 3, ... computing the
    extrapolant, its residual norm, and the relative change
    ``|T_k - T_{k-1}| / |T_{k-1}|`` from the previous extrapolant; continues
    while ``min(residual, eta) >= tol_eps`` and terms remain, then reports
    the full history.  ``x_true``, when supplied, adds a relative-error
    column.

    ``b`` must have one column; solve a wider right-hand side one column at
    a time.  Step k inverts Theta_1 .. Theta_k after adding ``shift`` on
    every face (``shift=None`` adds nothing) and raises
    ``SingularFaceError`` when one of them is singular by the ``tinverse``
    rule.  A non-finite entry in ``a``, ``b`` or ``x_true`` raises
    ``FaceSvdError``; one in ``b`` or ``x_true`` before any work.
    """
    if b.n2 != 1:
        raise DimensionMismatchError(
            f"solve takes a one-column right-hand side, got {b.n2} columns; "
            "solve each column separately"
        )
    n2, n3 = a.n2, a.n3
    if x_true is not None:
        if x_true.dims != (n2, 1, n3):
            raise DimensionMismatchError(
                f"x_true dims {x_true.dims} do not match the solution dims {(n2, 1, n3)}"
            )
        _require_finite(x_true, "x_true")
    started = time.perf_counter()
    state = build_sequence(a, b, k_max)
    if state.count == 0:
        raise InsufficientSequenceError(
            "right-hand side produced no usable sequence terms (every delta vanished)"
        )
    steps_started = time.perf_counter()
    report = SolverReport(tol_eps=float(tol_eps), kept_indices=state.kept_indices)
    report.phase_seconds["sequence"] = steps_started - started

    # half-spectrum faces: theta (count, faces) and the partial sums
    # S_0 = 0, S_1, ... (count + 1, n2, faces)
    deltas = np.fft.rfft(np.stack([d.data[0, 0] for d in state.deltas]), axis=-1)
    theta = deltas.real**2 + deltas.imag**2
    sums = np.zeros((state.count + 1, n2, n3 // 2 + 1), dtype=np.complex128)
    np.cumsum(
        np.fft.rfft(np.stack([s.data[:, 0] for s in state.sdeltas]), axis=-1),
        axis=0,
        out=sums[1:],
    )
    shifted = theta + float(shift) if shift else theta
    first_singular = _first_singular_theta(shifted)
    with np.errstate(divide="ignore"):
        weights = 1.0 / shifted
    parseval = _parseval_weights(n3)

    def norm(faces: np.ndarray) -> float:
        return float(np.sqrt(np.sum(parseval * (faces.real**2 + faces.imag**2))))

    x_faces = x_scale = None
    if x_true is not None:
        x_faces = np.fft.rfft(x_true.data[:, 0], axis=-1)
        x_scale = frobenius_norm(x_true)

    def record(k, t_faces, res, eta, step_started):
        report.ks.append(k)
        report.residual_norms.append(res)
        report.eta_ratios.append(eta)
        t_norm = norm(t_faces)
        report.t_norms.append(t_norm)
        if x_faces is None:
            report.errors.append(None)
        elif x_scale > 0:
            report.errors.append(norm(t_faces - x_faces) / x_scale)
        else:
            report.errors.append(t_norm)
        report.timings.append(time.perf_counter() - step_started)
        return t_norm

    t_prev = sums[1]
    prev_norm = record(1, t_prev, None, None, steps_started)
    report.stop_reason = "k_max"
    weighted = np.zeros_like(t_prev)  # sum_{j<k} W_{j+1} S_j
    weight_sum = weights[0]  # sum_{j<=k} W_j
    for k in range(2, state.count):
        step_started = time.perf_counter()
        if first_singular < k:
            j = first_singular
            face = int(np.argmin(shifted[j]))
            smin, top = float(shifted[j, face]), float(np.max(shifted[j]))
            raise SingularFaceError(
                f"Theta_{j + 1} at step k={k}: face {face} is singular to working "
                f"precision (min sv {smin:.3e}, global max sv {top:.3e})",
                face_index=face,
                cond=top / smin if smin > 0 else np.inf,
            )
        weighted += weights[k - 1] * sums[k - 1]
        weight_sum = weight_sum + weights[k - 1]
        theta_next = theta[k]
        den = 1.0 + theta_next * weight_sum
        t_k = (sums[k] + theta_next * weighted) / den
        res = float(np.sqrt(np.sum(parseval * theta[k - 1] * weights[k - 1] * theta_next / den)))
        eta = norm(t_k - t_prev) / prev_norm
        prev_norm = record(k, t_k, res, eta, step_started)
        t_prev = t_k
        if min(res, eta) < tol_eps:
            report.stop_reason = "tolerance"
            break
    report.t_k = Tensor3(np.fft.irfft(t_prev, n=n3, axis=-1)[:, None, :])
    report.phase_seconds["steps"] = time.perf_counter() - steps_started
    return report
