"""Polynomial-type tensor extrapolation (TMPE / TRRE / TMMPE) and TTEA.

Given a tensor sequence S_0, S_1, ..., a width-k transform builds the
extrapolant

    T_k = S_n + sum_{j=0}^{k-1} DS_{n+j} * alpha_j
        = sum_{j=0}^{k}   S_{n+j} * gamma_j,

where DS are forward differences and the coefficient tensors right-multiply
the terms.  The beta coefficients solve the orthogonality conditions of the
generalized residual against a method-specific test stack Y:

    TMPE   Y_i = DS_{n+i-1}
    TRRE   Y_i = D2S_{n+i-1}
    TMMPE  Y_i fixed, supplied by the caller.

The block system is solved in the DFT face domain, where the T-product
block structure decouples into independent complex (k*n2) x (k*n2)
systems, one per face of the real-FFT half spectrum, solved in one batched
call.  TTEA (the topological epsilon transform) uses a single test
tensor y and a Hankel-type block system instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientSequenceError,
    NumericalConsistencyError,
    SingularFaceError,
)
from .stack_products import star
from .tensor_core import (
    Stack4,
    Tensor3,
    _face_linalg,
    _faces,
    _unfaces,
    frobenius_norm,
    identity_tensor,
)
from .tproduct_algebra import tinverse, tprod

__all__ = [
    "TensorSequence",
    "ExtrapolationResult",
    "METHODS",
    "difference_stacks",
    "build_y_stack",
    "default_tmmpe_y",
    "solve_beta_system",
    "beta_to_gamma",
    "gamma_to_alpha",
    "extrapolate",
    "ttea_solve",
]

METHODS = ("tmpe", "trre", "tmmpe")


class TensorSequence:
    """Ordered sequence of equally sized Tensor3 terms S_0, S_1, ..."""

    __slots__ = ("_terms",)

    def __init__(self, terms):
        members = tuple(t if isinstance(t, Tensor3) else Tensor3(t) for t in terms)
        if not members:
            raise InsufficientSequenceError("a sequence needs at least one term")
        dims = {t.dims for t in members}
        if len(dims) > 1:
            raise DimensionMismatchError(f"sequence terms differ in dims: {sorted(dims)}")
        self._terms = members

    @property
    def terms(self) -> tuple:
        return self._terms

    @property
    def dims(self) -> tuple[int, int, int]:
        return self._terms[0].dims

    def __len__(self):
        return len(self._terms)

    def __getitem__(self, i) -> Tensor3:
        return self._terms[i]

    def __iter__(self):
        return iter(self._terms)

    def require(self, count: int, what: str) -> None:
        if len(self._terms) < count:
            raise InsufficientSequenceError(
                f"{what} needs {count} terms, sequence has {len(self._terms)}"
            )

    def __repr__(self):
        return f"TensorSequence(len={len(self._terms)}, dims={self.dims})"


@dataclass(frozen=True)
class ExtrapolationResult:
    """Extrapolant with its coefficient stacks and generalized residual.

    ``gamma`` holds k+1 slices summing to the identity; ``beta`` and
    ``alpha`` hold k slices each; ``residual`` is
    ``R(T_k) = sum_{j=0}^{k} DS_{n+j} * gamma_j``.
    """

    t_k: Tensor3
    gamma: Stack4
    beta: Stack4
    alpha: Stack4
    residual: Tensor3


def difference_stacks(seq: TensorSequence, n: int, k: int) -> tuple[Stack4, Stack4]:
    """First and second forward differences for a width-k transform at index n.

    Returns ``(DS, D2S)`` with k+1 first-difference slices
    ``DS_{n+j} = S_{n+j+1} - S_{n+j}`` (j = 0..k) and k second-difference
    slices ``D2S_{n+j}`` (j = 0..k-1).  Needs terms through ``S_{n+k+1}``.
    """
    if n < 0 or k < 1:
        raise InsufficientSequenceError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    seq.require(n + k + 2, f"width-{k} extrapolation at n={n}")
    delta = Stack4(seq[n + j + 1] - seq[n + j] for j in range(k + 1))
    delta2 = Stack4(delta[j + 1] - delta[j] for j in range(k))
    return delta, delta2


def default_tmmpe_y(dims: tuple[int, int, int], k: int) -> Stack4:
    """Deterministic fixed test stack for TMMPE.

    Slice i has a single nonzero frontal slice (the first), whose columns
    are canonical basis vectors starting at row ``i * n2``, echoing the
    lateral canonical tensors used to extract entries of a product.  The
    stride keeps all ``k * n2`` projection directions distinct (hence the
    stacked system nondegenerate) whenever ``k * n2 <= n1``.
    """
    n1, n2, n3 = dims
    out = []
    for i in range(k):
        data = np.zeros((n1, n2, n3))
        for c in range(n2):
            data[(i * n2 + c) % n1, c, 0] = 1.0
        out.append(Tensor3(data))
    return Stack4(out)


def build_y_stack(
    method: str,
    seq: TensorSequence,
    n: int,
    k: int,
    custom_y: Stack4 | None = None,
) -> Stack4:
    """Test stack Y_1..Y_k for the chosen method (see module docstring)."""
    name = method.lower()
    if name not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if name == "tmmpe":
        if custom_y is None:
            raise ValueError("TMMPE requires custom_y (or build one with default_tmmpe_y)")
        if custom_y.count != k:
            raise DimensionMismatchError(
                f"TMMPE custom_y needs {k} slices, got {custom_y.count}"
            )
        if custom_y.dims != seq.dims:
            raise DimensionMismatchError(
                f"TMMPE custom_y dims {custom_y.dims} do not match sequence dims {seq.dims}"
            )
        return custom_y
    delta, delta2 = difference_stacks(seq, n, k)
    return delta[:k] if name == "tmpe" else delta2[:k]


def _solve_stacked_faces(big: np.ndarray, rhs: np.ndarray, k: int, n3: int) -> list[Tensor3]:
    """Solve the block system sum_j M[i][j] * x_j = R[i] on every DFT face.

    ``big`` is the (F, k*q, k*q) stack of half-spectrum faces of the block
    matrix (block row i, block column j) and ``rhs`` the (F, k*q, m) stack
    of the stacked right-hand sides.  Every face system must pass the guard
    (largest singular value nonzero, smallest above 1e-14 times the
    largest); the first face that fails raises.  All faces are then solved
    in one batched call.  Returns the k solution tensors of dims (q, m, n3).
    """
    sv = _face_linalg(np.linalg.svd, big, compute_uv=False)
    bad = np.flatnonzero((sv[:, 0] == 0.0) | (sv[:, -1] <= 1e-14 * sv[:, 0]))
    if bad.size:
        f = int(bad[0])
        cond = float(sv[f, 0] / sv[f, -1]) if sv[f, -1] > 0 else np.inf
        raise SingularFaceError(
            f"face {f} block system is singular to working precision "
            f"(cond estimate {cond:.3e})",
            face_index=f,
            cond=cond,
        )
    solution = _unfaces(_face_linalg(np.linalg.solve, big, rhs), n3).data
    q = big.shape[1] // k
    return [Tensor3(solution[j * q : (j + 1) * q]) for j in range(k)]


def _lateral_faces(tensors) -> np.ndarray:
    """Half-spectrum faces of the tensors placed side by side (lateral
    concatenation): face f holds the faces of the members as column blocks."""
    return _faces(np.concatenate([t.data for t in tensors], axis=1))


def solve_beta_system(l: Stack4, v: Stack4, rhs: Tensor3) -> Stack4:
    """Solve ``(l diamond v) star beta = -(l diamond rhs)`` for beta.

    Row i of the block system reads
    ``sum_j (ttranspose(l[i]) * v[j]) * beta_j = -ttranspose(l[i]) * rhs``.
    Assembly and solve happen facewise: face f of block (i, j) is
    ``L_i(f)^H V_j(f)``, so with the slices placed side by side the whole
    face matrix is ``[L_1 .. L_k](f)^H [V_1 .. V_k](f)``, one batched
    product over the half spectrum, which decouples the T-product structure
    into dense complex systems of size (k*n2) x (k*n2).

    Raises
    ------
    SingularFaceError
        If some face system is singular; carries face index and condition
        estimate.
    """
    k = l.count
    if k == 0 or v.count != k:
        raise DimensionMismatchError(
            f"beta system needs equal non-empty stacks, got {l.count} and {v.count}"
        )
    if l.dims != v.dims or rhs.dims != l.dims:
        raise DimensionMismatchError(
            f"beta system shapes disagree: l {l.dims}, v {v.dims}, rhs {rhs.dims}"
        )
    lh = _lateral_faces(l).conj().swapaxes(1, 2)
    big = lh @ _lateral_faces(v)
    return Stack4(_solve_stacked_faces(big, -(lh @ _faces(rhs.data)), k, rhs.n3))


def beta_to_gamma(beta: Stack4) -> Stack4:
    """Normalize beta to gamma: ``gamma_i = beta_i * inv(sum beta + I)``.

    The identity is appended as ``beta_k`` before summing, so the result
    has k+1 slices and sums to the identity.  A singular sum raises
    ``SingularFaceError``.
    """
    k = beta.count
    if k == 0:
        raise DimensionMismatchError("beta_to_gamma needs at least one beta slice")
    q1, q2, n3 = beta.dims
    if q1 != q2:
        raise DimensionMismatchError(f"beta slices must be square, got {beta.dims}")
    total = identity_tensor(q1, n3)
    for b in beta:
        total = total + b
    inv = tinverse(total)
    out = [tprod(b, inv) for b in beta]
    out.append(inv)
    return Stack4(out)


def gamma_to_alpha(gamma: Stack4, tol: float = 1e-8) -> Stack4:
    """Convert gamma (k+1 slices) to alpha (k slices) by the telescoping rule.

    ``alpha_0 = I - gamma_0`` and ``alpha_j = alpha_{j-1} - gamma_j``;
    the final ``alpha_{k-1}`` must coincide with ``gamma_k`` (equivalently
    ``sum gamma = I``), checked at relative tolerance ``tol``.
    """
    if gamma.count < 2:
        raise DimensionMismatchError("gamma_to_alpha needs at least two gamma slices")
    q1, q2, n3 = gamma.dims
    if q1 != q2:
        raise DimensionMismatchError(f"gamma slices must be square, got {gamma.dims}")
    eye = identity_tensor(q1, n3)
    alphas = [eye - gamma[0]]
    for j in range(1, gamma.count - 1):
        alphas.append(alphas[-1] - gamma[j])
    last = gamma[gamma.count - 1]
    scale = max(1.0, frobenius_norm(last))
    drift = frobenius_norm(alphas[-1] - last)
    if drift > tol * scale:
        raise NumericalConsistencyError(
            f"alpha/gamma consistency failed: |alpha_last - gamma_last| = {drift:.3e} "
            f"(tolerance {tol * scale:.3e}); upstream sum(gamma) != identity"
        )
    return Stack4(alphas)


def _degenerate_result(seq: TensorSequence, n: int, k: int) -> ExtrapolationResult:
    # fully converged sequence: all differences vanish, T_k = S_n exactly
    q = seq.dims[1]
    n3 = seq.dims[2]
    eye = identity_tensor(q, n3)
    zero = Tensor3(np.zeros((q, q, n3)))
    beta = Stack4([zero] * k)
    gamma = Stack4([zero] * k + [eye])
    alpha = Stack4([eye] * k)
    return ExtrapolationResult(
        t_k=seq[n],
        gamma=gamma,
        beta=beta,
        alpha=alpha,
        residual=Tensor3(np.zeros(seq.dims)),
    )


def extrapolate(
    seq: TensorSequence,
    n: int = 0,
    k: int = 1,
    method: str = "tmpe",
    custom_y: Stack4 | None = None,
) -> ExtrapolationResult:
    """Width-k polynomial extrapolation of the sequence at index n.

    Builds the test stack for ``method``, solves the beta system, converts
    to gamma and alpha, and returns

        ``T_k = S_n + sum_j DS_{n+j} * alpha_j``

    together with the generalized residual ``sum_{j<=k} DS_{n+j} * gamma_j``.
    A fully converged window (all differences zero) short-circuits to
    ``T_k = S_n``; an identically zero test stack is rejected as degenerate.
    """
    delta, _ = difference_stacks(seq, n, k)
    if all(frobenius_norm(d) == 0.0 for d in delta):
        return _degenerate_result(seq, n, k)
    l = build_y_stack(method, seq, n, k, custom_y)
    if all(frobenius_norm(y) == 0.0 for y in l):
        raise SingularFaceError(
            f"degenerate {method.upper()} system: test stack is identically zero"
        )
    v = delta[:k]
    beta = solve_beta_system(l, v, delta[k])
    gamma = beta_to_gamma(beta)
    alpha = gamma_to_alpha(gamma)
    t_k = seq[n] + star(v, alpha)
    residual = star(delta, gamma)
    return ExtrapolationResult(t_k=t_k, gamma=gamma, beta=beta, alpha=alpha, residual=residual)


def ttea_solve(seq: TensorSequence, n: int, k: int, y: Tensor3) -> tuple[Tensor3, Stack4]:
    """Topological epsilon transform: returns ``(E_k, beta)``.

    Solves the k x k block system with Hankel-type blocks
    ``ttranspose(y) * D2S_{n+i+j-1}`` (row j = 0..k-1, column i = 1..k)
    against right-hand sides ``-ttranspose(y) * DS_{n+j}``, then forms
    ``E_k = S_n + sum_i DS_{n+i-1} * beta_i``.  Needs 2k+1 terms from
    index n.
    """
    if k < 1:
        raise InsufficientSequenceError(f"TTEA needs k >= 1, got {k}")
    if y.dims != seq.dims:
        raise DimensionMismatchError(
            f"TTEA test tensor dims {y.dims} do not match sequence dims {seq.dims}"
        )
    seq.require(n + 2 * k + 1, f"TTEA width {k} at n={n}")
    n2 = seq.dims[1]
    n3 = seq.dims[2]
    delta = [seq[n + j + 1] - seq[n + j] for j in range(2 * k)]
    if all(frobenius_norm(d) == 0.0 for d in delta):
        # converged window: E_k = S_n with vanishing coefficients
        zero = Tensor3(np.zeros((n2, n2, n3)))
        return seq[n], Stack4([zero] * k)
    delta2 = [delta[j + 1] - delta[j] for j in range(2 * k - 1)]
    yh = _faces(y.data).conj().swapaxes(1, 2)
    # face blocks y^H D2S_m for every m side by side; block row j is the
    # window m = j .. j+k-1, so the rows are Hankel
    moments = yh @ _lateral_faces(delta2)
    big = np.concatenate([moments[:, :, j * n2 : (j + k) * n2] for j in range(k)], axis=1)
    first = -(yh @ _lateral_faces(delta[:k]))
    rhs = np.concatenate([first[:, :, j * n2 : (j + 1) * n2] for j in range(k)], axis=1)
    betas = _solve_stacked_faces(big, rhs, k, n3)
    e_k = seq[n]
    for i in range(1, k + 1):
        e_k = e_k + tprod(delta[i - 1], betas[i - 1])
    return e_k, Stack4(betas)
