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
    InvalidParameterError,
    NumericalConsistencyError,
    SingularFaceError,
)
from .stack_products import star
from .tensor_core import (
    Stack4,
    Tensor3,
    _adjoint,
    _faces,
    _require_int,
    _stack_layout,
    _unfaces,
    _wrap,
    frobenius_norm,
    identity_tensor,
)
from .tproduct_algebra import IDENTITY_TOL, _face_solve, tinverse, tprod

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


class TensorSequence(Stack4):
    """Ordered non-empty sequence of equally sized Tensor3 terms S_0, S_1, ..."""

    __slots__ = ()

    def __init__(self, terms):
        super().__init__(terms)
        if not len(self):
            raise InsufficientSequenceError("a sequence needs at least one term")

    terms = Stack4.slices

    def require(self, count: int, what: str) -> None:
        if len(self) < count:
            raise InsufficientSequenceError(
                f"{what} needs {count} terms, sequence has {len(self)}"
            )


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
    An ``n`` or ``k`` that is not an integer raises ``InvalidParameterError``.
    """
    _require_int(n, "n")
    _require_int(k, "k")
    if n < 0 or k < 1:
        raise InsufficientSequenceError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    seq.require(n + k + 2, f"width-{k} extrapolation at n={n}")
    delta = np.diff(seq._data[n : n + k + 2], axis=0)
    return _wrap(Stack4, delta), _wrap(Stack4, np.diff(delta, axis=0))


def default_tmmpe_y(dims: tuple[int, int, int], k: int) -> Stack4:
    """Deterministic fixed test stack for TMMPE.

    Slice i has a single nonzero frontal slice (the first), whose columns
    are canonical basis vectors starting at row ``i * n2``, echoing the
    lateral canonical tensors used to extract entries of a product.  The
    stride keeps all ``k * n2`` projection directions distinct (hence the
    stacked system nondegenerate) whenever ``k * n2 <= n1``.  A ``k`` that
    is not an integer of at least 1 raises ``InvalidParameterError``.
    """
    _require_int(k, "k")
    if k < 1:
        raise InvalidParameterError("k", f"k must be >= 1, got {k}")
    n1, n2, n3 = dims
    data = np.zeros((k, n1, n2, n3))
    i, c = np.divmod(np.arange(k * n2), n2)
    data[i, (i * n2 + c) % n1, c, 0] = 1.0
    return _wrap(Stack4, data)


def build_y_stack(
    method: str,
    seq: TensorSequence,
    n: int,
    k: int,
    custom_y: Stack4 | None = None,
) -> Stack4:
    """Test stack Y_1..Y_k for the chosen method (see module docstring).

    An unknown ``method``, or TMMPE without ``custom_y``, raises
    ``InvalidParameterError`` naming that parameter.
    """
    return _test_stack(method, seq.dims, k, custom_y, lambda: difference_stacks(seq, n, k))


def _test_stack(method: str, dims, k: int, custom_y, differences) -> Stack4:
    """:func:`build_y_stack` with the window's ``(DS, D2S)`` returned by the
    call ``differences()``, made only if the method needs them."""
    name = method.lower()
    if name not in METHODS:
        raise InvalidParameterError(
            "method", f"method must be one of {METHODS}, got {method!r}"
        )
    if name == "tmmpe":
        if custom_y is None:
            raise InvalidParameterError(
                "custom_y", "TMMPE requires custom_y (or build one with default_tmmpe_y)"
            )
        if custom_y.count != k:
            raise DimensionMismatchError(
                f"TMMPE custom_y needs {k} slices, got {custom_y.count}"
            )
        if custom_y.dims != dims:
            raise DimensionMismatchError(
                f"TMMPE custom_y dims {custom_y.dims} do not match sequence dims {dims}"
            )
        return custom_y
    delta, delta2 = differences()
    return delta[:k] if name == "tmpe" else delta2


def _solve_stacked_faces(big: np.ndarray, rhs: np.ndarray, k: int, n3: int) -> Stack4:
    """Solve the block system sum_j M[i][j] * x_j = R[i] on every DFT face.

    ``big`` is the (F, k*q, k*q) stack of half-spectrum faces of the block
    matrix (block row i, block column j) and ``rhs`` the (F, k*q, m) stack
    of the stacked right-hand sides.  Unless the one face rule refuses them
    (see ``tinverse``), all faces are solved in one batched LU, which
    settles the rule (an SVD runs only within a factor 2 of refusal).  Returns
    the stack of the k solution tensors of dims (q, m, n3).
    """
    solution = _unfaces(_face_solve(big, rhs, "block system "), n3)
    return _wrap(Stack4, solution.data.reshape(k, -1, *solution.dims[1:]))


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
        If the one face rule refuses the face systems (see ``tinverse``).
        The LU that solves them settles the rule; an SVD runs only near it.
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
    lh = _adjoint(_faces(_stack_layout(l).data))
    big = lh @ _faces(_stack_layout(v).data)
    return _solve_stacked_faces(big, -(lh @ _faces(rhs.data)), k, rhs.n3)


def beta_to_gamma(beta: Stack4) -> Stack4:
    """Normalize beta to gamma: ``gamma_i = beta_i * inv(sum beta + I)``.

    The identity is appended as ``beta_k`` before summing, so the result
    has k+1 slices and sums to the identity.  A singular sum raises
    ``SingularFaceError``.  The k products share the inverse, so they are
    one T-product of the betas laid on top of each other.
    """
    k = beta.count
    if k == 0:
        raise DimensionMismatchError("beta_to_gamma needs at least one beta slice")
    q1, q2, n3 = beta.dims
    if q1 != q2:
        raise DimensionMismatchError(f"beta slices must be square, got {beta.dims}")
    total = np.concatenate([identity_tensor(q1, n3).data[None], beta._data]).sum(axis=0)
    inv = tinverse(Tensor3(total))
    gammas = tprod(_stack_layout(beta, on_top=True), inv).data.reshape(k, q1, q1, n3)
    return _wrap(Stack4, np.concatenate([gammas, inv.data[None]]))


def gamma_to_alpha(gamma: Stack4) -> Stack4:
    """Convert gamma (k+1 slices) to alpha (k slices) by the telescoping rule.

    ``alpha_0 = I - gamma_0`` and ``alpha_j = alpha_{j-1} - gamma_j``;
    the final ``alpha_{k-1}`` must coincide with ``gamma_k`` (equivalently
    ``sum gamma = I``): their drift, relative to ``max(1, |gamma_k|)``, must
    be at most ``IDENTITY_TOL``; NaN fails it.
    """
    if gamma.count < 2:
        raise DimensionMismatchError("gamma_to_alpha needs at least two gamma slices")
    q1, q2, n3 = gamma.dims
    if q1 != q2:
        raise DimensionMismatchError(f"gamma slices must be square, got {gamma.dims}")
    # alpha_j = I - gamma_0 - ... - gamma_j, subtracted in that order
    terms = np.concatenate([identity_tensor(q1, n3).data[None], -gamma._data[:-1]])
    alphas = _wrap(Stack4, np.cumsum(terms, axis=0)[1:])
    last = gamma[-1]
    scale = max(1.0, frobenius_norm(last))
    drift = frobenius_norm(alphas[-1] - last)
    if not drift <= IDENTITY_TOL * scale:  # written so that NaN fails the check
        raise NumericalConsistencyError(
            f"alpha/gamma consistency failed: |alpha_last - gamma_last| = {drift:.3e} "
            f"(tolerance {IDENTITY_TOL * scale:.3e}); upstream sum(gamma) != identity"
        )
    return alphas


def _degenerate_result(seq: TensorSequence, n: int, k: int) -> ExtrapolationResult:
    # fully converged sequence: all differences vanish, T_k = S_n exactly
    _, q, n3 = seq.dims
    eye = identity_tensor(q, n3).data
    gamma = np.zeros((k + 1, q, q, n3))
    gamma[k] = eye
    return ExtrapolationResult(
        t_k=seq[n],
        gamma=_wrap(Stack4, gamma),
        beta=_wrap(Stack4, gamma[:k]),
        alpha=_wrap(Stack4, np.broadcast_to(eye, (k, q, q, n3))),
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
    delta, delta2 = difference_stacks(seq, n, k)
    if np.linalg.norm(delta._data) == 0.0:
        return _degenerate_result(seq, n, k)
    l = _test_stack(method, seq.dims, k, custom_y, lambda: (delta, delta2))
    if np.linalg.norm(l._data) == 0.0:
        raise SingularFaceError(
            f"degenerate {method.upper()} system: test stack is identically zero"
        )
    beta = solve_beta_system(l, delta[:k], delta[k])
    gamma = beta_to_gamma(beta)
    alpha = gamma_to_alpha(gamma)
    # one transform of the differences serves both contractions, against the
    # coefficients [alpha; 0] and gamma side by side
    _, q, n3 = seq.dims
    coef = np.zeros((k + 1, q, 2 * q, n3))
    coef[:k, :, :q], coef[:, :, q:] = alpha._data, gamma._data
    both = star(delta, _wrap(Stack4, coef)).data
    return ExtrapolationResult(t_k=seq[n] + Tensor3(both[:, :q]), gamma=gamma, beta=beta,
                               alpha=alpha, residual=Tensor3(both[:, q:]))


def ttea_solve(seq: TensorSequence, n: int, k: int, y: Tensor3) -> tuple[Tensor3, Stack4]:
    """Topological epsilon transform: returns ``(E_k, beta)``.

    Solves the k x k block system with Hankel-type blocks
    ``ttranspose(y) * D2S_{n+i+j-1}`` (row j = 0..k-1, column i = 1..k)
    against right-hand sides ``-ttranspose(y) * DS_{n+j}``, then forms
    ``E_k = S_n + sum_i DS_{n+i-1} * beta_i``.  Needs n >= 0, k >= 1 and
    2k+1 terms from index n; an ``n`` or ``k`` that is not an integer raises
    ``InvalidParameterError``.
    """
    _require_int(n, "n")
    _require_int(k, "k")
    if n < 0 or k < 1:
        raise InsufficientSequenceError(f"TTEA needs n >= 0 and k >= 1, got n={n}, k={k}")
    if y.dims != seq.dims:
        raise DimensionMismatchError(
            f"TTEA test tensor dims {y.dims} do not match sequence dims {seq.dims}"
        )
    _, n2, n3 = seq.dims
    delta, delta2 = difference_stacks(seq, n, 2 * k - 1)
    if np.linalg.norm(delta._data) == 0.0:
        # converged window: E_k = S_n with vanishing coefficients
        return seq[n], _wrap(Stack4, np.zeros((k, n2, n2, n3)))
    yh = _adjoint(_faces(y.data))
    # face blocks y^H D2S_m for every m side by side; block row j is the
    # window m = j .. j+k-1, so the rows are Hankel
    moments = yh @ _faces(_stack_layout(delta2).data)
    big = np.concatenate([moments[:, :, j * n2 : (j + k) * n2] for j in range(k)], axis=1)
    # block row j of the right-hand side is -y^H DS_j
    first = -(yh @ _faces(_stack_layout(delta[:k]).data))
    f, p = first.shape[:2]
    rhs = first.reshape(f, p, k, n2).transpose(0, 2, 1, 3).reshape(f, k * p, n2)
    betas = _solve_stacked_faces(big, rhs, k, n3)
    return seq[n] + star(delta[:k], betas), betas
