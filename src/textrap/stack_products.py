"""Products on 4- and 5-mode stacks: diamond, star, bar-star, adjoint.

A Stack4 is an ordered list of Tensor3 slices; a Stack5 is a grid of
Tensor3 blocks addressed as ``block(i, j)`` = (mode-4 index i, mode-5
index j).  The diamond product of an l-stack with a k-stack is the k x l
grid with ``block(j, i) = ttranspose(a[i]) * b[j]``; star contracts a grid
against a stack along mode 4; bar-star contracts two equal grids along
mode 5.  All three reduce to familiar matrix constructions when every
block is 1 x 1 x 1.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SingularFaceError
from .tensor_core import (
    Stack4,
    Stack5,
    Tensor3,
    _face_linalg,
    _faces,
    _unfaces,
    frobenius_norm,
    identity_tensor,
)
from .tproduct_algebra import tprod, ttranspose

__all__ = [
    "diamond",
    "star",
    "bar_star",
    "adjoint_swap",
    "verify_left_inverse",
    "left_inverse",
]


def diamond(a: Stack4, b):
    """Diamond product of stacks.

    ``a`` holds l slices, ``b`` either holds k slices (full case) or is a
    single Tensor3 (degenerate case).  The full case returns the k x l
    Stack5 with ``block(j, i) = ttranspose(a[i]) * b[j]``; the degenerate
    case returns the Stack4 whose i-th slice is ``ttranspose(a[i]) * b``.
    """
    if a.count == 0:
        raise DimensionMismatchError("diamond requires a non-empty left stack")
    if isinstance(b, Tensor3):
        return Stack4(tprod(ttranspose(ai), b) for ai in a)
    if not isinstance(b, Stack4) or b.count == 0:
        raise DimensionMismatchError("diamond requires a Tensor3 or non-empty Stack4 right operand")
    if a.dims[0] != b.dims[0] or a.dims[2] != b.dims[2]:
        raise DimensionMismatchError(
            f"diamond operands must agree in n1 and n3: {a.dims} vs {b.dims}"
        )
    return Stack5(
        tuple(tprod(ttranspose(ai), bj) for ai in a) for bj in b
    )


def star(a, b: Stack4):
    """Star contraction against the k slices of ``b``.

    For a Stack5 ``a`` with grid k x l the result is the Stack4 whose i-th
    slice is ``sum_j a.block(j, i) * b[j]``.  For a Stack4 ``a`` with the
    same count as ``b`` the result collapses to the single Tensor3
    ``sum_j a[j] * b[j]``.
    """
    if b.count == 0:
        raise DimensionMismatchError("star requires a non-empty right stack")
    if isinstance(a, Stack4):
        if a.count != b.count:
            raise DimensionMismatchError(
                f"star stack counts disagree: {a.count} vs {b.count}"
            )
        total = tprod(a[0], b[0])
        for aj, bj in zip(a[1:], b[1:]):
            total = total + tprod(aj, bj)
        return total
    if not isinstance(a, Stack5):
        raise DimensionMismatchError("star left operand must be a Stack4 or Stack5")
    k, ell = a.grid_shape
    if k != b.count:
        raise DimensionMismatchError(
            f"star requires mode-4 extent {k} to match slice count {b.count}"
        )
    out = []
    for i in range(ell):
        total = tprod(a.block(0, i), b[0])
        for j in range(1, k):
            total = total + tprod(a.block(j, i), b[j])
        out.append(total)
    return Stack4(out)


def bar_star(a: Stack5, b: Stack5) -> Stack5:
    """Bar-star contraction of two k x l grids along mode 5.

    ``block(tau, eta)`` of the result is ``sum_j a.block(eta, j) * b.block(tau, j)``,
    giving a k x k grid.  Grid shapes must match exactly; no broadcasting.
    """
    if a.grid_shape != b.grid_shape:
        raise DimensionMismatchError(
            f"bar-star grid shapes disagree: {a.grid_shape} vs {b.grid_shape}"
        )
    k, ell = a.grid_shape
    rows = []
    for tau in range(k):
        row = []
        for eta in range(k):
            total = tprod(a.block(eta, 0), b.block(tau, 0))
            for j in range(1, ell):
                total = total + tprod(a.block(eta, j), b.block(tau, j))
            row.append(total)
        rows.append(tuple(row))
    return Stack5(rows)


def adjoint_swap(a: Stack5) -> Stack5:
    """Index-swap adjoint of a square grid: ``block(i, j) -> block(j, i)``."""
    k, ell = a.grid_shape
    if k != ell:
        raise DimensionMismatchError(f"adjoint requires a square grid, got {k} x {ell}")
    return Stack5(tuple(a.block(j, i) for j in range(k)) for i in range(k))


def verify_left_inverse(binv: Stack5, b: Stack5, tol: float = 1e-8) -> bool:
    """Check the left-inverse conditions: ``(binv bar-star b)`` has identity
    diagonal blocks and zero off-diagonal blocks, each within ``tol`` in
    Frobenius norm."""
    prod = bar_star(binv, b)
    k, _ = prod.grid_shape
    n = prod.block_dims[0]
    n3 = prod.block_dims[2]
    if prod.block_dims[0] != prod.block_dims[1]:
        raise DimensionMismatchError(
            f"left-inverse product blocks must be square, got {prod.block_dims}"
        )
    eye = identity_tensor(n, n3)
    zero = Tensor3.zeros(n, n, n3)
    for tau in range(k):
        for eta in range(k):
            target = eye if tau == eta else zero
            if frobenius_norm(prod.block(tau, eta) - target) > tol:
                return False
    return True


def left_inverse(b: Stack5, tol: float = 1e-8) -> Stack5:
    """Face-domain left-inverse construction for a k x l grid.

    The grid blocks are placed into one (l*n1) x (k*n2) x n3 tensor whose
    block row ``j`` and block column ``tau`` is ``b.block(tau, j)``; a left
    inverse exists iff every DFT face of it has full column rank, in which
    case the face pseudoinverses supply the blocks of the result.  All
    faces of the real-FFT half spectrum are pseudo-inverted in one batched
    call, and a face counts as rank-deficient when its left-identity
    residual ``|pinv @ face - I|`` exceeds ``tol``.  Existence is
    input-dependent: the first rank-deficient face raises
    ``SingularFaceError``.
    """
    k, ell = b.grid_shape
    n1, n2, n3 = b.block_dims
    if ell * n1 < k * n2:
        raise DimensionMismatchError(
            f"no left inverse: stacked face system is {ell * n1} x {k * n2} (underdetermined)"
        )
    grid = np.array([[b.block(tau, j).data for tau in range(k)] for j in range(ell)])
    stacked = _faces(grid.transpose(0, 2, 1, 3, 4).reshape(ell * n1, k * n2, n3))
    pinv = _face_linalg(np.linalg.pinv, stacked)
    residual = np.linalg.norm(pinv @ stacked - np.eye(k * n2), axis=(1, 2))
    bad = np.flatnonzero(residual > tol)
    if bad.size:
        f = int(bad[0])
        raise SingularFaceError(
            f"no left inverse: face {f} block system is rank-deficient "
            f"(left-identity residual {residual[f]:.3e})",
            face_index=f,
        )
    out = _unfaces(pinv, n3).data
    return Stack5(
        tuple(
            Tensor3(out[eta * n2 : (eta + 1) * n2, j * n1 : (j + 1) * n1])
            for j in range(ell)
        )
        for eta in range(k)
    )
