"""Products on 4- and 5-mode stacks: diamond, star, bar-star, adjoint.

A Stack4 holds its slices as one ``(count, n1, n2, n3)`` array; a Stack5
holds a grid of blocks addressed as ``block(i, j)`` = (mode-4 index i,
mode-5 index j) as one ``(k, l, n1, n2, n3)`` array.  The diamond product
of an l-stack with a k-stack is the k x l grid with
``block(j, i) = ttranspose(a[i]) * b[j]``; star contracts a grid against a
stack along mode 4; bar-star contracts two equal grids along mode 5.  All
three reduce to familiar matrix constructions when every block is
1 x 1 x 1.  Each contraction (star, bar-star) is one T-product: the
operands are laid out as block tensors by a transpose and reshape of their
arrays, the T-product multiplies all faces in a single batched matmul, and
a reshape of the result gives its blocks.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SingularFaceError
from .tensor_core import (
    Stack4,
    Stack5,
    Tensor3,
    _faces,
    _grid_layout,
    _stack_layout,
    _unfaces,
    _wrap,
)
from .tproduct_algebra import IDENTITY_TOL, tprod, ttranspose
from .tsvd import _face_pinv, _face_svd

__all__ = [
    "diamond",
    "star",
    "bar_star",
    "adjoint_swap",
    "verify_left_inverse",
    "left_inverse",
]


def _grid_of(t: Tensor3, k: int, ell: int, transpose: bool = False) -> Stack5:
    """The k x l grid whose ``_grid_layout`` (with ``transpose``) is ``t``."""
    rows, cols = (ell, k) if transpose else (k, ell)
    n1, n2, n3 = t.dims
    blocks = t.data.reshape(rows, n1 // rows, cols, n2 // cols, n3)
    return _wrap(Stack5, blocks.transpose((2, 0, 1, 3, 4) if transpose else (0, 2, 1, 3, 4)))


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
        return tprod(_stack_layout(a), _stack_layout(b, on_top=True))
    if not isinstance(a, Stack5):
        raise DimensionMismatchError("star left operand must be a Stack4 or Stack5")
    k, ell = a.grid_shape
    if k != b.count:
        raise DimensionMismatchError(
            f"star requires mode-4 extent {k} to match slice count {b.count}"
        )
    out = tprod(_grid_layout(a, transpose=True), _stack_layout(b, on_top=True))
    return _wrap(Stack4, out.data.reshape(ell, -1, *out.dims[1:]))


def bar_star(a: Stack5, b: Stack5) -> Stack5:
    """Bar-star contraction of two k x l grids along mode 5.

    ``block(tau, eta)`` of the result is ``sum_j a.block(eta, j) * b.block(tau, j)``,
    giving a k x k grid.  Grid shapes must match exactly; no broadcasting.
    """
    if a.grid_shape != b.grid_shape:
        raise DimensionMismatchError(
            f"bar-star grid shapes disagree: {a.grid_shape} vs {b.grid_shape}"
        )
    k, _ = a.grid_shape
    prod = tprod(_grid_layout(a), _grid_layout(b, transpose=True))
    # block (eta, tau) of the product is block (tau, eta) of the result
    return _grid_of(prod, k, k, transpose=True)


def adjoint_swap(a: Stack5) -> Stack5:
    """Index-swap adjoint of a square grid: ``block(i, j) -> block(j, i)``."""
    k, ell = a.grid_shape
    if k != ell:
        raise DimensionMismatchError(f"adjoint requires a square grid, got {k} x {ell}")
    return _wrap(Stack5, a._data.swapaxes(0, 1))


def verify_left_inverse(binv: Stack5, b: Stack5) -> bool:
    """Check the left-inverse conditions: ``(binv bar-star b)`` has identity
    diagonal blocks and zero off-diagonal blocks, each within ``IDENTITY_TOL``
    in Frobenius norm."""
    prod = bar_star(binv, b)
    k, _ = prod.grid_shape
    n, m, n3 = prod.block_dims
    if n != m:
        raise DimensionMismatchError(
            f"left-inverse product blocks must be square, got {prod.block_dims}"
        )
    residual = prod._data.copy()
    residual[range(k), range(k), :, :, 0] -= np.eye(n)
    return bool(np.sqrt((residual**2).sum(axis=(2, 3, 4))).max() <= IDENTITY_TOL)


def left_inverse(b: Stack5) -> Stack5:
    """Face-domain left-inverse construction for a k x l grid.

    The grid blocks are placed into one (l*n1) x (k*n2) x n3 tensor whose
    block row ``j`` and block column ``tau`` is ``b.block(tau, j)``; a left
    inverse exists iff every DFT face of it has full column rank, in which
    case the face pseudoinverses supply the blocks of the result.  All
    faces of the real-FFT half spectrum are pseudo-inverted at once, from
    the face SVDs and the ``PINV_RCOND`` cutoff of :mod:`textrap.tsvd`,
    and a face counts as rank-deficient when its left-identity residual
    ``|pinv @ face - I|`` exceeds ``IDENTITY_TOL``: the test
    :func:`verify_left_inverse` applies to the result, where the refusal
    rule's singular-value bound would accept faces whose result then fails
    it.  The first rank-deficient face raises ``SingularFaceError``.
    """
    k, ell = b.grid_shape
    n1, n2, n3 = b.block_dims
    if ell * n1 < k * n2:
        raise DimensionMismatchError(
            f"no left inverse: stacked face system is {ell * n1} x {k * n2} (underdetermined)"
        )
    stacked = _faces(_grid_layout(b, transpose=True).data)
    pinv = _face_pinv(*_face_svd(stacked))
    residual = np.linalg.norm(pinv @ stacked - np.eye(k * n2), axis=(1, 2))
    bad = np.flatnonzero(~(residual <= IDENTITY_TOL))
    if bad.size:
        f = int(bad[0])
        raise SingularFaceError(
            f"no left inverse: face {f} block system is rank-deficient "
            f"(left-identity residual {residual[f]:.3e})",
            face_index=f,
        )
    return _grid_of(_unfaces(pinv, n3), k, ell)
