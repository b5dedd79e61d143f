import numpy as np
import pytest

from textrap import (
    DimensionMismatchError,
    SingularFaceError,
    Stack4,
    Stack5,
    Tensor3,
    adjoint_swap,
    bar_star,
    diamond,
    frobenius_norm,
    identity_tensor,
    left_inverse,
    star,
    tprod,
    ttranspose,
    verify_left_inverse,
)

RNG = np.random.default_rng(20240803)


def rand(n1, n2, n3):
    return Tensor3(RNG.standard_normal((n1, n2, n3)))


def rand_stack(count, n1, n2, n3):
    return Stack4([rand(n1, n2, n3) for _ in range(count)])


def stacks_close(a: Stack4, b: Stack4, tol=1e-10) -> bool:
    return a.count == b.count and all(
        frobenius_norm(x - y) <= tol for x, y in zip(a, b)
    )


def grids_close(a: Stack5, b: Stack5, tol=1e-10) -> bool:
    if a.grid_shape != b.grid_shape:
        return False
    k, ell = a.grid_shape
    return all(
        frobenius_norm(a.block(i, j) - b.block(i, j)) <= tol
        for i in range(k)
        for j in range(ell)
    )


# ---------------------------------------------------------------------------
# definitions against explicit loops


def test_diamond_full_case_blocks():
    a = rand_stack(3, 4, 2, 5)  # l = 3
    b = rand_stack(2, 4, 2, 5)  # k = 2
    g = diamond(a, b)
    assert g.grid_shape == (2, 3)
    for j in range(2):
        for i in range(3):
            want = tprod(ttranspose(a[i]), b[j])
            assert frobenius_norm(g.block(j, i) - want) == 0.0


def test_diamond_degenerate_case():
    a = rand_stack(3, 4, 2, 5)
    y = rand(4, 3, 5)
    out = diamond(a, y)
    assert isinstance(out, Stack4) and out.count == 3
    for i in range(3):
        assert frobenius_norm(out[i] - tprod(ttranspose(a[i]), y)) == 0.0


def test_diamond_validation():
    with pytest.raises(DimensionMismatchError):
        diamond(Stack4([]), rand(2, 2, 2))
    with pytest.raises(DimensionMismatchError):
        diamond(rand_stack(2, 3, 2, 4), Stack4([]))
    with pytest.raises(DimensionMismatchError):
        diamond(rand_stack(2, 3, 2, 4), rand_stack(2, 4, 2, 4))


def test_star_grid_contraction():
    g = diamond(rand_stack(3, 4, 2, 5), rand_stack(2, 4, 2, 5))  # 2 x 3 grid
    b = rand_stack(2, 2, 6, 5)
    out = star(g, b)
    assert out.count == 3
    for i in range(3):
        want = tprod(g.block(0, i), b[0]) + tprod(g.block(1, i), b[1])
        assert frobenius_norm(out[i] - want) < 1e-12
    with pytest.raises(DimensionMismatchError):
        star(g, rand_stack(3, 2, 6, 5))


def test_star_stack_collapse():
    a = rand_stack(3, 4, 2, 5)
    b = rand_stack(3, 2, 6, 5)
    out = star(a, b)
    assert isinstance(out, Tensor3)
    want = tprod(a[0], b[0]) + tprod(a[1], b[1]) + tprod(a[2], b[2])
    assert frobenius_norm(out - want) < 1e-12
    with pytest.raises(DimensionMismatchError):
        star(a, rand_stack(2, 2, 6, 5))
    with pytest.raises(DimensionMismatchError):
        star(a, Stack4([]))
    with pytest.raises(DimensionMismatchError):
        star(a[0], b)


def test_bar_star_definition():
    a = diamond(rand_stack(3, 4, 2, 5), rand_stack(2, 4, 2, 5))  # 2 x 3
    b = diamond(rand_stack(3, 2, 2, 5), rand_stack(2, 2, 2, 5))  # 2 x 3
    out = bar_star(a, b)
    assert out.grid_shape == (2, 2)
    for tau in range(2):
        for eta in range(2):
            want = sum(
                (tprod(a.block(eta, j), b.block(tau, j)) for j in range(1, 3)),
                tprod(a.block(eta, 0), b.block(tau, 0)),
            )
            assert frobenius_norm(out.block(tau, eta) - want) < 1e-12
    with pytest.raises(DimensionMismatchError):
        bar_star(a, diamond(rand_stack(2, 2, 2, 5), rand_stack(2, 2, 2, 5)))


# ---------------------------------------------------------------------------
# algebraic identities


def test_diamond_distributes_over_addition():
    a, a2 = rand_stack(3, 4, 2, 5), rand_stack(3, 4, 2, 5)
    b, b2 = rand_stack(2, 4, 2, 5), rand_stack(2, 4, 2, 5)
    assert grids_close(diamond(a + a2, b), diamond(a, b) + diamond(a2, b))
    assert grids_close(diamond(a, b + b2), diamond(a, b) + diamond(a, b2))


def test_diamond_star_mixed_associativity():
    # (A <> B) * D == A <> (B * D)
    a = rand_stack(3, 4, 2, 5)
    b = rand_stack(2, 4, 2, 5)
    d = rand_stack(2, 2, 2, 5)
    lhs = star(diamond(a, b), d)
    rhs = diamond(a, star(b, d))
    assert stacks_close(lhs, rhs)


def test_bar_star_star_associativity():
    # (A ~* B) * Y == A' * (B * Y) with A' the adjoint-swapped grid
    k = 3
    a = diamond(rand_stack(k, 4, 2, 5), rand_stack(k, 4, 2, 5))
    b = diamond(rand_stack(k, 2, 2, 5), rand_stack(k, 2, 2, 5))
    y = rand_stack(k, 2, 3, 5)
    lhs = star(bar_star(a, b), y)
    rhs = star(adjoint_swap(a), star(b, y))
    assert stacks_close(lhs, rhs)


def test_adjoint_swap_involution():
    g = diamond(rand_stack(3, 4, 2, 5), rand_stack(3, 4, 2, 5))
    gswap = adjoint_swap(g)
    assert grids_close(adjoint_swap(gswap), g, tol=0.0)
    for i in range(3):
        for j in range(3):
            # grid transposition only: blocks are views of the same entries
            assert np.array_equal(gswap.block(i, j).data, g.block(j, i).data)
            assert np.shares_memory(gswap.block(i, j).data, g.block(j, i).data)
    rect = diamond(rand_stack(3, 4, 2, 5), rand_stack(2, 4, 2, 5))
    with pytest.raises(DimensionMismatchError):
        adjoint_swap(rect)


def test_scalar_reduction_to_inner_product_matrix():
    # n3 = 1, n2 = 1: diamond is the matrix of Euclidean inner products
    xs = [RNG.standard_normal((4, 1, 1)) for _ in range(3)]
    ys = [RNG.standard_normal((4, 1, 1)) for _ in range(2)]
    g = diamond(Stack4(xs), Stack4(ys))
    for j in range(2):
        for i in range(3):
            want = float(xs[i][:, 0, 0] @ ys[j][:, 0, 0])
            assert g.block(j, i).data[0, 0, 0] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# left inverses


def test_left_inverse_round_trip():
    k, ell = 2, 3  # ell * n1 >= k * n2 with the dims below
    b = Stack5([[rand(4, 2, 3) for _ in range(ell)] for _ in range(k)])
    binv = left_inverse(b)
    assert binv.grid_shape == (k, ell)
    assert verify_left_inverse(binv, b)
    prod = bar_star(binv, b)
    eye = identity_tensor(2, 3)
    for tau in range(k):
        for eta in range(k):
            want = eye if tau == eta else Tensor3(np.zeros((2, 2, 3)))
            assert frobenius_norm(prod.block(tau, eta) - want) < 1e-8
    wide = Stack5([[rand(3, 4, 3) for _ in range(ell)] for _ in range(k)])
    with pytest.raises(DimensionMismatchError):
        verify_left_inverse(wide, b)


def test_left_inverse_underdetermined_rejected():
    b = Stack5([[rand(2, 3, 2)] for _ in range(2)])  # 1*2 < 2*3
    with pytest.raises(DimensionMismatchError):
        left_inverse(b)


def test_left_inverse_rank_deficient_raises():
    zero = Tensor3(np.zeros((4, 2, 3)))
    b = Stack5([[zero, zero, zero] for _ in range(2)])
    with pytest.raises(SingularFaceError):
        left_inverse(b)


def test_verify_left_inverse_negative():
    k, ell = 2, 3
    b = Stack5([[rand(4, 2, 3) for _ in range(ell)] for _ in range(k)])
    binv = left_inverse(b)
    wrong = Stack5(
        [[2.0 * binv.block(i, j) for j in range(ell)] for i in range(k)]
    )
    assert not verify_left_inverse(wrong, b)
