"""Acceptance battery: ten numbered end-to-end criteria.

Each test covers one criterion, accumulates its worst-case metrics over a
fixed random batch, and prints exactly one PASS/FAIL line (visible with
``pytest -s``; the per-test PASSED/FAILED column of ``pytest -v`` mirrors
it).  Tolerances and batch sizes are pinned here and nowhere else.
"""
import time

import numpy as np

from oracles import (
    bcirc_pinv_apply,
    bcirc_pinv_tensor,
    brute_bcirc,
    brute_fold,
    brute_tprod,
    classical_mmpe,
    classical_mpe,
    classical_rre,
    classical_tea,
    closed_form_beta,
    face_singular_values,
    plain_truncation_errors,
    sequence_thetas,
    trre_tsvd_step,
)
from textrap import (
    Stack4,
    Tensor3,
    TensorSequence,
    build_sequence,
    check_moore_penrose,
    extrapolate,
    frobenius_norm,
    identity_tensor,
    solve,
    star,
    tinverse,
    tls_solve,
    tprod,
    tsvd,
    ttea_solve,
    ttranspose,
    ttsvd,
)
from textrap.cli import make_problem


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def _rel(got, want) -> float:
    return frobenius_norm(got - want) / max(1.0, frobenius_norm(want))


def test_criterion_01_tprod_matches_embedding_oracle():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n1, n2, n3 = (int(v) for v in rng.integers(1, 9, size=3))
        m = int(rng.integers(1, 9))
        x = Tensor3(rng.standard_normal((n1, n2, n3)))
        y = Tensor3(rng.standard_normal((n2, m, n3)))
        got = tprod(x, y).data
        want = brute_tprod(x.data, y.data)
        worst = max(worst, np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed <= 10.0
    _report(1, "t-product vs circulant embedding, 200 shapes", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_tsvd_reconstruction_contract():
    rng = np.random.default_rng(1002)
    started = time.perf_counter()
    worst_rec = worst_orth = worst_diag = 0.0
    for _ in range(100):
        dims = tuple(int(v) for v in rng.integers(1, 11, size=3))
        a = Tensor3(rng.standard_normal(dims))
        factors = tsvd(a)
        scale = frobenius_norm(a) or 1.0
        worst_rec = max(worst_rec, frobenius_norm(a - factors.reconstruction()) / scale)
        worst_orth = max(worst_orth, factors.orthogonality_residual())
        worst_diag = max(worst_diag, factors.f_diagonality_residual())
    elapsed = time.perf_counter() - started
    ok = (worst_rec <= 1e-10 and worst_orth <= 1e-8
          and worst_diag <= 1e-12 and elapsed <= 10.0)
    _report(2, "tsvd contract, 100 tensors", ok,
            f"recon {worst_rec:.2e}, orth {worst_orth:.2e}, "
            f"f-diag {worst_diag:.2e}, {elapsed:.1f}s")


def test_criterion_03_moore_penrose_axioms():
    rng = np.random.default_rng(1003)
    all_axioms = True
    worst_oracle = 0.0
    done = 0
    while done < 50:
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        n3 = int(rng.integers(1, 6))
        a = Tensor3(rng.standard_normal((n1, n2, n3)))
        sv = face_singular_values(a.data)
        if sv.min() < 0.05 * sv.max():
            continue  # full tubal rank with a conditioning margin
        _, apinv = ttsvd(a, min(n1, n2))
        all_axioms &= check_moore_penrose(a, apinv, tol=1e-8).passed
        oracle = bcirc_pinv_tensor(a.data)
        worst_oracle = max(
            worst_oracle,
            np.linalg.norm(apinv.data - oracle) / np.linalg.norm(oracle),
        )
        done += 1
    ok = all_axioms and worst_oracle <= 1e-8
    _report(3, "pseudoinverse axioms, 50 full-rank tensors", ok,
            f"axioms {'ok' if all_axioms else 'violated'}, "
            f"oracle dev {worst_oracle:.2e}")


def test_criterion_04_least_squares_and_minimum_norm():
    rng = np.random.default_rng(1004)
    worst_res = worst_norm = 0.0
    dominance = True
    for i in range(50):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        n3 = int(rng.integers(1, 5))
        w = int(rng.integers(1, 4))
        if i % 3 == 2:
            r = max(1, min(n1, n2) - 1)  # drop tubal rank below full
            a = tprod(Tensor3(rng.standard_normal((n1, r, n3))),
                      Tensor3(rng.standard_normal((r, n2, n3))))
        else:
            a = Tensor3(rng.standard_normal((n1, n2, n3)))
        if i % 3 == 0:
            b = tprod(a, Tensor3(rng.standard_normal((n2, w, n3))))  # consistent
        else:
            b = Tensor3(rng.standard_normal((n1, w, n3)))
        xhat = tls_solve(a, b)
        xorc = Tensor3(bcirc_pinv_apply(a.data, b.data))
        scale = max(1.0, frobenius_norm(b))
        res_hat = frobenius_norm(tprod(a, xhat) - b)
        res_orc = frobenius_norm(tprod(a, xorc) - b)
        worst_res = max(worst_res, abs(res_hat - res_orc) / scale)
        worst_norm = max(
            worst_norm,
            abs(frobenius_norm(xhat) - frobenius_norm(xorc))
            / max(1.0, frobenius_norm(xorc)),
        )
        # equal-residual alternatives: shifts along the embedding's null space
        _, s, vh = np.linalg.svd(brute_bcirc(a.data))
        null = vh[int(np.sum(s > s[0] * 1e-12)):]
        for _ in range(20 if null.size else 0):
            coeffs = rng.standard_normal(null.shape[0])
            shift = brute_fold((null.T @ coeffs)[:, None], (n2, 1, n3))
            alt = xhat.data.copy()
            c = int(rng.integers(0, w))
            alt[:, c : c + 1, :] += shift
            alt_t = Tensor3(alt)
            if abs(frobenius_norm(tprod(a, alt_t) - b) - res_hat) > 1e-8 * scale:
                dominance = False  # the alternative failed to keep the residual
            if frobenius_norm(xhat) > frobenius_norm(alt_t) + 1e-10:
                dominance = False
    ok = worst_res <= 1e-8 and worst_norm <= 1e-8 and dominance
    _report(4, "least-squares vs embedded pinv, 50 systems", ok,
            f"residual dev {worst_res:.2e}, norm dev {worst_norm:.2e}, "
            f"min-norm {'holds' if dominance else 'violated'}")


def test_criterion_05_truncation_error_identity():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(50):
        n1, n2 = (int(v) for v in rng.integers(2, 10, size=2))
        n3 = int(rng.integers(1, 6))
        a = Tensor3(rng.standard_normal((n1, n2, n3)))
        k = int(rng.integers(1, min(n1, n2)))
        factors, _ = ttsvd(a, k)
        lhs = frobenius_norm(a - factors.reconstruction()) ** 2
        sv = face_singular_values(a.data)
        rhs = float(np.sum(sv[:, k:] ** 2)) / n3
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-9
    _report(5, "truncation energy identity, 50 tensors", ok,
            f"max rel dev {worst:.2e}")


def test_criterion_06_classical_vector_reduction():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(4, n)))
        start = int(rng.integers(0, 3))
        m = rng.standard_normal((n, n))
        m *= 0.6 / max(abs(np.linalg.eigvals(m)))
        c = rng.standard_normal(n)
        vecs = [rng.standard_normal(n)]
        for _ in range(start + 2 * k + 1):
            vecs.append(m @ vecs[-1] + c)
        seq = TensorSequence([Tensor3(v.reshape(n, 1, 1)) for v in vecs])
        qs = [rng.standard_normal(n) for _ in range(k)]
        y_stack = Stack4([Tensor3(q.reshape(n, 1, 1)) for q in qs])
        yv = rng.standard_normal(n)
        pairs = (
            (extrapolate(seq, start, k, "tmpe").t_k, classical_mpe(vecs, start, k)),
            (extrapolate(seq, start, k, "trre").t_k, classical_rre(vecs, start, k)),
            (extrapolate(seq, start, k, "tmmpe", custom_y=y_stack).t_k,
             classical_mmpe(vecs, start, k, qs)),
            (ttea_solve(seq, start, k, Tensor3(yv.reshape(n, 1, 1)))[0],
             classical_tea(vecs, start, k, yv)),
        )
        for got, want in pairs:
            dev = np.linalg.norm(got.data[:, 0, 0] - want)
            worst = max(worst, dev / max(1.0, np.linalg.norm(want)))
    ok = worst <= 1e-8
    _report(6, "scalar-tube reduction to classical oracles, 50 sequences", ok,
            f"max rel dev {worst:.2e}")


def test_criterion_07_finite_termination_on_linear_sequences():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(20):
        width = int(rng.integers(1, 4))
        n3 = int(rng.integers(1, 5))
        n = width + int(rng.integers(0, 3))
        q = tsvd(Tensor3(rng.standard_normal((n, n, n3)))).u
        eig = rng.uniform(0.15, 0.8, size=width) * rng.choice([-1.0, 1.0], size=width)
        diag = np.concatenate([eig, eig[rng.integers(0, width, size=n - width)]])
        d = np.zeros((n, n, n3))
        d[np.arange(n), np.arange(n), 0] = diag
        m = tprod(tprod(q, Tensor3(d)), ttranspose(q))
        c = Tensor3(rng.standard_normal((n, 1, n3)))
        fixed = tprod(tinverse(identity_tensor(n, n3) - m), c)
        terms = [Tensor3(rng.standard_normal((n, 1, n3)))]
        for _ in range(2 * width + 1):
            terms.append(tprod(m, terms[-1]) + c)
        seq = TensorSequence(terms)
        y_stack = Stack4(
            [Tensor3(rng.standard_normal((n, 1, n3))) for _ in range(width)]
        )
        outs = (
            extrapolate(seq, 0, width, "tmpe").t_k,
            extrapolate(seq, 0, width, "trre").t_k,
            extrapolate(seq, 0, width, "tmmpe", custom_y=y_stack).t_k,
            ttea_solve(seq, 0, width, Tensor3(rng.standard_normal((n, 1, n3))))[0],
        )
        for t in outs:
            worst = max(worst, _rel(t, fixed))
    ok = worst <= 1e-6
    _report(7, "finite termination at spectral width, 20 sequences", ok,
            f"max rel dev {worst:.2e}")


def test_criterion_08_solver_internal_consistency():
    rng = np.random.default_rng(1008)
    worst_sub = worst_res = worst_step = 0.0
    done = 0
    while done < 30:
        n = int(rng.integers(5, 10))
        n3 = int(rng.integers(2, 4))
        a = Tensor3(rng.standard_normal((n, n, n3)))
        b = Tensor3(rng.standard_normal((n, 1, n3)))
        state = build_sequence(a, b)
        k = int(rng.integers(2, min(5, state.count)))
        # closed-form coefficients satisfy the coupled two-term recursion
        thetas = sequence_thetas(state)
        beta = closed_form_beta(thetas, k, shift=None)
        scale = max(frobenius_norm(t) for t in thetas[: k + 1])
        sub = 0.0
        for i in range(k - 1):
            row = (-tprod(thetas[i], beta[i])
                   + tprod(thetas[i + 1], beta[i + 1]))
            sub = max(sub, frobenius_norm(row))
        last = -tprod(thetas[k - 1], beta[k - 1]) + thetas[k]
        sub = max(sub, frobenius_norm(last))
        worst_sub = max(worst_sub, sub / scale)
        # the solver's closed-form residual norm equals the norm of the
        # residual assembled from the reference step's gamma
        report = solve(a, b, tol_eps=0.0, k_max=k + 1, shift=None)
        _, gamma, _ = trre_tsvd_step(state, k, shift=None)
        got = report.residual_norms[-1]
        direct = frobenius_norm(star(Stack4(state.sdeltas[: k + 1]), gamma))
        worst_res = max(worst_res, abs(got - direct) / max(1e-12, direct))
        # the solver's extrapolant equals the generic transform on the same
        # partial sums
        t_k = report.t_k
        engine = extrapolate(TensorSequence(state.partial_sums[: k + 2]), 0, k, "trre")
        worst_step = max(worst_step, _rel(t_k, engine.t_k))
        done += 1
    ok = worst_sub <= 1e-8 and worst_res <= 1e-7 and worst_step <= 1e-7
    _report(8, "reduced-rank solver internal consistency, 30 problems", ok,
            f"substitution {worst_sub:.2e}, residual {worst_res:.2e}, "
            f"engine dev {worst_step:.2e}")


def _smooth_ill_posed(dims, rate, noise, rng, decay=0.5):
    """Operator with geometric face singular decay and a solution whose
    right-singular components decay too, so truncation genuinely helps."""
    a, _, _ = make_problem(dims, "geometric", rate, 0.0, rng, 1)
    v = tsvd(a).v
    n2, n3 = dims[1], dims[2]
    xdata = np.zeros((n2, 1, n3))
    for j in range(n2):
        xdata += decay**j * v.data[:, j : j + 1, :]
    x = Tensor3(xdata)
    b_bar = tprod(a, x)
    g = rng.standard_normal(b_bar.dims)
    g *= noise * frobenius_norm(b_bar) / np.linalg.norm(g)
    return a, b_bar + Tensor3(g), x


def test_criterion_09_ill_posed_end_to_end():
    started = time.perf_counter()
    worst_ratio = 0.0
    stopped_on_tolerance = True
    for dims, rate in (((16, 16, 3), 0.8), ((32, 32, 3), 0.5)):
        for noise in (1e-3, 1e-2):
            rng = np.random.default_rng(1)
            a, b, x = _smooth_ill_posed(dims, rate, noise, rng)
            sweep = plain_truncation_errors(a.data, b.data, x.data)
            report = solve(a, b, tol_eps=noise, x_true=x)
            stopped_on_tolerance &= report.stop_reason == "tolerance"
            worst_ratio = max(worst_ratio, report.errors[-1] / min(sweep))
    elapsed = time.perf_counter() - started
    ok = stopped_on_tolerance and worst_ratio <= 2.0 and elapsed <= 60.0
    _report(9, "noisy end-to-end vs exhaustive truncation sweep", ok,
            f"stop {'tolerance' if stopped_on_tolerance else 'other'}, "
            f"worst error ratio {worst_ratio:.2f}, {elapsed:.1f}s")


def test_criterion_10_stack_product_propositions():
    from textrap import adjoint_swap, bar_star, diamond

    rng = np.random.default_rng(1010)
    worst = 0.0

    def stack(count, dims):
        return Stack4([Tensor3(rng.standard_normal(dims)) for _ in range(count)])

    def grid_dev(g1, g2):
        rows, cols = g1.grid_shape
        return max(
            _rel(g1.block(i, j), g2.block(i, j))
            for i in range(rows)
            for j in range(cols)
        )

    for _ in range(100):
        k, ell = (int(v) for v in rng.integers(1, 4, size=2))
        m, m2, p, p2, q, n3 = (int(v) for v in rng.integers(1, 5, size=6))
        a, a2 = stack(ell, (m, p, n3)), stack(ell, (m, p, n3))
        b, b2 = stack(k, (m, p2, n3)), stack(k, (m, p2, n3))
        # two-sided distributivity of the transpose-grid product
        worst = max(worst, grid_dev(diamond(a + a2, b), diamond(a, b) + diamond(a2, b)))
        worst = max(worst, grid_dev(diamond(a, b + b2), diamond(a, b) + diamond(a, b2)))
        # mixed associativity of grid product and contraction
        d = stack(k, (p2, q, n3))
        lhs = star(diamond(a, b), d)
        rhs = diamond(a, star(b, d))
        worst = max(worst, max(_rel(x, y) for x, y in zip(lhs, rhs)))
        # grid contraction factors through the adjoint-swapped grid
        g1 = diamond(stack(k, (m, p, n3)), stack(k, (m, p, n3)))
        g2 = diamond(stack(k, (m2, p, n3)), stack(k, (m2, p, n3)))
        ys = stack(k, (p, q, n3))
        lhs2 = star(bar_star(g1, g2), ys)
        rhs2 = star(adjoint_swap(g1), star(g2, ys))
        worst = max(worst, max(_rel(x, y) for x, y in zip(lhs2, rhs2)))
    ok = worst <= 1e-10
    _report(10, "stack product propositions, 100 instances", ok,
            f"max rel dev {worst:.2e}")
