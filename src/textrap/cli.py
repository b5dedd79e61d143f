"""Command-line front end: problem generation, decompositions, solves, verification.

Subcommands
-----------
gen          synthesize an ill-posed test problem (A, B, Xtrue as TNS3 files)
tsvd         full or truncated decomposition of a TNS3 tensor, factors + report
solve        reduced-rank solve of A * X = B with per-iteration diagnostics
extrapolate  apply one of the sequence transforms to a TNS4 stack of terms
verify       run the built-in invariant suites (optionally a single suite,
             optionally with an injected fault to prove the suites can fail)

Every run draws all randomness from one generator seeded by ``--seed``
(echoed in the report) and reports UTF-8 JSON to stdout or ``--report``.
Settings resolve flags over ``--config`` JSON over built-in defaults.
Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, TextrapError
from .extrapolation import (
    METHODS,
    TensorSequence,
    default_tmmpe_y,
    extrapolate,
    ttea_solve,
)
from .stack_products import bar_star, diamond, star
from .tensor_core import (
    Stack4,
    Stack5,
    Tensor3,
    _wrap,
    bcirc,
    fold,
    frobenius_norm,
    identity_tensor,
    matvec_unfold,
    read_tns3,
    read_tns4,
    write_tns3,
)
from .tproduct_algebra import IDENTITY_TOL, check_moore_penrose, tinverse, tprod, ttranspose
from .trre_tsvd_solver import DEFAULT_THETA_SHIFT, build_sequence, solve
from .tsvd import save_factors, tls_solve, tsvd, ttsvd

PROFILES = ("geometric", "algebraic")
MUTATIONS = ("none", "bcirc-sign")


class UsageError(Exception):
    """Bad invocation (unknown names, out-of-range parameters): exit code 2."""


def _parse_dims(value: str) -> tuple[int, int, int]:
    try:
        n1, n2, n3 = (int(p) for p in value.split(","))
    except ValueError as exc:
        raise UsageError(f"dims must be three integers n1,n2,n3 (got {value!r})") from exc
    if min(n1, n2, n3) < 1:
        raise UsageError(f"dims must be positive (got {value!r})")
    return n1, n2, n3


def _config_value(action: argparse.Action, key: str, value):
    """``value`` of config key ``key`` converted as its flag converts an
    argument: a string by the flag's type, a number only by a numeric flag
    whose type keeps it unchanged, a bool only by an on/off flag."""
    kind = action.type or str
    try:
        if action.nargs == 0 and isinstance(value, bool):
            return value
        if action.nargs != 0 and isinstance(value, str):
            return kind(value)
        if kind in (int, float) and type(value) in (int, float) and kind(value) == value:
            return kind(value)
    except (ValueError, OverflowError):
        pass
    wanted = "bool" if action.nargs == 0 else kind.__name__
    raise UsageError(f"config key {key!r} must be a valid {wanted}, got {json.dumps(value)}")


def _settings(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve run settings: flags override config file overrides defaults."""
    merged = dict(defaults, seed=0)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {action.dest: action for action in sub.choices[args.command]._actions}
        for key, value in loaded.items():
            if key not in merged:
                raise UsageError(f"config key {key!r} names no {args.command} setting")
            merged[key] = _config_value(flags[key], key, value)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged["seed"] < 0:
        raise UsageError(f"seed must be >= 0 (got {merged['seed']})")
    return merged


def _emit(report: dict, path) -> None:
    text = json.dumps(report, indent=2)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _random_orthogonal(n: int, n3: int, rng) -> Tensor3:
    """The ``u`` of the T-SVD of a Gaussian tensor; ``s`` and ``v`` are not formed."""
    return tsvd(Tensor3(rng.standard_normal((n, n, n3)))).u


def _singular_profile(profile: str, rate: float, r: int) -> np.ndarray:
    j = np.arange(r, dtype=float)
    if profile == "geometric":
        return 10.0 ** (-j * rate)
    if profile == "algebraic":
        return (j + 1.0) ** (-rate)
    raise UsageError(f"unknown profile {profile!r} (choose from {', '.join(PROFILES)})")


def make_problem(dims, profile, rate, noise, rng, width):
    """Build (a, b, x_true) with prescribed face singular decay.

    ``a = u * s * v^T`` with random orthogonal factors and an F-diagonal
    ``s`` carrying the same profile on every face; ``b`` is the exact image
    of a random ``x_true`` with ``width`` columns plus a noise tensor
    rescaled to the requested relative level.
    """
    n1, n2, n3 = dims
    r = min(n1, n2)
    sig = _singular_profile(profile, rate, r)
    u = _random_orthogonal(n1, n3, rng)
    v = _random_orthogonal(n2, n3, rng)
    sdata = np.zeros((n1, n2, n3))
    sdata[np.arange(r), np.arange(r), 0] = sig
    a = tprod(tprod(u, Tensor3(sdata)), ttranspose(v))
    x_true = Tensor3(rng.standard_normal((n2, width, n3)))
    b_bar = tprod(a, x_true)
    if noise > 0.0:
        g = rng.standard_normal(b_bar.dims)
        g *= noise * frobenius_norm(b_bar) / np.linalg.norm(g)
        b = b_bar + Tensor3(g)
    else:
        b = b_bar
    return a, b, x_true


def cmd_gen(cfg: dict, rng) -> tuple[dict, int]:
    if cfg["dims"] is None:
        raise UsageError("gen requires --dims n1,n2,n3")
    dims = _parse_dims(cfg["dims"])
    noise = cfg["noise"]
    if noise < 0.0:
        raise UsageError(f"noise must be >= 0 (got {noise})")
    if cfg["width"] < 1:
        raise UsageError(f"width must be >= 1 (got {cfg['width']})")
    a, b, x_true = make_problem(dims, cfg["profile"], cfg["rate"], noise, rng, cfg["width"])
    outdir = Path(cfg["output"])
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "a": str(outdir / "A.tns3"),
        "b": str(outdir / "B.tns3"),
        "x_true": str(outdir / "Xtrue.tns3"),
    }
    write_tns3(a, paths["a"])
    write_tns3(b, paths["b"])
    write_tns3(x_true, paths["x_true"])
    report = {
        "command": "gen",
        "dims": list(dims),
        "profile": cfg["profile"],
        "rate": cfg["rate"],
        "noise": noise,
        "rhs_width": x_true.n2,
        "norms": {"a": frobenius_norm(a), "b": frobenius_norm(b)},
        "paths": paths,
    }
    return report, 0


def cmd_tsvd(cfg: dict, rng) -> tuple[dict, int]:
    if cfg["input"] is None:
        raise UsageError("tsvd requires --input FILE.tns3")
    a = read_tns3(cfg["input"])
    r = min(a.n1, a.n2)
    k = cfg["k"]
    if k is not None and not 1 <= k <= r:
        raise UsageError(f"k = {k} is outside 1..{r} for dims {a.dims}")
    prefix = cfg["output"] or str(Path(cfg["input"]).with_suffix(""))
    if k is None or k == r:
        factors = tsvd(a)
        mp_path = None
    else:
        factors, mp_inverse = ttsvd(a, k)
        mp_path = str(Path(prefix).with_name(Path(prefix).name + "_pinv.tns3"))
        write_tns3(mp_inverse, mp_path)
    paths = save_factors(factors, prefix)
    if mp_path:
        paths["pinv"] = mp_path
    scale = frobenius_norm(a) or 1.0
    report = {
        "command": "tsvd",
        "input": str(cfg["input"]),
        "dims": list(a.dims),
        "k": factors.r,
        "reconstruction_error": frobenius_norm(a - factors.reconstruction()) / scale,
        "orthogonality_residual": factors.orthogonality_residual(),
        "f_diagonality_residual": factors.f_diagonality_residual(),
        "paths": paths,
    }
    return report, 0


def cmd_solve(cfg: dict, rng) -> tuple[dict, int]:
    if cfg["a"] is None or cfg["b"] is None:
        raise UsageError("solve requires --a A.tns3 and --b B.tns3")
    if cfg["k_max"] is not None and cfg["k_max"] < 1:
        raise UsageError(f"k_max must be >= 1 (got {cfg['k_max']})")
    a = read_tns3(cfg["a"])
    b = read_tns3(cfg["b"])
    x_true = read_tns3(cfg["xtrue"]) if cfg["xtrue"] is not None else None
    result = solve(a, b, tol_eps=cfg["tol"], k_max=cfg["k_max"], shift=cfg["shift"], x_true=x_true)
    write_tns3(result.t_k, cfg["output"])
    report = {"command": "solve", "a": str(cfg["a"]), "b": str(cfg["b"])}
    report.update(result.as_dict())
    report["output"] = str(cfg["output"])
    return report, 0


def _coefficient_lists(stack: Stack4) -> list:
    return [t.data.tolist() for t in stack]


def cmd_extrapolate(cfg: dict, rng) -> tuple[dict, int]:
    if cfg["input"] is None:
        raise UsageError("extrapolate requires --input FILE.tns4")
    method = cfg["method"]
    if method is None or method not in METHODS + ("ttea",):
        raise UsageError(f"method must be one of {', '.join(METHODS + ('ttea',))}")
    n, k = cfg["n"], cfg["k"]
    if n < 0 or k < 1:
        raise UsageError(f"extrapolate needs n >= 0 and k >= 1, got n={n}, k={k}")
    seq = _wrap(TensorSequence, read_tns4(cfg["input"])._data)  # no copy; never empty
    report = {
        "command": "extrapolate",
        "input": str(cfg["input"]),
        "method": method,
        "n": n,
        "k": k,
        "terms": len(seq),
        "output": str(cfg["output"]),
    }
    if method == "ttea":
        if cfg["y"] is None:
            raise UsageError("ttea requires --y FILE.tns3")
        e_k, beta = ttea_solve(seq, n, k, read_tns3(cfg["y"]))
        write_tns3(e_k, cfg["output"])
        report["beta"] = _coefficient_lists(beta)
        report["extrapolant_norm"] = frobenius_norm(e_k)
        return report, 0
    custom_y = None
    if method == "tmmpe":
        if cfg["y"] is not None:
            custom_y = read_tns4(cfg["y"])
        elif cfg["default_y"]:
            custom_y = default_tmmpe_y(seq.dims, k)
        else:
            raise UsageError("tmmpe requires --y FILE.tns4 or --default-y")
    result = extrapolate(seq, n=n, k=k, method=method, custom_y=custom_y)
    write_tns3(result.t_k, cfg["output"])
    report["gamma"] = _coefficient_lists(result.gamma)
    report["alpha"] = _coefficient_lists(result.alpha)
    report["beta"] = _coefficient_lists(result.beta)
    report["residual_norm"] = frobenius_norm(result.residual)
    report["extrapolant_norm"] = frobenius_norm(result.t_k)
    return report, 0


def _mutated_bcirc(t: Tensor3):
    """Faulty oracle for mutation testing: wrap-around blocks get a sign flip."""
    m = bcirc(t).copy()
    n1, n2, _ = t.dims
    for i in range(t.n3):
        for j in range(i + 1, t.n3):
            m[i * n1 : (i + 1) * n1, j * n2 : (j + 1) * n2] *= -1.0
    return m


def _oracle_sum(oracle, pairs) -> Tensor3:
    """``sum x * y`` over the ``(x, y)`` pairs, each T-product by the
    block-circulant definition with ``oracle`` as bcirc."""
    return Tensor3(sum(fold(oracle(x) @ matvec_unfold(y), (x.n1, y.n2, x.n3)).data
                       for x, y in pairs))


def _verdict(cases: int, errors, bound: float, ok: bool = True) -> dict:
    """A suite's report: the largest of its ``errors`` against ``bound``.  A
    NaN error is the largest (``np.max`` keeps it) and fails the suite."""
    worst = float(np.max(errors))
    return {"cases": cases, "max_error": worst, "passed": bool(ok and worst <= bound)}


def _suite_tprod(rng, oracle) -> dict:
    errors = []
    for _ in range(25):
        n1, n2, n3 = rng.integers(1, 7), rng.integers(1, 7), rng.integers(2, 6)
        m = rng.integers(1, 7)
        x = Tensor3(rng.standard_normal((n1, m, n3)))
        y = Tensor3(rng.standard_normal((m, n2, n3)))
        direct = _oracle_sum(oracle, [(x, y)])
        errors.append(frobenius_norm(tprod(x, y) - direct) / max(frobenius_norm(direct), 1.0))
    return _verdict(25, errors, 1e-10)


def _suite_tsvd(rng, oracle) -> dict:
    errors = []
    ok = True
    for _ in range(15):
        dims = tuple(int(d) for d in rng.integers(2, 8, size=3))
        a = Tensor3(rng.standard_normal(dims))
        factors = tsvd(a)
        errors.append(frobenius_norm(a - factors.reconstruction()) / frobenius_norm(a))
        ok = ok and factors.orthogonality_residual() <= IDENTITY_TOL
        ok = ok and factors.f_diagonality_residual() <= 1e-12
    return _verdict(15, errors, 1e-10, ok)


def _suite_penrose(rng, oracle) -> dict:
    # every residual against IDENTITY_TOL, the bound of PenroseReport.passed
    errors = []
    for _ in range(10):
        n1, n2, n3 = rng.integers(2, 6), rng.integers(2, 6), rng.integers(1, 5)
        a = Tensor3(rng.standard_normal((int(n1), int(n2), int(n3))))
        _, mp_inverse = ttsvd(a, min(a.n1, a.n2))
        errors.extend(check_moore_penrose(a, mp_inverse).residuals)
    return _verdict(10, errors, IDENTITY_TOL)


def _suite_leastsq(rng, oracle) -> dict:
    errors = []
    for _ in range(10):
        n1, n2, n3 = rng.integers(2, 7), rng.integers(2, 7), rng.integers(1, 5)
        a = Tensor3(rng.standard_normal((int(n1), int(n2), int(n3))))
        b = Tensor3(rng.standard_normal((int(n1), 1, int(n3))))
        x = tls_solve(a, b)
        ref = fold(np.linalg.pinv(oracle(a)) @ matvec_unfold(b), (a.n2, 1, a.n3))
        errors.append(frobenius_norm(x - ref) / max(frobenius_norm(ref), 1.0))
    return _verdict(10, errors, 1e-8)


def _suite_products(rng, oracle) -> dict:
    # Stack5-star-Stack4, Stack4-star-Stack4 and bar-star, each block
    # against its sum of block-circulant products
    errors = []

    def rand(*dims):
        return Tensor3(rng.standard_normal(dims))

    for _ in range(15):
        n1, n3 = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        k, ell = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        us = Stack4(rand(n1, 1, n3) for _ in range(k))
        ys = Stack4(rand(n1, 1, n3) for _ in range(ell))
        gs = Stack4(rand(1, 1, n3) for _ in range(k))
        a = Stack5(tuple(rand(n1, 2, n3) for _ in range(ell)) for _ in range(k))
        b = Stack5(tuple(rand(2, 3, n3) for _ in range(ell)) for _ in range(k))
        out, grid = star(diamond(ys, us), gs), bar_star(a, b)
        checks = [(star(us, gs), [(us[j], gs[j]) for j in range(k)])]
        checks += [(out[i], [(_oracle_sum(oracle, [(ttranspose(ys[i]), us[j])]), gs[j])
                             for j in range(k)]) for i in range(ell)]
        checks += [(grid.block(tau, eta), [(a.block(eta, j), b.block(tau, j)) for j in range(ell)])
                   for tau in range(k) for eta in range(k)]
        for got, pairs in checks:
            direct = _oracle_sum(oracle, pairs)
            errors.append(frobenius_norm(got - direct) / max(frobenius_norm(direct), 1.0))
    return _verdict(15, errors, 1e-10)


def _suite_extrapolation(rng, oracle) -> dict:
    errors = []
    for _ in range(5):
        n1, n3, width = 4, 2, 3
        q = _random_orthogonal(n1, n3, rng)
        eig = rng.uniform(0.1, 0.8, size=width) * rng.choice([-1.0, 1.0], size=width)
        diag = np.concatenate([eig, eig[rng.integers(0, width, size=n1 - width)]])
        ddata = np.zeros((n1, n1, n3))
        ddata[np.arange(n1), np.arange(n1), 0] = diag
        m = tprod(tprod(q, Tensor3(ddata)), ttranspose(q))
        c = Tensor3(rng.standard_normal((n1, 1, n3)))
        fixed = tprod(tinverse(identity_tensor(n1, n3) - m), c)
        terms = [Tensor3(rng.standard_normal((n1, 1, n3)))]
        for _ in range(2 * width + 2):
            terms.append(tprod(m, terms[-1]) + c)
        seq = TensorSequence(terms)
        for method in METHODS:
            y = default_tmmpe_y(seq.dims, width) if method == "tmmpe" else None
            t_k = extrapolate(seq, 0, width, method=method, custom_y=y).t_k
            errors.append(frobenius_norm(t_k - fixed) / max(frobenius_norm(fixed), 1.0))
    return _verdict(5, errors, 1e-6)


def _suite_trre_tsvd(rng, oracle) -> dict:
    # the face-domain solver stopped at width k against the generic engine on
    # the same partial sums; without the shift both compute the exact RRE
    errors = []
    for _ in range(5):
        n, n3 = 6, 2
        a = Tensor3(rng.standard_normal((n, n, n3)))
        b = Tensor3(rng.standard_normal((n, 1, n3)))
        k = 3
        t_k = solve(a, b, tol_eps=0.0, k_max=k + 1, shift=None).t_k
        seq = TensorSequence(build_sequence(a, b).partial_sums[: k + 2])
        ref = extrapolate(seq, 0, k, method="trre").t_k
        errors.append(frobenius_norm(t_k - ref) / max(frobenius_norm(ref), 1.0))
    # a tolerance stop on a smooth 64 x 64 x 4 problem, decided by the leading
    # triplets only, against the engine on the full decomposition's sums
    a, _, _ = make_problem((64, 64, 4), "geometric", 0.5, 0.0, rng, 1)
    v = tsvd(a).v.data
    x = Tensor3(np.einsum("j,ijt->it", 0.5 ** np.arange(64), v)[:, None, :])
    b_bar = tprod(a, x)
    noise = rng.standard_normal(b_bar.dims)
    b = b_bar + Tensor3(noise * 1e-3 * frobenius_norm(b_bar) / np.linalg.norm(noise))
    report = solve(a, b, tol_eps=1e-3, shift=None)
    k = report.final_k
    sums = build_sequence(a, b).partial_sums
    ref = extrapolate(TensorSequence(sums[: k + 2]), 0, k, method="trre").t_k
    errors.append(frobenius_norm(report.t_k - ref) / max(frobenius_norm(ref), 1.0))
    truncated = report.stop_reason == "tolerance" and report.triplets < 64
    return _verdict(6, errors, 1e-7, truncated)


SUITES = {
    "tprod": _suite_tprod,
    "tsvd": _suite_tsvd,
    "penrose": _suite_penrose,
    "leastsq": _suite_leastsq,
    "products": _suite_products,
    "extrapolation": _suite_extrapolation,
    "trre_tsvd": _suite_trre_tsvd,
}


def cmd_verify(cfg: dict, rng) -> tuple[dict, int]:
    mutate = cfg["mutate"]
    if mutate not in MUTATIONS:
        raise UsageError(f"unknown mutation {mutate!r} (choose from {', '.join(MUTATIONS)})")
    names = list(SUITES)
    if cfg["suite"] is not None:
        if cfg["suite"] not in SUITES:
            raise UsageError(f"unknown suite {cfg['suite']!r} (choose from {', '.join(names)})")
        names = [cfg["suite"]]
    oracle = _mutated_bcirc if mutate == "bcirc-sign" else bcirc
    results = {name: SUITES[name](rng, oracle) for name in names}
    passed = all(r["passed"] for r in results.values())
    report = {"command": "verify", "mutate": mutate, "suites": results, "passed": passed}
    return report, 0 if passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="textrap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with default settings")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument("--report", help="write the JSON report here instead of stdout")

    p = sub.add_parser("gen", help="generate a synthetic ill-posed problem")
    common(p)
    p.add_argument("--dims", help="n1,n2,n3")
    p.add_argument("--profile", choices=PROFILES)
    p.add_argument("--rate", type=float, help="decay rate / power of the singular profile")
    p.add_argument("--noise", type=float, help="relative noise level on B")
    p.add_argument("--width", type=int, help="second dimension of Xtrue (default 1)")
    p.add_argument("--output", "-o", help="output directory")

    p = sub.add_parser("tsvd", help="decompose a tensor, optionally truncated")
    common(p)
    p.add_argument("--input", "-i", help="TNS3 file")
    p.add_argument("--k", type=int, help="truncation index (default full)")
    p.add_argument("--output", "-o", help="output prefix for factor files")

    p = sub.add_parser("solve", help="reduced-rank solve of A * X = B")
    common(p)
    p.add_argument("--a", "-i", dest="a", help="coefficient tensor (TNS3)")
    p.add_argument("--b", help="right-hand side (TNS3)")
    p.add_argument("--xtrue", help="optional exact solution for error reporting")
    p.add_argument("--tol", type=float, help="stopping threshold on min(residual, eta)")
    p.add_argument("--k-max", type=int, dest="k_max", help="cap on sequence terms")
    p.add_argument("--shift", type=float, help="epsilon shift for Theta inverses (0 disables)")
    p.add_argument("--output", "-o", help="where to write the extrapolant")

    p = sub.add_parser("extrapolate", help="apply a sequence transform to a TNS4 stack")
    common(p)
    p.add_argument("--input", "-i", help="sequence file (TNS4)")
    p.add_argument("--method", help="tmpe | trre | tmmpe | ttea")
    p.add_argument("--n", type=int, help="starting index (default 0)")
    p.add_argument("--k", type=int, help="transform width (default 1)")
    p.add_argument("--y", help="test stack: TNS4 for tmmpe, TNS3 for ttea")
    p.add_argument("--default-y", action="store_true", default=None, dest="default_y",
                   help="use the built-in tmmpe test stack")
    p.add_argument("--output", "-o", help="where to write the extrapolant")

    p = sub.add_parser("verify", help="run the invariant suites")
    common(p)
    p.add_argument("--suite", help="run a single suite: " + ", ".join(SUITES))
    p.add_argument("--mutate", choices=MUTATIONS,
                   help="inject a known fault to confirm the suites catch it")
    return parser


_DEFAULTS = {
    "gen": {"dims": None, "profile": "geometric", "rate": 1.0, "noise": 0.0,
            "width": 1, "output": "."},
    "tsvd": {"input": None, "k": None, "output": None},
    "solve": {"a": None, "b": None, "xtrue": None, "tol": 1e-8, "k_max": None,
              "shift": DEFAULT_THETA_SHIFT, "output": "tk.tns3"},
    "extrapolate": {"input": None, "method": None, "n": 0, "k": 1, "y": None,
                    "default_y": False, "output": "extrapolant.tns3"},
    "verify": {"suite": None, "mutate": "none"},
}

_HANDLERS = {
    "gen": cmd_gen,
    "tsvd": cmd_tsvd,
    "solve": cmd_solve,
    "extrapolate": cmd_extrapolate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _settings(args, _DEFAULTS[args.command])
        rng = np.random.default_rng(cfg["seed"])
        report, code = _HANDLERS[args.command](cfg, rng)
        report["seed"] = cfg["seed"]
        _emit(report, args.report)
        return code
    except (UsageError, InvalidParameterError) as exc:  # a parameter out of its domain
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TextrapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
