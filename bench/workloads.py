"""The benchmark's workloads: input generation, one op, and the check of each op.

Every workload is a closed loop with one client: the runner starts the next
op only after the previous one returned.  Inputs come from the seed alone and
only those generated inputs reach the library.  The library is always called
through module attributes (``textrap.solve``, ``textrap.cli.main``), so the
recorders that ``tracing.py`` installs at those bindings see every call.

Why these three (LAYERS.md maps each layer to the metrics it should move):

- ``solve_kmax_random``: ``textrap gen`` then ``textrap solve --tol 0`` in
  process; all extrapolation steps run, so the per-k step dominates.  The only
  workload that covers the CLI and TNS3 I/O.
- ``solve_tol_smooth``: library ``solve`` on smooth 128x128x32 problems that
  stop at tolerance after a few steps, so ``tsvd`` and ``build_sequence``
  dominate; the "no change" side for a per-k step optimisation.
- ``extrapolate_sweep``: TMPE, TRRE, TMMPE and TTEA on a wide-operand
  sequence; exercises the generic block engine and products of 8-column
  operands instead of tubal scalars.

A workload may hold several problem instances, all drawn from the seed; ops
cycle through them so that the accuracy metrics, a median over instances,
do not hinge on one noise draw.  Right-hand sides wider than one column are
not a workload: every multi-column ``solve`` tried so far raises, and their
meaning is still open.
"""

from __future__ import annotations

import importlib.util
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import textrap
import textrap.cli

import reference

#: largest relative deviation of an op's output from its independent
#: reference that still counts as correct
CHECK_RTOL = 1e-6

_ORACLES = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"


class BenchError(RuntimeError):
    """An op finished without the output it should have produced."""


@dataclass(frozen=True)
class Output:
    """What one op produced: the extrapolant and the width it was taken at."""

    t_k: np.ndarray
    k: int


@dataclass(frozen=True)
class Verdict:
    """The check of one op.

    ``deviation`` is the distance to the independent reference,
    ``rel_error`` the distance to the exact solution (both relative), and
    ``plain_error`` the best error reachable without extrapolation on the
    same instance.  ``scored`` ops enter the accuracy metrics.
    """

    ok: bool
    deviation: float
    rel_error: float
    plain_error: float
    instance: int
    scored: bool = True


def _rel(x: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.linalg.norm(ref))
    return float(np.linalg.norm(x - ref)) / (scale if scale > 0.0 else 1.0)


def _read_tns3(path: Path) -> np.ndarray:
    """Independent TNS3 reader: 32-byte header, then binary64 LE in F order."""
    raw = path.read_bytes()
    magic, version, n1, n2, n3 = struct.unpack_from("<4sIQQQ", raw)
    if magic != b"TNS3" or version != 1 or len(raw) != 32 + 8 * n1 * n2 * n3:
        raise BenchError(f"{path.name} is not a well-formed TNS3 file")
    return np.frombuffer(raw, dtype="<f8", offset=32).reshape((n1, n2, n3), order="F")


def _plain_truncation_errors(a, b, x):
    spec = importlib.util.spec_from_file_location("textrap_test_oracles", _ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles.plain_truncation_errors(a, b, x)


def smooth_operator(dims, rate, rng, decay=0.5):
    """Operator with geometric face singular decay and a solution whose
    right-singular components decay too, so truncation genuinely helps (the
    discrete Picard condition holds).  Returns (a, a * x, x); the same
    construction as the acceptance tests' smooth problems, which ``textrap
    gen`` cannot make yet."""
    a, _, _ = textrap.cli.make_problem(dims, "geometric", rate, 0.0, rng, 1)
    v = textrap.tsvd(a).v
    n2, n3 = dims[1], dims[2]
    xdata = np.zeros((n2, 1, n3))
    for j in range(n2):
        xdata += decay**j * v.data[:, j : j + 1, :]
    x = textrap.Tensor3(xdata)
    return a, textrap.tprod(a, x), x


def add_noise(b_bar, noise, rng):
    """``b_bar`` plus Gaussian noise of relative Frobenius size ``noise``."""
    g = rng.standard_normal(b_bar.dims)
    g *= noise * textrap.frobenius_norm(b_bar) / np.linalg.norm(g)
    return b_bar + textrap.Tensor3(g)


class _SolveWorkload:
    """Shared check of the solve workloads; op i solves ``problems[i % cycle]``.

    Each op's T_k is compared with the generic TRRE engine applied to the
    same TTSVD partial sums, ``extrapolate(TensorSequence(S[:k+2]), 0, k,
    "trre")``, an independent path to the same extrapolant.  Where the
    engine refuses the system as singular, the dense per-face least-squares
    RRE of ``reference.py`` stands in (counted in ``reference_fallbacks``).
    The plain error is the best plain truncation, ``plain_truncation_errors``
    of the tests' oracles.
    """

    warmup = 1

    def problems(self) -> list:
        """The (a, b, x_true) tensors of every instance."""
        raise NotImplementedError

    def prepare_check(self) -> None:
        self.reference_fallbacks = 0
        self._checks = []
        for a, b, x in self.problems():
            self._checks.append({
                "x": x.data,
                "partial_sums": textrap.build_sequence(a, b).partial_sums,
                "plain_error": min(_plain_truncation_errors(a.data, b.data, x.data)),
                "refs": {},
            })

    def _reference(self, c: dict, k: int) -> np.ndarray:
        if k not in c["refs"]:
            terms = c["partial_sums"][: k + 2]
            if k == 1:
                c["refs"][k] = terms[1].data
            else:
                try:
                    seq = textrap.TensorSequence(terms)
                    c["refs"][k] = textrap.extrapolate(seq, 0, k, "trre").t_k.data
                except textrap.SingularFaceError:
                    # the engine's normal equations square the conditioning
                    # and, at k near n2, can exceed working precision
                    self.reference_fallbacks += 1
                    c["refs"][k] = reference.rre_extrapolant([t.data for t in terms], k)
        return c["refs"][k]

    def check(self, i: int, out: Output) -> Verdict:
        j = i % self.cycle
        c = self._checks[j]
        deviation = _rel(out.t_k, self._reference(c, out.k))
        ok = bool(np.isfinite(deviation) and deviation <= CHECK_RTOL)
        return Verdict(ok, deviation, _rel(out.t_k, c["x"]), c["plain_error"], j)


class SolveKmaxRandom(_SolveWorkload):
    """``textrap gen`` (random x_true, geometric rate 0.1, noise 1e-3, width
    1) as set-up; one op is ``textrap solve --tol 0 --xtrue``.  Ops cycle
    through ``instances`` generated problems, with ``gen`` seeds
    ``seed * instances + j``, so that the accuracy metrics do not hinge on
    one draw."""

    name = "solve_kmax_random"

    def __init__(self, seed: int, workdir: Path, dims=(64, 64, 8), instances=4):
        self.seed = seed
        self.dims = tuple(dims)
        self.cycle = instances
        self.dirs = [Path(workdir) / self.name / f"i{j}" for j in range(instances)]

    def setup(self) -> None:
        for j, where in enumerate(self.dirs):
            where.mkdir(parents=True, exist_ok=True)
            _cli([
                "gen", "--dims", ",".join(map(str, self.dims)), "--rate", "0.1",
                "--noise", "1e-3", "--width", "1", "--seed", str(self.seed * self.cycle + j),
                "-o", str(where), "--report", str(where / "gen.json"),
            ])

    def problems(self) -> list:
        return [
            tuple(textrap.Tensor3(_read_tns3(where / f"{n}.tns3")) for n in ("A", "B", "Xtrue"))
            for where in self.dirs
        ]

    def op(self, i: int) -> Path:
        where = self.dirs[i % self.cycle]
        _cli([
            "solve", "-i", str(where / "A.tns3"), "--b", str(where / "B.tns3"),
            "--xtrue", str(where / "Xtrue.tns3"), "--tol", "0",
            "-o", str(where / "tk.tns3"), "--report", str(where / "solve.json"),
        ])
        return where

    def collect(self, where: Path) -> Output:
        report = json.loads((where / "solve.json").read_text(encoding="utf-8"))
        t_k = _read_tns3(where / "tk.tns3")
        # a later op must write its own output, not pass on this one's
        (where / "tk.tns3").unlink()
        return Output(t_k, int(report["final_k"]))


class SolveTolSmooth(_SolveWorkload):
    """Library ``solve(a, b, tol_eps=1e-3, x_true=x)`` on a smooth problem
    (geometric rate 0.5, solution decay 0.5, noise 1e-3).  The error of one
    solve depends on its noise draw and stopping index, so ops cycle through
    ``instances`` right-hand sides, each with its own noise draw."""

    name = "solve_tol_smooth"

    def __init__(self, seed: int, workdir: Path, dims=(128, 128, 32), instances=8):
        self.seed = seed
        self.dims = tuple(dims)
        self.cycle = instances

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        a, b_bar, x = smooth_operator(self.dims, 0.5, rng)
        self._problems = [(a, add_noise(b_bar, 1e-3, rng), x) for _ in range(self.cycle)]

    def problems(self) -> list:
        return self._problems

    def op(self, i: int):
        a, b, x = self._problems[i % self.cycle]
        return textrap.solve(a, b, tol_eps=1e-3, x_true=x)

    def collect(self, report) -> Output:
        return Output(report.t_k.data, report.final_k)


class ExtrapolateSweep:
    """One op is one width-k transform; ops cycle TMPE, TRRE, TMMPE (with
    ``default_tmmpe_y``) and TTEA over each instance's sequence in turn.

    A sequence is S_{j+1} = M * S_j + C with M = Q * D * Q^T, Q a random
    orthogonal tensor and D carrying the fixed full spectrum
    ``linspace(-RHO, RHO, n1)`` on every face, and C chosen so that a random
    x* is the fixed point.  The polynomial methods use the latest window of
    k+2 terms, TTEA (with a random test tensor) the latest 2k+1.

    Only TMPE and TRRE ops are scored for accuracy: the TMMPE and TTEA
    errors hang on their arbitrary test tensors and vary tenfold between
    seeds.  All four are checked against the dense per-face reference.
    """

    name = "extrapolate_sweep"
    METHODS = ("tmpe", "trre", "tmmpe", "ttea")
    SCORED = ("tmpe", "trre")
    warmup = len(METHODS)
    RHO = 0.9

    def __init__(self, seed: int, workdir: Path, dims=(128, 8, 16), terms=14, width=6,
                 instances=3):
        self.seed = seed
        self.dims = tuple(dims)
        self.terms = terms
        self.k = width
        self.n_poly = terms - (width + 2)
        self.n_tea = terms - (2 * width + 1)
        self.instances = instances
        self.cycle = len(self.METHODS) * instances

    def _instance(self, rng):
        n1, n2, n3 = self.dims
        tensor = textrap.Tensor3
        q = textrap.tsvd(tensor(rng.standard_normal((n1, n1, n3)))).u
        ddata = np.zeros((n1, n1, n3))
        ddata[np.arange(n1), np.arange(n1), 0] = np.linspace(-self.RHO, self.RHO, n1)
        m = textrap.tprod(textrap.tprod(q, tensor(ddata)), textrap.ttranspose(q))
        x_star = tensor(rng.standard_normal(self.dims))
        c = x_star - textrap.tprod(m, x_star)
        terms = [tensor(rng.standard_normal(self.dims))]
        for _ in range(self.terms - 1):
            terms.append(textrap.tprod(m, terms[-1]) + c)
        return textrap.TensorSequence(terms), x_star, tensor(rng.standard_normal(self.dims))

    def setup(self) -> None:
        self._problems = [
            self._instance(np.random.default_rng([self.seed, j])) for j in range(self.instances)
        ]

    def _which(self, i: int):
        i %= self.cycle
        return i // len(self.METHODS), self.METHODS[i % len(self.METHODS)]

    def prepare_check(self) -> None:
        n, k = self.n_poly, self.k
        y_stack = [t.data for t in textrap.default_tmmpe_y(self.dims, k)]
        self._checks = []
        for seq, x_star, y in self._problems:
            terms = [t.data for t in seq]
            refs = {m: reference.polynomial_extrapolant(terms, n, k, m) for m in ("tmpe", "trre")}
            refs["tmmpe"] = reference.polynomial_extrapolant(terms, n, k, "tmmpe", y_stack)
            refs["ttea"] = reference.ttea_extrapolant(terms, self.n_tea, k, y.data)
            plain = min(_rel(t, x_star.data) for t in terms)
            self._checks.append((refs, x_star.data, plain))

    def op(self, i: int):
        j, method = self._which(i)
        seq, _, y = self._problems[j]
        if method == "ttea":
            return textrap.ttea_solve(seq, self.n_tea, self.k, y)[0]
        custom_y = textrap.default_tmmpe_y(seq.dims, self.k) if method == "tmmpe" else None
        return textrap.extrapolate(seq, self.n_poly, self.k, method, custom_y).t_k

    def collect(self, t_k) -> Output:
        return Output(t_k.data, self.k)

    def check(self, i: int, out: Output) -> Verdict:
        j, method = self._which(i)
        refs, x_star, plain = self._checks[j]
        deviation = _rel(out.t_k, refs[method])
        ok = bool(np.isfinite(deviation) and deviation <= CHECK_RTOL)
        return Verdict(ok, deviation, _rel(out.t_k, x_star), plain, j, method in self.SCORED)


def _cli(argv) -> None:
    code = textrap.cli.main(argv)
    if code != 0:
        raise BenchError(f"textrap {argv[0]} exited with code {code}")


WORKLOADS = {w.name: w for w in (SolveKmaxRandom, SolveTolSmooth, ExtrapolateSweep)}
