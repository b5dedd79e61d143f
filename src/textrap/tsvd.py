"""Tensor SVD, truncation, tubal rank, and minimum-norm least squares.

The decomposition is an ordinary SVD of every DFT face of the real-FFT half
spectrum (faces ``0 .. n3 // 2``, see :mod:`textrap.tensor_core`), one
``np.linalg.svd`` call per face; faces 0 and n3/2 are real matrices and are
decomposed as real.  ``TsvdFactors`` keeps these face factors
and transforms ``u``, ``s`` and ``v`` back along mode 3 on first read, so
that ``a = u * s * v^T`` holds under the T-product; the other faces are the
conjugates of these, so the inverse transform is real by construction.
Factors are in economy form: ``u`` is n1 x r x n3, ``s`` is r x r x n3 and
F-diagonal, ``v`` is n2 x r x n3, with ``r = min(n1, n2)`` in the full
case.  Column slices of ``u`` and ``v`` are orthonormal under the T-scalar
product; ``u`` and ``v`` are orthogonal tensors outright whenever they are
square.  Truncation, least squares and the grid left inverse of
:mod:`textrap.stack_products` use the same face SVD, and every pseudo-inverse
is ``v s^+ u^H`` on the faces with the one ``PINV_RCOND`` cutoff.

A tolerance-stopped solve first tries the leading singular triplets only:
the private ``_leading_tsvd`` gets them from a randomized range finder on
the same half-spectrum faces, with one Gaussian test matrix for every face,
decomposes the small projection by an R-SVD on the faces, and yields those
face factors as ``TsvdFactors`` with how many of them can be trusted after
each power step, so that a solve which trusts the first step's outcome
pays for one step only.

Three steps run through ``tensor_core._face_split``: the face SVDs of the
full path (:func:`tsvd`, :func:`ttsvd`, :func:`tls_solve` and the grid left
inverse), and the attempt's operator transform, by row ranges into one array
of contiguous faces, and its per-face work (each power step, with the R-SVD
as one batched call per range and the triplet residuals after it).  Each is
split into min(count, usable CPUs) contiguous ranges, one on the calling
thread and the others on the persistent helper threads of a
``ThreadPoolExecutor``; the full path puts its real faces first.  The
CPU count is the process's CPU affinity; there is no option, and on one CPU
the same code runs one range on the calling thread.
Every lane and face goes through the same numpy calls as without the split,
so the results are bit-identical for any CPU count and any memory layout of
the operator (at one BLAS thread setting: BLAS may round differently with
another).  BLAS threads multiply with these threads: n BLAS threads per
call may mean n x (usable CPUs) threads in all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError
from .tensor_core import (
    Tensor3,
    TubalScalar,
    _adjoint,
    _face_linalg,
    _face_split,
    _faces,
    _full_spectrum,
    _require_finite,
    _require_int,
    _unfaces,
    read_tns3,
    write_tns3,
)
from .tproduct_algebra import INVERTIBILITY_THRESHOLD, _orthogonality_residual, tprod, ttranspose

__all__ = [
    "TsvdFactors",
    "tsvd",
    "ttsvd",
    "truncated_expansion",
    "tls_solve",
    "tubal_rank",
    "save_factors",
    "load_factors",
    "PINV_RCOND",
]

#: relative cutoff for pseudo-inverting singular values, per face:
#: entries at or below PINV_RCOND * (largest singular value of that face)
#: map to zero
PINV_RCOND = 1e-13

#: seed of the fixed Gaussian test matrix of ``_leading_tsvd``
_TEST_MATRIX_SEED = 0
#: trailing triplets of ``_leading_tsvd`` that are never trusted: the
#: range finder resolves the last columns of its test matrix worst (at
#: 10 ** -0.26 per index, 64 x 64 x 2, singular values 1 .. 12 agree with the
#: full T-SVD to 2.3e-14 of the largest, 13 misses by 3.3e-11), and the
#: deviation bounds of Halko, Martinsson and Tropp (SIAM Review 53, 2011,
#: Section 10.3) assume an oversampling of at least 4
_MARGIN = 4
#: most power steps of ``_leading_tsvd``, which yields its factors after
#: each: with one, triplet 11 of 20 smooth 128 x 128 x 32 benchmark operators
#: (10 ** -0.5 per index) had residuals up to 2.1e-13 x the face's largest
#: singular value, above the trust bound, so one step trusts 10 or 11
#: triplets; with two, triplets 1 .. 13 stay below 1.1e-14 and 12 are trusted
_POWER_STEPS = 2


@dataclass(frozen=True)
class TsvdFactors:
    """Factors of a (possibly truncated) tensor SVD, made by :func:`tsvd`,
    :func:`ttsvd` or :func:`load_factors` and held as half-spectrum faces;
    ``u``, ``s``, ``v`` and ``face_singular_values`` are made on first read.

    Attributes
    ----------
    u, s, v : Tensor3
        ``u`` is n1 x r x n3, ``s`` is r x r x n3 F-diagonal with
        nonincreasing diagonal tubes, ``v`` is n2 x r x n3.
    r : int
        Number of retained singular triplets.
    face_singular_values : numpy.ndarray
        Shape (n3, r); row f holds the retained singular values of DFT
        face f, sorted descending.
    """

    _uf: np.ndarray
    _sv: np.ndarray
    _vf: np.ndarray
    _n3: int

    @property
    def r(self) -> int:
        return self._sv.shape[1]

    @cached_property
    def u(self) -> Tensor3:
        return _unfaces(self._uf, self._n3)

    @cached_property
    def s(self) -> Tensor3:
        data = np.zeros((self.r, self.r, self._n3))
        idx = np.arange(self.r)
        data[idx, idx, :] = np.fft.irfft(self._sv, n=self._n3, axis=0).T
        return Tensor3(data)

    @cached_property
    def v(self) -> Tensor3:
        return _unfaces(self._vf, self._n3)

    @cached_property
    def face_singular_values(self) -> np.ndarray:
        return _full_spectrum(self._sv, self._n3)

    def reconstruction(self) -> Tensor3:
        """``u * s * v^T`` under the T-product."""
        return tprod(tprod(self.u, self.s), ttranspose(self.v))

    def orthogonality_residual(self) -> float:
        """Worst deviation of the factors from orthonormal columns.

        Measures ``u^T * u - I`` and ``v^T * v - I`` always, and the
        two-sided products as well when the factor is square.
        """
        return float(np.max([_orthogonality_residual(q) for q in (self.u, self.v)]))

    def f_diagonality_residual(self) -> float:
        """Largest off-diagonal magnitude over the frontal slices of ``s``."""
        off = self.s.data.copy()
        idx = np.arange(self.r)
        off[idx, idx, :] = 0.0
        return float(np.max(np.abs(off))) if off.size else 0.0


def _face_svd(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD of every face of an (F, m, n) stack: ``(uf, sv, vf)`` of
    shapes (F, m, r), (F, r) and (F, n, r) with ``face = uf sv vf^H`` and
    each row of ``sv`` sorted descending.

    The faces are split over the usable CPUs by ``_face_split``, one LAPACK
    call per face, so a face has the same bits on any number of CPUs.  A
    face whose imaginary part is exactly zero (faces 0 and n3/2 of a real
    tensor) is decomposed as a real matrix, 1.4x as fast at 64 x 64 (one
    OpenBLAS thread, 2-vCPU Xeon).  The real faces are split first, so
    that 5 faces on 2 CPUs give the calling thread both real faces and one
    complex face, not one real and two complex.  One batched call per
    range was as fast, but a helper thread's malloc arena kept that batch's
    temporaries: 4 MiB more peak RSS than one call per face on
    128 x 128 x 32 tolerance solves, whose set-up runs ``tsvd``.
    """
    count, m, n = faces.shape
    r = min(m, n)
    # vf laid out as the adjoint of a batched call's vh, so products with it round as before
    uf, sv, vf = (np.empty((count, m, r), complex), np.empty((count, r)),
                  np.empty((count, r, n), complex).swapaxes(1, 2))

    def svd(faces):  # named for the messages of _face_linalg
        complex_faces = faces.imag.any(axis=(1, 2))
        # the real faces first: the first range, the calling thread's and never
        # the shorter, then holds the cheap faces
        order = np.argsort(complex_faces, kind="stable")

        def kernel(lo, hi):
            for f in order[lo:hi]:
                face = faces[f] if complex_faces[f] else faces[f].real
                uf[f], sv[f], vh = np.linalg.svd(face, full_matrices=False)
                vf[f] = vh.conj().T

        _face_split(kernel, count)

    _face_linalg(svd, faces)
    return uf, sv, vf


def _pseudo_invert_diagonal(sv: np.ndarray) -> np.ndarray:
    """Per-face reciprocals of the singular values ``sv`` (F, k), rows sorted
    descending; entries at or below ``PINV_RCOND`` times the face maximum map
    to zero.  This is the one place the cutoff is applied."""
    out = np.zeros_like(sv)
    keep = sv > PINV_RCOND * sv[:, :1]
    out[keep] = 1.0 / sv[keep]
    return out


def _face_pinv(uf: np.ndarray, sv: np.ndarray, vf: np.ndarray) -> np.ndarray:
    """Pseudo-inverse faces ``(vf s^+) @ uf^H`` of :func:`_face_svd` factors,
    possibly truncated to their leading columns."""
    return (vf * _pseudo_invert_diagonal(sv)[:, None, :]) @ _adjoint(uf)


def tsvd(a: Tensor3) -> TsvdFactors:
    """Full tensor SVD: ``a = u * s * v^T`` with r = min(n1, n2) triplets."""
    return TsvdFactors(*_face_svd(_faces(a.data)), a.n3)


def _range_finder(af, omega, q, uf, sv, vf, residual) -> None:
    """One power step of :func:`_leading_tsvd` on a range of faces.

    From operator faces ``af`` and the basis ``q`` of the step before (or,
    with a test matrix ``omega``, from the QR of the sketch ``af @ omega``),
    make one power step and keep its basis in ``q``; write the face factors
    of the leading triplets into ``uf``, ``sv`` and ``vf`` and their
    residuals ``|A_f v_j - s_j u_j|`` into ``residual``."""
    basis = q if omega is None else np.linalg.qr(af @ omega)[0]
    # A^H Q as (Q^H A)^H, so that A's faces are never copied
    q[:] = basis = np.linalg.qr(af @ _adjoint(_adjoint(basis) @ af))[0]
    pf, rf = np.linalg.qr(_adjoint(_adjoint(basis) @ af))
    # one batched call, not _face_svd: this runs in a range of _face_split, which must not nest
    ur, sv[:], vr = _face_linalg(np.linalg.svd, _adjoint(rf), full_matrices=False)
    np.matmul(basis, ur, out=uf)
    np.matmul(pf, _adjoint(vr), out=vf)
    # a helper thread's malloc arena keeps its peak, so free what is done
    del basis, pf
    residual[:] = np.linalg.norm(af @ vf - uf * sv[:, None, :], axis=1)


def _leading_tsvd(a: Tensor3, p: int):
    """The leading ``p`` singular triplets of every face of ``a`` after each
    power step, and how many of them are trusted: an iterator of at most
    ``_POWER_STEPS`` pairs ``(TsvdFactors, trusted)``.

    A randomized range finder (Halko, Martinsson and Tropp, SIAM Review 53,
    2011) on the half-spectrum faces ``A_f`` of ``a``, formed once with
    contiguous faces; in T-product terms the randomized t-SVD of Zhang,
    Saibaba, Kilmer and Aeron (Numer. Linear Algebra Appl. 25, 2018).
    ``Y_f = A_f Omega`` for one fixed-seed real Gaussian n2 x p matrix
    ``Omega`` shared by every face (so each face's sketch is Gaussian, and
    faces 0 and n3/2 stay real) and a QR start the basis ``Q``; each power
    step ``A_f (A_f^H Q_f)``, followed by a QR, continues from the basis of
    the step before.  After each step the projection ``B_f = Q_f^H A_f`` is
    decomposed on the faces by Chan's R-SVD (ACM TOMS 8, 1982): a QR
    ``B_f^H = P_f R_f`` and the SVD ``R_f^H = U_R S V_R^H`` of a p x p face
    give ``u = Q U_R`` and ``v = P V_R``.  The steps run as the iterator is
    read, so a caller that stops after the first pays for one step; the
    factors after step 2 are those of two steps made in one go.  The result
    does not depend on numpy's global random state, and repeated calls give
    identical bits.  A non-finite entry in ``a`` raises ``FaceSvdError`` at
    the call, before the operator is transformed.

    Triplet j is trusted when ``|A_f v_j - s_j u_j|`` is at most
    ``PINV_RCOND`` times the largest singular value of face f on every face
    (it is then an exact triplet of a perturbation of ``a`` below the
    pseudo-inverse cutoff) and it lies at least ``_MARGIN`` before ``p``;
    the count is of the leading run of trusted triplets.
    """
    _require_finite(a, "operator")
    f = a.n3 // 2 + 1
    # faces in a's order of rows and columns, so the row-range transform writes
    # them as it reads a (C-ordered faces of an F-ordered a took 2.5x as long)
    af = (np.empty((f, a.n2, a.n1), complex).swapaxes(1, 2) if a.data.strides[0] < a.data.strides[1]
          else np.empty((f, a.n1, a.n2), complex))
    lanes = np.moveaxis(af, 0, 2)
    _face_split(lambda lo, hi: np.fft.rfft(a.data[lo:hi], axis=2, out=lanes[lo:hi]), a.n1)
    omega = np.random.default_rng(_TEST_MATRIX_SEED).standard_normal((a.n2, p))
    return _power_steps(af, omega, np.empty((f, a.n1, p), complex), a.n3)


def _power_steps(af, omega, q, n3: int):
    """The steps of :func:`_leading_tsvd` on its operator faces ``af``, with
    the basis kept in ``q`` from one step to the next."""
    f, n1, p = q.shape
    for step in range(_POWER_STEPS):
        sketch = omega if step == 0 else None
        out = uf, sv, vf, residual = (np.empty((f, n1, p), complex), np.empty((f, p)),
                                      np.empty((f, af.shape[2], p), complex), np.empty((f, p)))
        _face_split(lambda lo, hi: _range_finder(af[lo:hi], sketch, q[lo:hi],
                                                 *(x[lo:hi] for x in out)), f)
        ok = (residual <= PINV_RCOND * sv[:, :1]).all(axis=0)
        trusted = min(int(np.logical_and.accumulate(ok).sum()), p - _MARGIN)
        yield TsvdFactors(uf, sv, vf, n3), trusted


def ttsvd(a: Tensor3, k: int) -> tuple[TsvdFactors, Tensor3]:
    """Truncated tensor SVD plus the rank-k Moore-Penrose approximation.

    Keeps the leading ``k`` singular triplets of every face and returns
    ``(factors, mp_inverse)`` with ``mp_inverse = v_k * s_k^+ * u_k^T``,
    where the F-diagonal ``s_k^+`` pseudo-inverts each face's diagonal.
    At ``k = min(n1, n2)`` on a full-tubal-rank tensor, ``mp_inverse``
    satisfies all four Moore-Penrose axioms.  A ``k`` that is not an
    integer raises ``InvalidParameterError``.
    """
    _require_int(k, "k")
    r = min(a.n1, a.n2)
    if not 1 <= k <= r:
        raise DimensionMismatchError(f"truncation index k = {k} outside 1 .. {r} for dims {a.dims}")
    uf, sv, vf = (x[..., :k] for x in _face_svd(_faces(a.data)))
    return TsvdFactors(uf, sv, vf, a.n3), _unfaces(_face_pinv(uf, sv, vf), a.n3)


def truncated_expansion(factors: TsvdFactors) -> list[tuple[Tensor3, TubalScalar, Tensor3]]:
    """Expansion of the factors as r triplets ``(u_j, d_j, v_j)``.

    ``u_j`` and ``v_j`` are lateral slices, ``d_j = s(j, j, :)`` the j-th
    singular tube; ``sum_j u_j * d_j * v_j^T`` reproduces the factor
    product.
    """
    return [
        (factors.u.lateral_slice(j), factors.s.tube(j, j), factors.v.lateral_slice(j))
        for j in range(factors.r)
    ]


def tls_solve(a: Tensor3, b: Tensor3) -> Tensor3:
    """Minimum-norm least-squares solution of ``a * x = b``.

    Returns ``a^+ * b`` computed facewise: every DFT face of the result is
    the matrix pseudoinverse of the corresponding face of ``a`` (relative
    cutoff ``PINV_RCOND``) applied to the face of ``b``, from the face SVDs
    of :func:`tsvd`.  Among all ``x`` minimizing ``frobenius_norm(a*x - b)``
    this solution has the smallest Frobenius norm.  A non-finite entry in
    ``a`` or ``b`` raises ``FaceSvdError``.
    """
    if a.n1 != b.n1 or a.n3 != b.n3:
        raise DimensionMismatchError(f"tls_solve shapes disagree: {a.dims} vs {b.dims}")
    _require_finite(b, "right-hand side")
    pinv = _face_pinv(*_face_svd(_faces(a.data)))
    return _unfaces(pinv @ _faces(b.data), a.n3)


def tubal_rank(a: Tensor3) -> int:
    """Number of singular tubes above ``INVERTIBILITY_THRESHOLD`` relative to
    the largest: indices j with ``max_f sigma_j(f) > INVERTIBILITY_THRESHOLD *
    max_f sigma_1(f)``, the refusal rule's bound, so a square tensor of rank
    below its size is never invertible.
    """
    sv = _face_linalg(np.linalg.svd, _faces(a.data), compute_uv=False)
    top = float(np.max(sv[:, 0]))
    return int(np.sum(np.max(sv, axis=0) > INVERTIBILITY_THRESHOLD * top))


def save_factors(factors: TsvdFactors, prefix) -> dict:
    """Write factors as three TNS3 files plus a JSON sidecar.

    Files are ``{prefix}_u.tns3``, ``{prefix}_s.tns3``, ``{prefix}_v.tns3``
    and ``{prefix}_tsvd.json``; returns the mapping of part name to path.
    """
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = {
        "u": prefix.with_name(prefix.name + "_u.tns3"),
        "s": prefix.with_name(prefix.name + "_s.tns3"),
        "v": prefix.with_name(prefix.name + "_v.tns3"),
        "sidecar": prefix.with_name(prefix.name + "_tsvd.json"),
    }
    write_tns3(factors.u, paths["u"])
    write_tns3(factors.s, paths["s"])
    write_tns3(factors.v, paths["v"])
    sidecar = {
        "r": factors.r,
        "face_singular_values": factors.face_singular_values.tolist(),
    }
    paths["sidecar"].write_text(json.dumps(sidecar, indent=2), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def load_factors(prefix) -> TsvdFactors:
    """Read factors written by :func:`save_factors`; other sidecar keys,
    such as the ``tol`` that earlier versions wrote, are ignored.  The faces
    are those of the ``u`` and ``v`` read and of the sidecar's singular
    values; the tensors read are kept as ``u``, ``s`` and ``v``."""
    prefix = Path(prefix)
    sidecar = json.loads(prefix.with_name(prefix.name + "_tsvd.json").read_text(encoding="utf-8"))
    u, s, v = (read_tns3(prefix.with_name(f"{prefix.name}_{part}.tns3")) for part in "usv")
    sv = np.asarray(sidecar["face_singular_values"], dtype=float)[: u.n3 // 2 + 1]
    factors = TsvdFactors(_faces(u.data), sv, _faces(v.data), u.n3)
    factors.__dict__.update(u=u, s=s, v=v)  # the cached tensors
    return factors
