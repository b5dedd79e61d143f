"""Dense per-face references for the sequence transforms.

Each transform is recomputed with plain numpy on the DFT faces of the
terms: on face f every T-product becomes an ordinary complex matrix product,
so the block systems of TMPE/TRRE/TMMPE and TTEA are assembled as single
dense matrices and solved with ``np.linalg.solve``.  Nothing here calls the
library, so a defect in its tensor types, products or block engine shows as
a deviation from these values.
"""

from __future__ import annotations

import numpy as np


def _faces(terms) -> np.ndarray:
    """Stack the terms as (count, n1, n2, n3) and transform along mode 3."""
    return np.fft.fft(np.stack([np.asarray(t, dtype=np.float64) for t in terms]), axis=3)


def _to_real(faces: np.ndarray) -> np.ndarray:
    out = np.fft.ifft(faces, axis=2)
    scale = max(1.0, float(np.max(np.abs(out))))
    if float(np.max(np.abs(out.imag))) > 1e-8 * scale:
        raise ArithmeticError("dense reference left an imaginary residue")
    return out.real


def polynomial_extrapolant(terms, n: int, k: int, method: str, y_stack=None) -> np.ndarray:
    """T_k of TMPE / TRRE / TMMPE at index n, width k.

    Per face: V = [DS_n .. DS_{n+k-1}], Y the method's test block,
    beta = solve(Y^H V, -Y^H DS_{n+k}), gamma_j = beta_j (I + sum beta)^-1,
    gamma_k = (I + sum beta)^-1 and T_k = sum_j S_{n+j} gamma_j.
    ``y_stack`` holds the k TMMPE test tensors.
    """
    s = _faces(terms)
    n1, n2, n3 = s.shape[1:]
    ds = s[n + 1 : n + k + 2] - s[n : n + k + 1]
    if method == "tmpe":
        ys = ds[:k]
    elif method == "trre":
        ys = (ds[1:] - ds[:-1])[:k]
    elif method == "tmmpe":
        ys = _faces(y_stack)
    else:
        raise ValueError(f"unknown method {method!r}")
    out = np.empty((n1, n2, n3), dtype=np.complex128)
    eye = np.eye(n2)
    for f in range(n3):
        v = np.concatenate(list(ds[:k, :, :, f]), axis=1)
        yh = np.concatenate(list(ys[:, :, :, f]), axis=1).conj().T
        beta = np.linalg.solve(yh @ v, -(yh @ ds[k, :, :, f]))
        blocks = beta.reshape(k, n2, n2)
        inv_total = np.linalg.inv(eye + blocks.sum(axis=0))
        t = s[n + k, :, :, f] @ inv_total
        for j in range(k):
            t = t + s[n + j, :, :, f] @ (blocks[j] @ inv_total)
        out[:, :, f] = t
    return _to_real(out)


def ttea_extrapolant(terms, n: int, k: int, y) -> np.ndarray:
    """E_k of TTEA at index n, width k, test tensor y.

    Per face: block row j, column i (1-based) is y^H D2S_{n+i+j-1}, the
    right-hand side -y^H DS_{n+j}, and E_k = S_n + sum_i DS_{n+i-1} beta_i.
    """
    s = _faces(terms)
    n1, n2, n3 = s.shape[1:]
    ds = s[n + 1 : n + 2 * k + 1] - s[n : n + 2 * k]
    d2s = ds[1:] - ds[:-1]
    yf = np.fft.fft(np.asarray(y, dtype=np.float64), axis=2)
    out = np.empty((n1, n2, n3), dtype=np.complex128)
    for f in range(n3):
        yh = yf[:, :, f].conj().T
        big = np.block([[yh @ d2s[i + j, :, :, f] for i in range(k)] for j in range(k)])
        rhs = np.concatenate([-(yh @ ds[j, :, :, f]) for j in range(k)], axis=0)
        beta = np.linalg.solve(big, rhs).reshape(k, n2, n2)
        out[:, :, f] = s[n, :, :, f] + sum(ds[i, :, :, f] @ beta[i] for i in range(k))
    return _to_real(out)


def rre_extrapolant(terms, k: int) -> np.ndarray:
    """T_k of RRE at index 0, width k, on a sequence of one-column terms.

    Per face the coefficients are scalars: minimise |sum_j gamma_j DS_j|
    subject to sum_j gamma_j = 1 by least squares on the columns
    DS_j - DS_k (no normal equations, so the conditioning is not squared),
    then T_k = sum_j gamma_j S_j.
    """
    s = _faces(terms[: k + 2])
    if s.shape[2] != 1:
        raise ValueError("rre_extrapolant takes one-column terms")
    s = s[:, :, 0, :]
    ds = s[1:] - s[:-1]
    out = np.empty(s.shape[1:], dtype=np.complex128)
    for f in range(s.shape[2]):
        d = ds[:, :, f].T
        head = np.linalg.lstsq(d[:, :k] - d[:, k : k + 1], -d[:, k], rcond=None)[0]
        gamma = np.append(head, 1.0 - head.sum())
        out[:, f] = s[: k + 1, :, f].T @ gamma
    return _to_real(out[:, None, :])
