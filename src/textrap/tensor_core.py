"""Dense tensor storage, unfoldings, the face-domain kernel, and binary I/O.

Conventions
-----------
A third-order tensor of shape ``n1 x n2 x n3`` is held as a NumPy array
``data`` with ``data[i1, i2, i3]`` the entry in row ``i1``, column ``i2``
of frontal slice ``i3``.  Linearized storage (and the TNS3 byte format)
is frontal-slice-major and column-major within each slice: ``i1`` varies
fastest, then ``i2``, then ``i3``.  That is exactly the Fortran-order
ravel of ``data``, so unfoldings are reshapes rather than gathers.

The DFT along mode 3 uses the unnormalized forward / normalized inverse
convention: face ``f`` is ``sum_j data[:, :, j] * w**(f*j)`` with
``w = exp(-2*pi*1j/n3)``.  ``n3`` may be any positive integer.

Face-domain work uses one format, private to the package: the real-FFT
half spectrum as an ``(F, m, n)`` stack with ``F = n3 // 2 + 1``, face
first, so that per-face linear algebra is a single batched ``np.linalg``
call.  Face ``n3 - f`` of a real tensor is the conjugate of face ``f``, so
the half spectrum determines the tensor, and the inverse transform is real
by construction.  No face format is exported; the full spectrum of a
tensor ``t`` is ``np.fft.fft(t.data, axis=2)``.

All slice and face indices in this package are 0-based.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    DimensionMismatchError,
    DimensionOverflowError,
    FaceSvdError,
    OracleCapError,
    TensorFileError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)

__all__ = [
    "Tensor3",
    "TubalScalar",
    "Stack4",
    "Stack5",
    "identity_tensor",
    "identity_tube",
    "frobenius_norm",
    "bcirc",
    "matvec_unfold",
    "fold",
    "read_tns3",
    "write_tns3",
    "read_tns4",
    "write_tns4",
    "ORACLE_CAP",
]

#: largest block-circulant dimension :func:`bcirc` will materialize
ORACLE_CAP = 4096


class Tensor3:
    """Immutable dense real tensor of shape ``(n1, n2, n3)``.

    Parameters
    ----------
    data : array_like
        A 3-mode array of real values.  The input is copied and frozen.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 3:
            raise DimensionMismatchError(
                f"Tensor3 requires a 3-mode array, got ndim={arr.ndim}"
            )
        if min(arr.shape) < 1:
            raise DimensionMismatchError(
                f"Tensor3 dimensions must be positive, got {arr.shape}"
            )
        arr.setflags(write=False)
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        """Read-only ``(n1, n2, n3)`` array of entries."""
        return self._data

    @property
    def dims(self) -> tuple[int, int, int]:
        return self._data.shape

    @property
    def n1(self) -> int:
        return self._data.shape[0]

    @property
    def n2(self) -> int:
        return self._data.shape[1]

    @property
    def n3(self) -> int:
        return self._data.shape[2]

    @classmethod
    def zeros(cls, n1: int, n2: int, n3: int) -> "Tensor3":
        return cls(np.zeros((n1, n2, n3)))

    @classmethod
    def from_frontal_slices(cls, slices: Sequence) -> "Tensor3":
        """Build a tensor from an ordered sequence of ``n1 x n2`` matrices."""
        mats = [np.asarray(s, dtype=np.float64) for s in slices]
        if not mats:
            raise DimensionMismatchError("at least one frontal slice is required")
        return cls(np.stack(mats, axis=2))

    def frontal_slice(self, i3: int) -> np.ndarray:
        """Return frontal slice ``i3`` as a read-only ``n1 x n2`` view."""
        return self._data[:, :, i3]

    def lateral_slice(self, i2: int) -> "Tensor3":
        """Return lateral slice ``i2`` as an ``n1 x 1 x n3`` tensor."""
        return Tensor3(self._data[:, i2 : i2 + 1, :])

    def tube(self, i1: int, i2: int) -> "TubalScalar":
        """Return the tube fiber at row ``i1``, column ``i2``."""
        return TubalScalar(self._data[i1, i2, :])

    def __add__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        if other.dims != self.dims:
            raise DimensionMismatchError(f"cannot add {self.dims} and {other.dims}")
        return Tensor3(self._data + other._data)

    def __sub__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        if other.dims != self.dims:
            raise DimensionMismatchError(f"cannot subtract {other.dims} from {self.dims}")
        return Tensor3(self._data - other._data)

    def __neg__(self):
        return Tensor3(-self._data)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return Tensor3(self._data * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        n1, n2, n3 = self.dims
        return f"{type(self).__name__}(dims=({n1}, {n2}, {n3}))"


class TubalScalar(Tensor3):
    """A ``1 x 1 x n3`` tensor, i.e. a single tube fiber.

    Accepts either a length-``n3`` vector or a ``1 x 1 x n3`` array.
    """

    __slots__ = ()

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, 1, -1)
        super().__init__(arr)
        if self.n1 != 1 or self.n2 != 1:
            raise DimensionMismatchError(
                f"TubalScalar requires n1 = n2 = 1, got dims {self.dims}"
            )

    @property
    def values(self) -> np.ndarray:
        """The tube entries as a length-``n3`` read-only vector."""
        return self._data[0, 0, :]


class Stack4:
    """An ordered stack of equally sized Tensor3 frontal slices (a 4-mode tensor)."""

    __slots__ = ("_slices",)

    def __init__(self, slices: Iterable):
        members = tuple(s if isinstance(s, Tensor3) else Tensor3(s) for s in slices)
        dims = {m.dims for m in members}
        if len(dims) > 1:
            raise DimensionMismatchError(f"Stack4 members differ in dims: {sorted(dims)}")
        self._slices = members

    @property
    def slices(self) -> tuple:
        return self._slices

    @property
    def count(self) -> int:
        return len(self._slices)

    @property
    def dims(self):
        """Dims shared by every member, or None for an empty stack."""
        return self._slices[0].dims if self._slices else None

    def __len__(self):
        return len(self._slices)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Stack4(self._slices[key])
        return self._slices[key]

    def __iter__(self):
        return iter(self._slices)

    def __add__(self, other):
        if not isinstance(other, Stack4):
            return NotImplemented
        if other.count != self.count:
            raise DimensionMismatchError("Stack4 addition requires equal counts")
        return Stack4(a + b for a, b in zip(self._slices, other._slices))

    def __sub__(self, other):
        if not isinstance(other, Stack4):
            return NotImplemented
        if other.count != self.count:
            raise DimensionMismatchError("Stack4 subtraction requires equal counts")
        return Stack4(a - b for a, b in zip(self._slices, other._slices))

    def __repr__(self):
        return f"Stack4(count={self.count}, dims={self.dims})"


class Stack5:
    """A fully populated grid of equally sized Tensor3 blocks (a 5-mode tensor).

    ``block(i, j)`` addresses mode-4 index ``i`` and mode-5 index ``j``,
    both 0-based.  ``grid_shape`` is ``(mode-4 extent, mode-5 extent)``.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable):
        rows = tuple(
            tuple(b if isinstance(b, Tensor3) else Tensor3(b) for b in row)
            for row in blocks
        )
        if not rows or not rows[0]:
            raise DimensionMismatchError("Stack5 requires a non-empty grid")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise DimensionMismatchError("Stack5 grid rows differ in length")
        dims = {b.dims for row in rows for b in row}
        if len(dims) > 1:
            raise DimensionMismatchError(f"Stack5 blocks differ in dims: {sorted(dims)}")
        self._blocks = rows

    @property
    def blocks(self) -> tuple:
        return self._blocks

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (len(self._blocks), len(self._blocks[0]))

    @property
    def block_dims(self) -> tuple[int, int, int]:
        return self._blocks[0][0].dims

    def block(self, i: int, j: int) -> Tensor3:
        return self._blocks[i][j]

    def __getitem__(self, key):
        i, j = key
        return self._blocks[i][j]

    def __add__(self, other):
        if not isinstance(other, Stack5):
            return NotImplemented
        if other.grid_shape != self.grid_shape:
            raise DimensionMismatchError("Stack5 addition requires equal grid shapes")
        return Stack5(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self._blocks, other._blocks)
        )

    def __sub__(self, other):
        if not isinstance(other, Stack5):
            return NotImplemented
        if other.grid_shape != self.grid_shape:
            raise DimensionMismatchError("Stack5 subtraction requires equal grid shapes")
        return Stack5(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self._blocks, other._blocks)
        )

    def __repr__(self):
        k, ell = self.grid_shape
        return f"Stack5(grid={k}x{ell}, block_dims={self.block_dims})"


def identity_tensor(n: int, n3: int) -> Tensor3:
    """The n x n x n3 identity: first frontal slice I_n, all others zero."""
    data = np.zeros((n, n, n3))
    data[:, :, 0] = np.eye(n)
    return Tensor3(data)


def identity_tube(n3: int) -> TubalScalar:
    """The identity tubal scalar e = (1, 0, ..., 0) of length n3."""
    values = np.zeros(n3)
    values[0] = 1.0
    return TubalScalar(values)


def frobenius_norm(t: Tensor3) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(t.data))


def bcirc(t: Tensor3) -> np.ndarray:
    """Block-circulant matrix of a tensor; test oracle only.

    Block row ``i``, block column ``j`` holds frontal slice ``(i - j) mod n3``.
    The output is ``(n1*n3) x (n2*n3)``, so the operation is capped: both
    matrix dimensions must stay at or below ``ORACLE_CAP``.

    Raises
    ------
    OracleCapError
        If the output matrix would exceed the cap.  bcirc exists for
        verification at small sizes, never for production computation.
    """
    n1, n2, n3 = t.dims
    if max(n1 * n3, n2 * n3) > ORACLE_CAP:
        raise OracleCapError(
            f"bcirc output {n1 * n3} x {n2 * n3} exceeds oracle cap {ORACLE_CAP}; "
            "this operation is for small-instance verification only"
        )
    out = np.zeros((n1 * n3, n2 * n3))
    for i in range(n3):
        for j in range(n3):
            out[i * n1 : (i + 1) * n1, j * n2 : (j + 1) * n2] = t.data[:, :, (i - j) % n3]
    return out


def matvec_unfold(t: Tensor3) -> np.ndarray:
    """Stack the frontal slices vertically into an ``(n1*n3) x n2`` matrix."""
    n1, n2, n3 = t.dims
    return t.data.transpose(2, 0, 1).reshape(n3 * n1, n2).copy()


def fold(m, dims: tuple[int, int, int]) -> Tensor3:
    """Inverse of :func:`matvec_unfold` for the given dims."""
    n1, n2, n3 = dims
    arr = np.asarray(m, dtype=np.float64)
    if arr.shape != (n1 * n3, n2):
        raise DimensionMismatchError(
            f"fold expects shape ({n1 * n3}, {n2}) for dims {dims}, got {arr.shape}"
        )
    return Tensor3(arr.reshape(n3, n1, n2).transpose(1, 2, 0))


def _faces(data: np.ndarray) -> np.ndarray:
    """Half-spectrum faces of a real ``(m, n, n3)`` array as an ``(F, m, n)`` stack."""
    return np.moveaxis(np.fft.rfft(data, axis=2), 2, 0)


def _unfaces(faces: np.ndarray, n3: int) -> Tensor3:
    """The real ``(m, n, n3)`` tensor whose half-spectrum faces are ``faces``."""
    return Tensor3(np.moveaxis(np.fft.irfft(faces, n=n3, axis=0), 0, 2))


def _block_tensor(rows) -> np.ndarray:
    """The array holding a grid of Tensor3 blocks, given as block rows of
    block columns: rows are stacked along mode 1, columns along mode 2."""
    return np.concatenate([np.concatenate([t.data for t in row], axis=1) for row in rows])


def _require_finite(t: Tensor3, name: str) -> None:
    """Refuse a tensor with a NaN or infinite entry: such an entry reaches
    every DFT face, so the error names face 0."""
    if not np.isfinite(t.data).all():
        raise FaceSvdError(f"{name} has non-finite entries", face_index=0)


def _full_spectrum(half: np.ndarray, n3: int) -> np.ndarray:
    """Per-face rows for all ``n3`` faces from the half-spectrum rows ``half``
    of a real tensor (face ``n3 - f`` shares the spectrum of face ``f``)."""
    f = np.arange(n3)
    return half[np.minimum(f, n3 - f)]


def _face_linalg(fn, faces: np.ndarray, *args, **kwargs):
    """``fn(faces, *args, **kwargs)`` for a batched ``np.linalg`` routine.

    LAPACK may fail on non-finite entries, or never return, so a face with
    a non-finite entry in ``faces`` or in a face-stack argument (such as a
    right-hand side) is refused up front; that and a ``LinAlgError`` both
    become ``FaceSvdError``, naming the first non-finite face when there is
    one.
    """
    finite = np.isfinite(faces).all(axis=(1, 2))
    for arg in args:
        if isinstance(arg, np.ndarray):
            finite &= np.isfinite(arg).all(axis=(1, 2))
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise FaceSvdError(
            f"{fn.__name__} refused: face {bad[0]} has non-finite entries",
            face_index=int(bad[0]),
        )
    try:
        return fn(faces, *args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise FaceSvdError(f"{fn.__name__} failed on the DFT faces: {exc}") from exc


# ---------------------------------------------------------------------------
# Binary formats.
#
# TNS3: magic "TNS3", version as u32 LE (= 1), n1, n2, n3 as u64 LE, then
# n1*n2*n3 IEEE-754 binary64 LE entries in storage order (i1 fastest).
# TNS4: magic "TNS4", version u32 LE (= 1), count u64 LE, n1, n2, n3 u64 LE,
# then count concatenated TNS3 payloads sharing that dims header.
# ---------------------------------------------------------------------------

_TNS3_MAGIC = b"TNS3"
_TNS4_MAGIC = b"TNS4"
_FORMAT_VERSION = 1
_HEADER3 = struct.Struct("<4sIQQQ")
_HEADER4 = struct.Struct("<4sIQQQQ")
_MAX_ELEMENTS = 2**48  # refuse absurd allocations from corrupt headers


def _check_dims(n1: int, n2: int, n3: int) -> None:
    if min(n1, n2, n3) < 1 or n1 * n2 * n3 > _MAX_ELEMENTS:
        raise DimensionOverflowError(
            f"header dimensions ({n1}, {n2}, {n3}) are outside the supported range"
        )


def _payload_bytes(t: Tensor3) -> bytes:
    return np.ravel(t.data, order="F").astype("<f8", copy=False).tobytes()


def _payload_to_data(buf: bytes, dims: tuple[int, int, int]) -> np.ndarray:
    flat = np.frombuffer(buf, dtype="<f8").astype(np.float64)
    return flat.reshape(dims, order="F")


def write_tns3(t: Tensor3, path) -> None:
    """Serialize a Tensor3 to the TNS3 binary format."""
    n1, n2, n3 = t.dims
    with open(path, "wb") as fh:
        fh.write(_HEADER3.pack(_TNS3_MAGIC, _FORMAT_VERSION, n1, n2, n3))
        fh.write(_payload_bytes(t))


def read_tns3(path) -> Tensor3:
    """Read a Tensor3 from a TNS3 file.

    Raises
    ------
    BadMagicError, UnsupportedVersionError, DimensionOverflowError,
    TruncatedPayloadError
        Distinct errors for the distinct ways a file can be malformed.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _TNS3_MAGIC:
        raise BadMagicError(f"expected magic {_TNS3_MAGIC!r}, got {raw[:4]!r}")
    if len(raw) < _HEADER3.size:
        raise TruncatedPayloadError(
            f"file holds {len(raw)} bytes, shorter than the {_HEADER3.size}-byte header"
        )
    _, version, n1, n2, n3 = _HEADER3.unpack_from(raw)
    if version != _FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported TNS3 version {version}")
    _check_dims(n1, n2, n3)
    expected = _HEADER3.size + 8 * n1 * n2 * n3
    if len(raw) < expected:
        raise TruncatedPayloadError(
            f"payload needs {expected} bytes total, file holds {len(raw)}"
        )
    if len(raw) > expected:
        raise TensorFileError(f"{len(raw) - expected} trailing bytes after payload")
    return Tensor3(_payload_to_data(raw[_HEADER3.size :], (n1, n2, n3)))


def write_tns4(stack: Stack4, path) -> None:
    """Serialize a non-empty Stack4 to the TNS4 binary format."""
    if stack.count == 0:
        raise DimensionMismatchError("cannot serialize an empty Stack4")
    n1, n2, n3 = stack.dims
    with open(path, "wb") as fh:
        fh.write(_HEADER4.pack(_TNS4_MAGIC, _FORMAT_VERSION, stack.count, n1, n2, n3))
        for member in stack:
            fh.write(_payload_bytes(member))


def read_tns4(path) -> Stack4:
    """Read a Stack4 from a TNS4 file.  Error taxonomy matches read_tns3."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _TNS4_MAGIC:
        raise BadMagicError(f"expected magic {_TNS4_MAGIC!r}, got {raw[:4]!r}")
    if len(raw) < _HEADER4.size:
        raise TruncatedPayloadError(
            f"file holds {len(raw)} bytes, shorter than the {_HEADER4.size}-byte header"
        )
    _, version, count, n1, n2, n3 = _HEADER4.unpack_from(raw)
    if version != _FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported TNS4 version {version}")
    if count < 1 or count > _MAX_ELEMENTS:
        raise DimensionOverflowError(f"slice count {count} is outside the supported range")
    _check_dims(n1, n2, n3)
    if count * n1 * n2 * n3 > _MAX_ELEMENTS:
        raise DimensionOverflowError(
            f"total size {count} x ({n1}, {n2}, {n3}) is outside the supported range"
        )
    block = 8 * n1 * n2 * n3
    expected = _HEADER4.size + count * block
    if len(raw) < expected:
        raise TruncatedPayloadError(
            f"payload needs {expected} bytes total, file holds {len(raw)}"
        )
    if len(raw) > expected:
        raise TensorFileError(f"{len(raw) - expected} trailing bytes after payload")
    members = []
    for i in range(count):
        start = _HEADER4.size + i * block
        members.append(Tensor3(_payload_to_data(raw[start : start + block], (n1, n2, n3))))
    return Stack4(members)
