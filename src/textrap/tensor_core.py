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

One rule refuses a face system (``tproduct_algebra._refusal``): a face's
smallest singular value at or below ``INVERTIBILITY_THRESHOLD`` times the
largest over all faces.  A time-domain tensor carries rounding of about
``eps * |A|`` in every entry and the DFT spreads it over every face, so a
face is known only to ``eps`` times the global largest value, not its own.
The pseudo-inverse cut (``PINV_RCOND`` in ``tsvd._pseudo_invert_diagonal``)
drops directions instead of refusing, so it stays per face, as
``np.linalg.pinv`` and the loop oracles cut per matrix.

A Stack4 (4-mode tensor) holds its members as one read-only
``(count, n1, n2, n3)`` array and a Stack5 (5-mode tensor) its blocks as
one read-only ``(k, l, n1, n2, n3)`` array; members and blocks are
Tensor3 views of it, made on access.  Stack contractions lay the members
out as one block tensor by a transpose and reshape of that array.

All slice and face indices in this package are 0-based.
"""

from __future__ import annotations

import math
import os
import queue
import struct
import threading
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    DimensionMismatchError,
    DimensionOverflowError,
    FaceSvdError,
    InvalidParameterError,
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


def _wrap(cls, arr: np.ndarray):
    """An instance of ``cls`` (Tensor3 or a stack class) holding ``arr``
    itself, frozen: the no-copy constructor, for arrays the library has just
    built and holds no writable reference to."""
    obj = object.__new__(cls)
    arr.setflags(write=False)
    obj._data = arr
    return obj


class _ArrayStack:
    """Storage shared by Stack4 and Stack5: one read-only array whose
    trailing three axes are the member dims, copied from the input."""

    __slots__ = ("_data",)

    def _store(self, members, what: str, grid=()):
        arrays = [m.data if isinstance(m, Tensor3) else Tensor3(m).data for m in members]
        dims = {a.shape for a in arrays}
        if len(dims) > 1:
            raise DimensionMismatchError(f"{what} differ in dims: {sorted(dims)}")
        data = np.stack(arrays).reshape(*grid, -1, *dims.pop()) if arrays else np.empty((0,) * 4)
        data.setflags(write=False)
        self._data = data

    def _combine(self, other, op):
        cls = Stack5 if isinstance(self, Stack5) else Stack4
        if not isinstance(other, cls):
            return NotImplemented
        if other._data.shape != self._data.shape:
            raise DimensionMismatchError(f"{op.__name__} needs equal shapes: {self} vs {other}")
        return _wrap(cls, op(self._data, other._data))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)


class Stack4(_ArrayStack):
    """An ordered stack of equally sized Tensor3 slices (a 4-mode tensor).

    The stack holds one read-only ``(count, n1, n2, n3)`` array, copied from
    the input; members are read-only Tensor3 views of it, made on access.
    """

    __slots__ = ()

    def __init__(self, slices: Iterable):
        self._store(slices, "Stack4 members")

    @property
    def slices(self) -> tuple:
        return tuple(self)

    @property
    def count(self) -> int:
        return len(self._data)

    @property
    def dims(self):
        """Dims shared by every member, or None for an empty stack."""
        return self._data.shape[1:] if len(self._data) else None

    def __len__(self):
        return len(self._data)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return _wrap(Stack4, self._data[key])
        return _wrap(Tensor3, self._data[key])

    def __iter__(self):
        return (_wrap(Tensor3, member) for member in self._data)

    def __repr__(self):
        return f"{type(self).__name__}(count={self.count}, dims={self.dims})"


class Stack5(_ArrayStack):
    """A fully populated grid of equally sized Tensor3 blocks (a 5-mode tensor).

    ``block(i, j)`` addresses mode-4 index ``i`` and mode-5 index ``j``,
    both 0-based.  ``grid_shape`` is ``(mode-4 extent, mode-5 extent)``.  The
    grid holds one read-only ``(k, l, n1, n2, n3)`` array, copied from the
    input; blocks are read-only Tensor3 views of it, made on access.
    """

    __slots__ = ()

    def __init__(self, blocks: Iterable):
        rows = [list(row) for row in blocks]
        if not rows or not rows[0]:
            raise DimensionMismatchError("Stack5 requires a non-empty grid")
        if any(len(row) != len(rows[0]) for row in rows):
            raise DimensionMismatchError("Stack5 grid rows differ in length")
        self._store([b for row in rows for b in row], "Stack5 blocks", (len(rows),))

    @property
    def blocks(self) -> tuple:
        return tuple(tuple(_wrap(Tensor3, b) for b in row) for row in self._data)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self._data.shape[:2]

    @property
    def block_dims(self) -> tuple[int, int, int]:
        return self._data.shape[2:]

    def block(self, i: int, j: int) -> Tensor3:
        return _wrap(Tensor3, self._data[i, j])

    def __getitem__(self, key):
        return self.block(*key)

    def __repr__(self):
        k, ell = self.grid_shape
        return f"Stack5(grid={k}x{ell}, block_dims={self.block_dims})"


def _stack_layout(stack: Stack4, on_top: bool = False) -> Tensor3:
    """The members of a non-empty stack laid out as one block tensor: side
    by side along mode 2, or on top of each other along mode 1."""
    count, n1, n2, n3 = stack._data.shape
    if on_top:
        return _wrap(Tensor3, stack._data.reshape(count * n1, n2, n3))
    return _wrap(Tensor3, stack._data.transpose(1, 0, 2, 3).reshape(n1, count * n2, n3))


def _grid_layout(grid: Stack5, transpose: bool = False) -> Tensor3:
    """The blocks of a grid laid out as one block tensor: block ``(i, j)``
    at block row ``i`` and block column ``j``, or with ``transpose`` at
    block row ``j`` and block column ``i``."""
    rows, cols = (1, 0) if transpose else (0, 1)
    shape = grid._data.shape
    arr = grid._data.transpose(rows, 2, cols, 3, 4)
    return _wrap(Tensor3, arr.reshape(shape[rows] * shape[2], shape[cols] * shape[3], shape[4]))


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


def _adjoint(faces: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every face of an (F, m, n) stack."""
    return faces.conj().swapaxes(1, 2)


def _unfaces(faces: np.ndarray, n3: int) -> Tensor3:
    """The real ``(m, n, n3)`` tensor whose half-spectrum faces are ``faces``."""
    return Tensor3(np.moveaxis(np.fft.irfft(faces, n=n3, axis=0), 0, 2))


def _require_finite(t: Tensor3, name: str) -> None:
    """Refuse a tensor with a NaN or infinite entry: such an entry reaches
    every DFT face, so the error names face 0."""
    if not np.isfinite(t.data).all():
        raise FaceSvdError(f"{name} has non-finite entries", face_index=0)


def _require_int(value, name: str) -> None:
    """Refuse a count parameter that is not an integer (a float, str or bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(name, f"{name} must be an integer, got {value!r}")


def _full_spectrum(half: np.ndarray, n3: int) -> np.ndarray:
    """Per-face rows for all ``n3`` faces from the half-spectrum rows ``half``
    of a real tensor (face ``n3 - f`` shares the spectrum of face ``f``)."""
    f = np.arange(n3)
    return half[np.minimum(f, n3 - f)]


def _refuse_non_finite(name: str, *stacks: np.ndarray) -> None:
    """Refuse ``(F, m, n)`` face stacks, passed to ``name``, that hold a
    non-finite entry: ``FaceSvdError`` names the first face with one."""
    finite = np.isfinite(stacks[0]).all(axis=(1, 2))
    for stack in stacks[1:]:
        finite &= np.isfinite(stack).all(axis=(1, 2))
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise FaceSvdError(
            f"{name} refused: face {bad[0]} has non-finite entries",
            face_index=int(bad[0]),
        )


def _face_linalg(fn, faces: np.ndarray, *args, **kwargs):
    """``fn(faces, *args, **kwargs)`` for a batched ``np.linalg`` routine.

    LAPACK may fail on non-finite entries, or never return, so a face with
    a non-finite entry in ``faces`` or in a face-stack argument (such as a
    right-hand side) is refused up front; that and a ``LinAlgError`` both
    become ``FaceSvdError``, naming the first non-finite face when there is
    one.
    """
    _refuse_non_finite(fn.__name__, faces, *(arg for arg in args if isinstance(arg, np.ndarray)))
    try:
        return fn(faces, *args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise FaceSvdError(f"{fn.__name__} failed on the DFT faces: {exc}") from exc


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: ``(size, jobs)``: the number of helper threads of :func:`_face_split` and
#: the queue they take jobs from, made on first use and dropped in a forked
#: child, which inherits the queue but none of the threads.  A plain queue,
#: not ``concurrent.futures``: importing that (and ``logging`` with it) added
#: about 0.6 MiB to the peak memory of a process that solves
_helpers: tuple[int, queue.SimpleQueue] | None = None
_helpers_lock = threading.Lock()


def _helper(jobs: queue.SimpleQueue) -> None:
    """Run the jobs put on ``jobs`` for good."""
    while True:
        _run(*jobs.get())


def _run(index: int, kernel, faces: list, done: queue.SimpleQueue) -> None:
    """Put ``(index, kernel(*faces), None)``, or ``(index, None, error)``,
    on ``done``.  A function of its own, so that an idle helper holds no
    reference to the faces of its last job."""
    try:
        done.put((index, kernel(*faces), None))
    except BaseException as exc:  # the caller raises it again
        done.put((index, None, exc))


def _helper_jobs(size: int) -> queue.SimpleQueue:
    """The job queue of at least ``size`` helper threads.  They are daemon
    threads, idle on the queue between jobs, so they end with the process."""
    global _helpers
    with _helpers_lock:
        started, jobs = _helpers or (0, queue.SimpleQueue())
        for _ in range(started, size):
            threading.Thread(target=_helper, args=(jobs,), name="textrap-faces", daemon=True).start()
        _helpers = (max(started, size), jobs)
        return jobs


def _drop_helpers() -> None:
    # the lock too: another thread may have held it at the fork
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helpers)


def _face_split(kernel, *stacks: np.ndarray) -> tuple[np.ndarray, ...]:
    """``kernel(*stacks)`` with the faces split over all usable CPUs.

    ``kernel`` maps ``(F, ...)`` face stacks to a tuple of ``(F, ...)``
    arrays and treats every face on its own, as numpy's batched ``matmul``,
    ``qr`` and ``svd`` do.  The faces are split into min(F, usable CPUs)
    contiguous ranges; the calling thread runs the first (a longest one), a
    persistent pool of helper threads the others, and the outputs are
    joined along the face axis.  Those numpy routines release the GIL, so
    the ranges run at once, and every face goes through the same calls as
    in one call on all faces, so the result has the same bits for any number
    of CPUs.  On one CPU the kernel runs once, on the calling thread.

    A face stack with a non-finite face is refused as in
    :func:`_face_linalg`, before any range starts.  An exception raised in a
    range reaches the caller unchanged, once every range has finished.
    ``kernel`` must not call ``_face_split`` itself: with every helper
    thread waiting on a range of its own, that range would never start.
    """
    _refuse_non_finite(kernel.__name__, *stacks)
    count = len(stacks[0])
    parts = min(count, _usable_cpus())
    if parts == 1:
        return kernel(*stacks)
    # the first range is never the shorter: the helpers start later
    bounds = [-(-count * i // parts) for i in range(parts + 1)]
    ranges = [[stack[lo:hi] for stack in stacks] for lo, hi in zip(bounds, bounds[1:])]
    jobs, done = _helper_jobs(parts - 1), queue.SimpleQueue()
    for index, faces in enumerate(ranges[1:], 1):
        jobs.put((index, kernel, faces, done))
    try:
        outputs = [kernel(*ranges[0])]
    finally:
        finished = sorted((done.get() for _ in ranges[1:]), key=lambda job: job[0])
    for _, _, error in finished:
        if error is not None:
            raise error
    outputs += [out for _, out, _ in finished]
    return tuple(np.concatenate(joined) for joined in zip(*outputs))


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


def write_tns3(t: Tensor3, path) -> None:
    """Serialize a Tensor3 to the TNS3 binary format."""
    n1, n2, n3 = t.dims
    with open(path, "wb") as fh:
        fh.write(_HEADER3.pack(_TNS3_MAGIC, _FORMAT_VERSION, n1, n2, n3))
        fh.write(np.ravel(t.data, order="F").astype("<f8", copy=False).tobytes())


def _read_tns(path, magic: bytes, header: struct.Struct) -> tuple[list, np.ndarray]:
    """The header sizes after the version (``n1, n2, n3`` for TNS3,
    ``count, n1, n2, n3`` for TNS4) and the read-only binary64 payload of a
    TNS3 or TNS4 file, after every check both formats share."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != magic:
        raise BadMagicError(f"expected magic {magic!r}, got {raw[:4]!r}")
    if len(raw) < header.size:
        raise TruncatedPayloadError(
            f"file holds {len(raw)} bytes, shorter than the {header.size}-byte header"
        )
    _, version, *sizes = header.unpack_from(raw)
    if version != _FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported {magic.decode()} version {version}")
    *count, n1, n2, n3 = sizes
    if count and not 1 <= count[0] <= _MAX_ELEMENTS:
        raise DimensionOverflowError(f"slice count {count[0]} is outside the supported range")
    if min(n1, n2, n3) < 1 or n1 * n2 * n3 > _MAX_ELEMENTS:
        raise DimensionOverflowError(
            f"header dimensions ({n1}, {n2}, {n3}) are outside the supported range"
        )
    total = math.prod(sizes)
    if total > _MAX_ELEMENTS:
        raise DimensionOverflowError(
            f"total size {count[0]} x ({n1}, {n2}, {n3}) is outside the supported range"
        )
    expected = header.size + 8 * total
    if len(raw) < expected:
        raise TruncatedPayloadError(
            f"payload needs {expected} bytes total, file holds {len(raw)}"
        )
    if len(raw) > expected:
        raise TensorFileError(f"{len(raw) - expected} trailing bytes after payload")
    return sizes, np.frombuffer(raw, dtype="<f8", offset=header.size)


def read_tns3(path) -> Tensor3:
    """Read a Tensor3 from a TNS3 file.

    Raises
    ------
    BadMagicError, UnsupportedVersionError, DimensionOverflowError,
    TruncatedPayloadError
        Distinct errors for the distinct ways a file can be malformed.
    """
    dims, flat = _read_tns(path, _TNS3_MAGIC, _HEADER3)
    return Tensor3(flat.reshape(dims, order="F"))


def write_tns4(stack: Stack4, path) -> None:
    """Serialize a non-empty Stack4 to the TNS4 binary format."""
    if stack.count == 0:
        raise DimensionMismatchError("cannot serialize an empty Stack4")
    n1, n2, n3 = stack.dims
    with open(path, "wb") as fh:
        fh.write(_HEADER4.pack(_TNS4_MAGIC, _FORMAT_VERSION, stack.count, n1, n2, n3))
        # each member in storage order (i1 fastest), members in stack order
        fh.write(stack._data.transpose(0, 3, 2, 1).astype("<f8", copy=False).tobytes())


def read_tns4(path) -> Stack4:
    """Read a Stack4 from a TNS4 file.  Error taxonomy matches read_tns3."""
    (count, n1, n2, n3), flat = _read_tns(path, _TNS4_MAGIC, _HEADER4)
    return _wrap(Stack4, flat.astype(np.float64).reshape(count, n3, n2, n1).transpose(0, 3, 2, 1))
