import numpy as np
import pytest

from oracles import brute_bcirc, brute_fold, brute_matvec
from textrap import (
    BadMagicError,
    DimensionMismatchError,
    DimensionOverflowError,
    OracleCapError,
    Stack4,
    Stack5,
    Tensor3,
    TensorFileError,
    TruncatedPayloadError,
    TubalScalar,
    UnsupportedVersionError,
    bcirc,
    fold,
    frobenius_norm,
    identity_tensor,
    identity_tube,
    matvec_unfold,
    read_tns3,
    read_tns4,
    write_tns3,
    write_tns4,
)

RNG = np.random.default_rng(20240801)


def rand(n1, n2, n3):
    return Tensor3(RNG.standard_normal((n1, n2, n3)))


# ---------------------------------------------------------------------------
# containers


def test_tensor3_basic_properties():
    t = rand(3, 4, 5)
    assert t.dims == (3, 4, 5)
    assert (t.n1, t.n2, t.n3) == (3, 4, 5)
    assert t.data.dtype == np.float64


def test_tensor3_copies_and_freezes_input():
    src = np.ones((2, 2, 2))
    t = Tensor3(src)
    src[0, 0, 0] = 99.0
    assert t.data[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 5.0


def test_tensor3_rejects_wrong_rank_and_empty():
    with pytest.raises(DimensionMismatchError):
        Tensor3(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        Tensor3(np.zeros((2, 0, 3)))


def test_tensor3_slices_and_tubes():
    t = rand(3, 4, 5)
    np.testing.assert_array_equal(t.frontal_slice(2), t.data[:, :, 2])
    lat = t.lateral_slice(1)
    assert lat.dims == (3, 1, 5)
    np.testing.assert_array_equal(lat.data[:, 0, :], t.data[:, 1, :])
    tube = t.tube(2, 3)
    assert isinstance(tube, TubalScalar)
    np.testing.assert_array_equal(tube.values, t.data[2, 3, :])


def test_tensor3_from_frontal_slices_round_trip():
    t = rand(2, 3, 4)
    rebuilt = Tensor3.from_frontal_slices([t.frontal_slice(i) for i in range(4)])
    np.testing.assert_array_equal(rebuilt.data, t.data)


def test_tensor3_arithmetic():
    a, b = rand(2, 3, 4), rand(2, 3, 4)
    np.testing.assert_allclose((a + b).data, a.data + b.data)
    np.testing.assert_allclose((a - b).data, a.data - b.data)
    np.testing.assert_allclose((-a).data, -a.data)
    np.testing.assert_allclose((2.5 * a).data, 2.5 * a.data)
    np.testing.assert_allclose((a * 2.5).data, 2.5 * a.data)
    with pytest.raises(DimensionMismatchError):
        a + rand(2, 3, 5)


def test_tubal_scalar_accepts_vector_or_tube():
    v = RNG.standard_normal(6)
    s1 = TubalScalar(v)
    s2 = TubalScalar(v.reshape(1, 1, 6))
    assert s1.dims == s2.dims == (1, 1, 6)
    np.testing.assert_array_equal(s1.values, v)


def test_identity_and_zeros():
    e = identity_tensor(3, 4)
    assert e.dims == (3, 3, 4)
    np.testing.assert_array_equal(e.frontal_slice(0), np.eye(3))
    assert np.all(e.data[:, :, 1:] == 0.0)
    assert frobenius_norm(Tensor3.zeros(2, 3, 4)) == 0.0
    tube = identity_tube(5)
    assert tube.values[0] == 1.0 and np.all(tube.values[1:] == 0.0)


def test_frobenius_norm_matches_numpy():
    t = rand(4, 5, 6)
    assert frobenius_norm(t) == pytest.approx(np.linalg.norm(t.data))


def test_stack4_invariants():
    s = Stack4([rand(2, 3, 4) for _ in range(3)])
    assert s.count == len(s) == 3
    assert s.dims == (2, 3, 4)
    assert isinstance(s[0:2], Stack4) and s[0:2].count == 2
    assert Stack4([]).dims is None
    with pytest.raises(DimensionMismatchError):
        Stack4([rand(2, 3, 4), rand(2, 3, 5)])
    summed = s + s
    np.testing.assert_allclose(summed[1].data, 2.0 * s[1].data)


def test_stack5_grid():
    g = Stack5([[rand(2, 2, 3) for _ in range(2)] for _ in range(4)])
    assert g.grid_shape == (4, 2)
    assert g.block_dims == (2, 2, 3)
    assert g.block(3, 1).dims == (2, 2, 3)
    np.testing.assert_array_equal(g[3, 1].data, g.block(3, 1).data)
    with pytest.raises(DimensionMismatchError):
        Stack5([[rand(2, 2, 3)], [rand(2, 2, 3), rand(2, 2, 3)]])
    diff = g - g
    assert frobenius_norm(diff.block(0, 0)) == 0.0


# ---------------------------------------------------------------------------
# unfoldings and the circulant embedding


@pytest.mark.parametrize("dims", [(1, 1, 1), (3, 4, 1), (2, 5, 3), (4, 4, 6), (5, 2, 7)])
def test_bcirc_matches_brute_force(dims):
    t = rand(*dims)
    np.testing.assert_allclose(bcirc(t), brute_bcirc(t.data), atol=0.0)


def test_matvec_fold_round_trip():
    t = rand(3, 4, 5)
    m = matvec_unfold(t)
    np.testing.assert_array_equal(m, brute_matvec(t.data))
    back = fold(m, t.dims)
    np.testing.assert_array_equal(back.data, t.data)


def test_fold_matches_brute():
    m = RNG.standard_normal((12, 2))
    np.testing.assert_array_equal(fold(m, (4, 2, 3)).data, brute_fold(m, (4, 2, 3)))


def test_bcirc_respects_cap():
    big = Tensor3(np.zeros((70, 1, 70)))  # 70*70 = 4900 > 4096
    with pytest.raises(OracleCapError):
        bcirc(big)
    assert bcirc(Tensor3(np.zeros((64, 1, 64)))).shape == (4096, 64)  # at the cap


# ---------------------------------------------------------------------------
# file format


def test_tns3_round_trip(tmp_path):
    t = rand(5, 3, 4)
    path = tmp_path / "t.tns3"
    write_tns3(t, path)
    back = read_tns3(path)
    np.testing.assert_array_equal(back.data, t.data)


def test_tns3_byte_order_is_column_major(tmp_path):
    # payload = header (magic, version, dims), then entries with the row
    # index fastest, then columns, then frontal slices
    t = Tensor3(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
    path = tmp_path / "t.tns3"
    write_tns3(t, path)
    payload = path.read_bytes()
    values = np.frombuffer(payload[-24 * 8 :], dtype="<f8")
    np.testing.assert_array_equal(values, t.data.ravel(order="F"))


def test_tns3_bad_magic(tmp_path):
    path = tmp_path / "bad.tns3"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(BadMagicError):
        read_tns3(path)


def test_tns3_short_header(tmp_path):
    t = rand(2, 2, 2)
    path = tmp_path / "t.tns3"
    write_tns3(t, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:10])
    with pytest.raises(TensorFileError):
        read_tns3(path)


def test_tns3_unsupported_version(tmp_path):
    t = rand(2, 2, 2)
    path = tmp_path / "t.tns3"
    write_tns3(t, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError):
        read_tns3(path)


def test_tns3_dimension_overflow(tmp_path):
    t = rand(2, 2, 2)
    path = tmp_path / "t.tns3"
    write_tns3(t, path)
    raw = bytearray(path.read_bytes())
    raw[8:16] = (2**50).to_bytes(8, "little")  # absurd n1
    path.write_bytes(bytes(raw))
    with pytest.raises(DimensionOverflowError):
        read_tns3(path)


def test_tns3_truncated_payload(tmp_path):
    t = rand(3, 3, 3)
    path = tmp_path / "t.tns3"
    write_tns3(t, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayloadError):
        read_tns3(path)


def test_tns3_trailing_bytes(tmp_path):
    t = rand(3, 3, 3)
    path = tmp_path / "t.tns3"
    write_tns3(t, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TensorFileError):
        read_tns3(path)


def test_tns4_round_trip(tmp_path):
    stack = Stack4([rand(3, 2, 4) for _ in range(5)])
    path = tmp_path / "s.tns4"
    write_tns4(stack, path)
    back = read_tns4(path)
    assert back.count == 5
    for a, b in zip(stack, back):
        np.testing.assert_array_equal(a.data, b.data)


def test_tns4_rejects_corrupt_count(tmp_path):
    stack = Stack4([rand(2, 2, 2) for _ in range(2)])
    path = tmp_path / "s.tns4"
    write_tns4(stack, path)
    raw = bytearray(path.read_bytes())
    raw[8:16] = (3).to_bytes(8, "little")  # claim one more slice than stored
    path.write_bytes(bytes(raw))
    with pytest.raises(TensorFileError):
        read_tns4(path)
