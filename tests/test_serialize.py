"""Round-trip and corruption tests for the TTR1/TTC1 containers."""

import os
import threading

import numpy as np
import pytest

from ttqst import mpo, serialize, states, tt


def test_ttr1_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    t = tt.random_tt((4, 4, 4, 4), (2, 3, 2), rng)
    path = tmp_path / "t.ttr"
    serialize.write_ttr1(path, t)
    back = serialize.read_ttr1(path)
    assert back.mode_dims == t.mode_dims
    assert back.ranks == t.ranks
    for a, b in zip(back.cores, t.cores):
        np.testing.assert_array_equal(a, b)


def test_ttr1_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(1)
    t = tt.random_tt((4, 4), (2,), rng)
    p1, p2 = tmp_path / "a.ttr", tmp_path / "b.ttr"
    serialize.write_ttr1(p1, t)
    serialize.write_ttr1(p2, t)
    assert p1.read_bytes() == p2.read_bytes()


def test_ttr1_reads_from_a_pipe(tmp_path):
    # A pipe has no size to check the header against; it is read as it comes.
    t = tt.random_tt((4, 4, 4), (2, 2), np.random.default_rng(4))
    path = tmp_path / "t.ttr"
    serialize.write_ttr1(path, t)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    back = serialize.read_ttr1(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert [c.tobytes() for c in back.cores] == [c.tobytes() for c in t.cores]


def test_ttr1_bad_magic(tmp_path):
    path = tmp_path / "bad.ttr"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(serialize.SerializationError):
        serialize.read_ttr1(path)


def test_ttr1_truncated(tmp_path):
    rng = np.random.default_rng(2)
    t = tt.random_tt((4, 4, 4), (2, 2), rng)
    path = tmp_path / "t.ttr"
    serialize.write_ttr1(path, t)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(serialize.SerializationError):
        serialize.read_ttr1(path)


def test_ttc1_mps_round_trip(tmp_path):
    psi = states.random_mps(4, 2, 3, seed=5)
    path = tmp_path / "psi.ttc"
    serialize.write_ttc1(path, psi)
    back = serialize.read_ttc1(path)
    assert isinstance(back, mpo.Mps)
    for a, b in zip(back.cores, psi.cores):
        np.testing.assert_array_equal(a, b)


def test_ttc1_mpo_round_trip(tmp_path):
    psi = states.random_mps(3, 2, 2, seed=6)
    m = mpo.mps_to_mpo(psi)
    path = tmp_path / "rho.ttc"
    serialize.write_ttc1(path, m)
    back = serialize.read_ttc1(path)
    assert isinstance(back, mpo.Mpo)
    for a, b in zip(back.cores, m.cores):
        np.testing.assert_array_equal(a, b)


def test_ttc1_header_distinguishes_orders(tmp_path):
    psi = states.random_mps(3, 2, 2, seed=7)
    path = tmp_path / "x.ttc"
    serialize.write_ttc1(path, psi)
    raw = bytearray(path.read_bytes())
    assert raw[4] == 3
    serialize.write_ttc1(path, mpo.mps_to_mpo(psi))
    assert path.read_bytes()[4] == 4


def test_ttc1_rejects_unknown_tag(tmp_path):
    psi = states.random_mps(3, 2, 2, seed=8)
    path = tmp_path / "x.ttc"
    serialize.write_ttc1(path, psi)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(serialize.SerializationError):
        serialize.read_ttc1(path)



# Header byte ranges: TTR1 is magic | u32 n | dims | ranks; TTC1 adds an
# order byte after the magic and stores one local dimension per site.
@pytest.mark.parametrize("zeroed", [slice(8, 12), slice(20, 24)], ids=["dim", "rank"])
def test_ttr1_rejects_zero_dim_or_rank(tmp_path, zeroed):
    path = tmp_path / "t.ttr"
    serialize.write_ttr1(path, tt.random_tt((4, 4, 4), (2, 2), np.random.default_rng(3)))
    raw = bytearray(path.read_bytes())
    raw[zeroed] = bytes(4)
    path.write_bytes(bytes(raw))
    with pytest.raises(serialize.SerializationError, match="zero"):
        serialize.read_ttr1(path)


@pytest.mark.parametrize("zeroed", [slice(9, 21), slice(21, 25)], ids=["dim", "rank"])
def test_ttc1_rejects_zero_dim_or_rank(tmp_path, zeroed):
    path = tmp_path / "x.ttc"
    serialize.write_ttc1(path, states.random_mps(3, 2, 2, seed=9))
    raw = bytearray(path.read_bytes())
    raw[zeroed] = bytes(zeroed.stop - zeroed.start)
    path.write_bytes(bytes(raw))
    with pytest.raises(serialize.SerializationError, match="zero"):
        serialize.read_ttc1(path)


def _header_ttr1(dims, ranks):
    return b"TTR1" + np.array([len(dims), *dims, *ranks], dtype="<u4").tobytes()


def _header_ttc1(order, dims, ranks):
    return b"TTC1" + bytes([order]) + np.array([len(dims), *dims, *ranks], dtype="<u4").tobytes()


U32_MAX = 2**32 - 1

# Headers whose first core's entry count wraps in int64, or whose first core
# declares more than sys.maxsize bytes; each file holds a few data bytes.
OVERSIZED_HEADERS = {
    "ttr1-count-wraps": _header_ttr1((U32_MAX, 4), (U32_MAX,)),
    "ttr1-bytes-past-maxsize": _header_ttr1((2**31, 4, 4), (2**31, 1)),
    "ttc1-count-wraps": _header_ttc1(3, (U32_MAX,) * 3, (U32_MAX, U32_MAX)),
    "ttc1-bytes-past-maxsize": _header_ttc1(4, (2**15,) * 2, (2**31,)),
}


@pytest.mark.parametrize("case", list(OVERSIZED_HEADERS))
def test_oversized_header_reads_as_truncated(tmp_path, case):
    # A core's byte count is an exact int, checked against the bytes left
    # before any read: no wrapped or negative read length, no huge buffer.
    path = tmp_path / "x.bin"
    path.write_bytes(OVERSIZED_HEADERS[case] + bytes(64))
    read = serialize.read_ttr1 if case.startswith("ttr1") else serialize.read_ttc1
    with pytest.raises(serialize.SerializationError, match="truncated file"):
        read(path)


def _mps_file(tmp_path):
    path = tmp_path / "x.ttc"
    serialize.write_ttc1(path, states.random_mps(3, 2, 2, seed=10))
    return path.read_bytes()


def _one_core(order):
    # n = 1, d = 2 and no ranks, then the 2 or 4 entries of a (1, 2, 1) or
    # (1, 2, 2, 1) core.
    if order is None:
        return _header_ttr1((2,), ()) + bytes(16)
    return _header_ttc1(order, (2,), ()) + bytes(16 * 2 ** (order - 2))


# Files each reader rejects, and the message it names: a foreign magic, a
# one-core chain, local dimensions that differ from site to site and data
# after the last core.  TTR1's foreign magic and trailing bytes are tested
# above and in test_cli.
CORRUPT_FILES = {
    "ttc1-magic": (serialize.read_ttc1, lambda p: b"TTR1" + _mps_file(p)[4:], "not a TTC1 file"),
    "ttr1-one-core": (serialize.read_ttr1, lambda p: _one_core(None), "invalid core count 1"),
    "ttc1-one-mps-core": (serialize.read_ttc1, lambda p: _one_core(3), "invalid core count 1"),
    "ttc1-one-mpo-core": (serialize.read_ttc1, lambda p: _one_core(4), "invalid core count 1"),
    "ttc1-dims-differ": (
        serialize.read_ttc1,
        lambda p: _header_ttc1(3, (2, 3), (1,)) + bytes(16 * (2 + 3)),
        "local dimensions must match",
    ),
    "ttc1-trailing": (serialize.read_ttc1, lambda p: _mps_file(p) + bytes(16), "trailing bytes"),
}


@pytest.mark.parametrize("case", list(CORRUPT_FILES))
def test_corrupt_file_rejected(tmp_path, case):
    read, build, message = CORRUPT_FILES[case]
    path = tmp_path / "bad.bin"
    path.write_bytes(build(tmp_path))
    with pytest.raises(serialize.SerializationError, match=f"^{message}$"):
        read(path)


def test_ttc1_writes_only_mps_and_mpo(tmp_path):
    t = tt.random_tt((4, 4), (2,), np.random.default_rng(6))
    with pytest.raises(serialize.SerializationError, match="^cannot serialize TtTensor$"):
        serialize.write_ttc1(tmp_path / "t.ttc", t)
    assert not (tmp_path / "t.ttc").exists()


@pytest.mark.parametrize("order", [3, 4])
def test_ttc1_stores_complex128_little_endian(tmp_path, order):
    # The TTC1 values are the interleaved (re, im) float64 pairs of numpy's
    # "<c16", first index fastest.
    psi = states.random_mps(3, 3, 2, seed=12)
    chain = psi if order == 3 else mpo.mps_to_mpo(psi)
    path = tmp_path / "x.ttc"
    serialize.write_ttc1(path, chain)
    flat = np.concatenate([c.ravel(order="F") for c in chain.cores])
    pairs = np.empty(2 * flat.size, dtype="<f8")
    pairs[0::2], pairs[1::2] = flat.real, flat.imag
    assert path.read_bytes()[9 + 4 * (2 * chain.n - 1):] == pairs.tobytes()


def test_ttc1_reads_back_every_bit(tmp_path):
    # The values read back are the stored pairs: a real part of -0.0 keeps
    # its sign, and an infinite imaginary part leaves its real part alone
    # (re + 1j * im read them as +0.0 and NaN).
    core = np.zeros((1, 2, 1), dtype=np.complex128)
    core[0, 0, 0] = complex(-0.0, 1.0)
    core[0, 1, 0] = complex(2.0, np.inf)
    psi = mpo.Mps([core, np.ones((1, 2, 1))])
    path = tmp_path / "x.ttc"
    serialize.write_ttc1(path, psi)
    back = serialize.read_ttc1(path)
    assert [c.tobytes() for c in back.cores] == [c.tobytes() for c in psi.cores]
