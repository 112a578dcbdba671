"""Binary containers for tensor trains and matrix product states/operators.

TTR1 (real tensor train)
    magic ``TTR1`` | u32 n | n x u32 mode dims | (n-1) x u32 ranks |
    cores k = 1..n, each r_{k-1} * m_k * r_k little-endian float64 with the
    first index fastest.

TTC1 (complex chain)
    magic ``TTC1`` | u8 core order (3 = MPS, 4 = MPO) | u32 n |
    n x u32 local dims | (n-1) x u32 ranks | cores with interleaved
    (re, im) little-endian float64 pairs, first index fastest; MPO cores
    are (r_{k-1}, d, d, r_k).
"""

from __future__ import annotations

import math
import os
import stat

import numpy as np

from .mpo import Mpo, Mps
from .tt import TtTensor

_U32 = np.dtype("<u4")
_F64 = np.dtype("<f8")


class SerializationError(ValueError):
    pass


def _read_exact(fh, count):
    """``count`` bytes of ``fh``, else ``SerializationError("truncated file")``.

    ``count`` is an exact Python int.  In a regular file it is compared with
    the bytes left before the read, so a corrupt header that declares more
    than the file holds fails as a truncated file instead of sizing a huge
    read.
    """
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode) and count > st.st_size - fh.tell():
        raise SerializationError("truncated file")
    buf = fh.read(count)
    if len(buf) != count:
        raise SerializationError("truncated file")
    return buf


def _read_u32(fh, count):
    """``count`` header integers, as Python ints so that sizes made of them are exact."""
    return np.frombuffer(_read_exact(fh, 4 * count), dtype=_U32).tolist()


def _require_positive(dims, ranks):
    if min(*dims, *ranks) < 1:
        raise SerializationError("zero mode dimension or rank")


def write_ttr1(path, t: TtTensor):
    with open(path, "wb") as fh:
        fh.write(b"TTR1")
        header = np.array([t.n, *t.mode_dims, *t.ranks], dtype=_U32)
        fh.write(header.tobytes())
        for c in t.cores:
            fh.write(np.ascontiguousarray(c.ravel(order="F"), dtype=_F64).tobytes())


def read_ttr1(path) -> TtTensor:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != b"TTR1":
            raise SerializationError("not a TTR1 file")
        (n,) = _read_u32(fh, 1)
        if n < 2:
            raise SerializationError("invalid mode count")
        dims = _read_u32(fh, n)
        ranks = _read_u32(fh, n - 1)
        _require_positive(dims, ranks)
        bonds = [1, *ranks, 1]
        cores = []
        for k in range(n):
            shape = (bonds[k], dims[k], bonds[k + 1])
            flat = np.frombuffer(_read_exact(fh, 8 * math.prod(shape)), dtype=_F64)
            cores.append(flat.reshape(shape, order="F"))
        if fh.read(1):
            raise SerializationError("trailing bytes")
    return TtTensor(cores)


def _write_complex(fh, arr):
    flat = np.ascontiguousarray(arr.ravel(order="F"), dtype=np.complex128)
    inter = np.empty(2 * flat.size, dtype=_F64)
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    fh.write(inter.tobytes())


def _read_complex(fh, count):
    inter = np.frombuffer(_read_exact(fh, 16 * count), dtype=_F64)
    return inter[0::2] + 1j * inter[1::2]


def write_ttc1(path, obj):
    if isinstance(obj, Mps):
        order = 3
    elif isinstance(obj, Mpo):
        order = 4
    else:
        raise SerializationError(f"cannot serialize {type(obj).__name__}")
    with open(path, "wb") as fh:
        fh.write(b"TTC1")
        fh.write(bytes([order]))
        header = np.array([obj.n, *([obj.d] * obj.n), *obj.ranks], dtype=_U32)
        fh.write(header.tobytes())
        for c in obj.cores:
            _write_complex(fh, c)


def read_ttc1(path):
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != b"TTC1":
            raise SerializationError("not a TTC1 file")
        order = _read_exact(fh, 1)[0]
        if order not in (3, 4):
            raise SerializationError(f"unknown core order tag {order}")
        (n,) = _read_u32(fh, 1)
        if n < 2:
            raise SerializationError("invalid site count")
        dims = _read_u32(fh, n)
        d = dims[0]
        if any(x != d for x in dims):
            raise SerializationError("local dimensions must match")
        ranks = _read_u32(fh, n - 1)
        _require_positive(dims, ranks)
        bonds = [1, *ranks, 1]
        cores = []
        for k in range(n):
            if order == 3:
                shape = (bonds[k], d, bonds[k + 1])
            else:
                shape = (bonds[k], d, d, bonds[k + 1])
            cnt = math.prod(shape)
            cores.append(_read_complex(fh, cnt).reshape(shape, order="F"))
        if fh.read(1):
            raise SerializationError("trailing bytes")
    return Mps(cores) if order == 3 else Mpo(cores)
