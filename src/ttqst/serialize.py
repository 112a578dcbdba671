"""Binary containers for tensor trains and matrix product states/operators.

TTR1 (real tensor train)
    magic ``TTR1`` | u32 n | n x u32 mode dims | (n-1) x u32 ranks |
    cores k = 1..n, each r_{k-1} * m_k * r_k little-endian float64 with the
    first index fastest.

TTC1 (complex chain)
    magic ``TTC1`` | u8 core order (3 = MPS, 4 = MPO) | u32 n |
    n x u32 local dims | (n-1) x u32 ranks | cores with interleaved
    (re, im) little-endian float64 pairs, first index fastest; MPO cores
    are (r_{k-1}, d, d, r_k).  The pairs are numpy's little-endian
    ``complex128`` (``<c16``), read and written as such.

Both formats share one header reader (``_read_shapes``: n >= 2, no zero
dimension or rank), one core reader (``_read_cores``, which also rejects
trailing bytes) and one writer.  Every failure to read raises
``SerializationError``; a header that declares more bytes than the file
holds reads as a truncated file.
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
# Little-endian complex128 is the (re, im) float64 pairs of the TTC1 layout.
_C128 = np.dtype("<c16")


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


def _read_shapes(fh, order):
    """Core shapes of a chain header: u32 n >= 2, n dims, n - 1 ranks.

    A core of order 4 has its dimension on both physical axes.  A zero
    dimension or rank raises ``SerializationError``.
    """
    (n,) = _read_u32(fh, 1)
    if n < 2:
        raise SerializationError(f"invalid core count {n}")
    dims = _read_u32(fh, n)
    ranks = _read_u32(fh, n - 1)
    if min(*dims, *ranks) < 1:
        raise SerializationError("zero mode dimension or rank")
    bonds = [1, *ranks, 1]
    return [(bonds[k],) + (dims[k],) * (order - 2) + (bonds[k + 1],) for k in range(n)]


def _read_cores(fh, shapes, dtype):
    """The cores of ``shapes``, first index fastest, then the end of the file."""
    cores = [np.frombuffer(_read_exact(fh, dtype.itemsize * math.prod(shape)), dtype=dtype)
             .reshape(shape, order="F") for shape in shapes]
    if fh.read(1):
        raise SerializationError("trailing bytes")
    return cores


def _write(path, head, dims, ranks, cores, dtype):
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(np.array([len(cores), *dims, *ranks], dtype=_U32).tobytes())
        for c in cores:
            fh.write(np.asarray(c, dtype=dtype).tobytes(order="F"))


def write_ttr1(path, t: TtTensor):
    _write(path, b"TTR1", t.mode_dims, t.ranks, t.cores, _F64)


def read_ttr1(path) -> TtTensor:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != b"TTR1":
            raise SerializationError("not a TTR1 file")
        cores = _read_cores(fh, _read_shapes(fh, 3), _F64)
    return TtTensor(cores)


def write_ttc1(path, obj):
    if not isinstance(obj, (Mps, Mpo)):
        raise SerializationError(f"cannot serialize {type(obj).__name__}")
    _write(path, b"TTC1" + bytes([obj.ORDER]), [obj.d] * obj.n, obj.ranks, obj.cores, _C128)


def read_ttc1(path):
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != b"TTC1":
            raise SerializationError("not a TTC1 file")
        order = _read_exact(fh, 1)[0]
        if order not in (3, 4):
            raise SerializationError(f"unknown core order tag {order}")
        shapes = _read_shapes(fh, order)
        if any(shape[1] != shapes[0][1] for shape in shapes):
            raise SerializationError("local dimensions must match")
        cores = _read_cores(fh, shapes, _C128)
    return Mps(cores) if order == 3 else Mpo(cores)
