"""Reference bit packing shared by Kyber and Dilithium.

Both schemes serialise polynomials the same way: fixed-width integers
concatenated least-significant bit first (Kyber's ByteEncode,
Dilithium's bit-packing of t1, t0, s1/s2, z and w1). This module holds
the one spec-shaped reference copy: ``pack_bits``/``unpack_bits`` per
polynomial, and the whole-vector ``pack_vec``/``unpack_vec`` that run
them row by row. ``repro.pqc.kyber.poly`` and ``repro.pqc.dilithium.poly``
both bind the vector pair against its fast twin, one numpy pass in
``repro.crypto.kernels.lattice``.
"""

from __future__ import annotations

import numpy as np

N = 256


def pack_bits(values: list[int], bits: int) -> bytes:
    """Pack *bits*-wide integers little-endian-bitwise."""
    acc = 0
    acc_bits = 0
    out = bytearray()
    mask = (1 << bits) - 1
    for v in values:
        acc |= (v & mask) << acc_bits
        acc_bits += bits
        while acc_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            acc_bits -= 8
    if acc_bits:
        out.append(acc & 0xFF)
    return bytes(out)


def unpack_bits(data: bytes, bits: int, count: int = N) -> list[int]:
    """Inverse of :func:`pack_bits`: the first *count* fields of *data*."""
    acc = 0
    acc_bits = 0
    out = []
    it = iter(data)
    mask = (1 << bits) - 1
    for _ in range(count):
        while acc_bits < bits:
            acc |= next(it) << acc_bits
            acc_bits += 8
        out.append(acc & mask)
        acc >>= bits
        acc_bits -= bits
    return out


def pack_vec(rows, bits: int) -> bytes:
    """Every row of a (rows, 256) vector packed with :func:`pack_bits`, joined."""
    return b"".join(pack_bits(row, bits) for row in np.asarray(rows).tolist())


def unpack_vec(data: bytes, bits: int, nrows: int) -> np.ndarray:
    """Inverse of :func:`pack_vec`: (nrows, 256) from the head of *data*."""
    if 8 * len(data) < bits * N * nrows:
        raise ValueError("unpack_vec: not enough data")
    row_bytes = N * bits // 8
    return np.array([unpack_bits(data[i * row_bytes: (i + 1) * row_bytes], bits)
                     for i in range(nrows)], dtype=np.int64).reshape(nrows, N)
