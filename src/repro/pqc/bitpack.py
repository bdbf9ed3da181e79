"""Reference bit packing shared by Kyber and Dilithium.

Both schemes serialise polynomials the same way: fixed-width integers
concatenated least-significant bit first (Kyber's ByteEncode,
Dilithium's bit-packing of t1, t0, s1/s2, z and w1). This module holds
the one spec-shaped reference copy. ``repro.pqc.kyber.poly`` binds it
against the lane packer in ``repro.crypto.kernels.kyber``;
``repro.pqc.dilithium.poly`` runs it row by row inside its reference
whole-vector ``pack_vec``/``unpack_vec``, whose fast twin is one numpy
pass in ``repro.crypto.kernels.dilithium``.
"""

from __future__ import annotations

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
