"""Polynomial arithmetic for Kyber: R_q = Z_3329[X]/(X^256 + 1).

Implements the incomplete NTT of the Kyber spec (128 quadratic base
fields), centered binomial sampling, rejection sampling of uniform
matrices, and the d-bit compression/serialisation functions.

Everything here is the spec-shaped reference; ``PQTLS_KERNELS=fast``
(the default) swaps the add/sub, sampling, compression and packing entry
points for the lane-packed bigint twins in ``repro.crypto.kernels.kyber``
at import. ``ntt``/``intt``/``basemul`` have no twin. Call through the
module (``poly.cbd(...)``) so rebinding takes effect.
"""

from __future__ import annotations

import sys

# ByteEncode/ByteDecode; the one reference copy, shared with Dilithium
from repro.pqc.bitpack import pack_bits, unpack_bits  # noqa: F401

Q = 3329
N = 256
_QINV_128 = 3303  # 128^{-1} mod q


def _bitrev7(value: int) -> int:
    result = 0
    for _ in range(7):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


ZETAS = [pow(17, _bitrev7(i), Q) for i in range(128)]
GAMMAS = [pow(17, 2 * _bitrev7(i) + 1, Q) for i in range(128)]


def ntt(coeffs: list[int]) -> list[int]:
    """Forward NTT (the spec's 7-layer incomplete transform)."""
    f = list(coeffs)
    k = 1
    length = 128
    while length >= 2:
        for start in range(0, N, 2 * length):
            zeta = ZETAS[k]
            k += 1
            for j in range(start, start + length):
                t = zeta * f[j + length] % Q
                f[j + length] = (f[j] - t) % Q
                f[j] = (f[j] + t) % Q
        length //= 2
    return f


def intt(coeffs: list[int]) -> list[int]:
    """Inverse NTT."""
    f = list(coeffs)
    k = 127
    length = 2
    while length <= 128:
        for start in range(0, N, 2 * length):
            zeta = ZETAS[k]
            k -= 1
            for j in range(start, start + length):
                t = f[j]
                f[j] = (t + f[j + length]) % Q
                f[j + length] = zeta * (f[j + length] - t) % Q
        length *= 2
    return [x * _QINV_128 % Q for x in f]


def basemul(a: list[int], b: list[int]) -> list[int]:
    """Pointwise product in the NTT domain (pairs modulo X^2 - gamma_i)."""
    c = [0] * N
    for i in range(128):
        a0, a1 = a[2 * i], a[2 * i + 1]
        b0, b1 = b[2 * i], b[2 * i + 1]
        c[2 * i] = (a0 * b0 + a1 * b1 % Q * GAMMAS[i]) % Q
        c[2 * i + 1] = (a0 * b1 + a1 * b0) % Q
    return c


def poly_add(a: list[int], b: list[int]) -> list[int]:
    return [(x + y) % Q for x, y in zip(a, b)]


def poly_sub(a: list[int], b: list[int]) -> list[int]:
    return [(x - y) % Q for x, y in zip(a, b)]


# -- sampling -------------------------------------------------------------

def parse_uniform(stream: "XofStream") -> list[int]:
    """Rejection-sample a uniform NTT-domain polynomial from an XOF."""
    coeffs: list[int] = []
    while len(coeffs) < N:
        chunk = stream.read(3)
        d1 = chunk[0] | ((chunk[1] & 0x0F) << 8)
        d2 = (chunk[1] >> 4) | (chunk[2] << 4)
        if d1 < Q:
            coeffs.append(d1)
        if d2 < Q and len(coeffs) < N:
            coeffs.append(d2)
    return coeffs


def cbd(data: bytes, eta: int) -> list[int]:
    """Centered binomial distribution with parameter eta from 64*eta bytes."""
    if len(data) != 64 * eta:
        raise ValueError("CBD input must be 64*eta bytes")
    bits = []
    for byte in data:
        for i in range(8):
            bits.append((byte >> i) & 1)
    coeffs = []
    for i in range(N):
        a = sum(bits[2 * i * eta + j] for j in range(eta))
        b = sum(bits[2 * i * eta + eta + j] for j in range(eta))
        coeffs.append((a - b) % Q)
    return coeffs


class XofStream:
    """Incremental byte stream over a callable block source."""

    def __init__(self, block_fn, block_len: int = 168):
        self._block_fn = block_fn
        self._block_len = block_len
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        while len(self._buffer) < n:
            self._buffer += self._block_fn(self._counter)
            self._counter += 1
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out


# -- compression / serialisation ------------------------------------------

def compress(coeffs: list[int], d: int) -> list[int]:
    mod = 1 << d
    return [((x << d) + Q // 2) // Q % mod for x in coeffs]


def decompress(values: list[int], d: int) -> list[int]:
    return [(v * Q + (1 << (d - 1))) >> d for v in values]


from repro.crypto import kernels as _kernels  # noqa: E402
from repro.crypto.kernels import kyber as _fast  # noqa: E402

_SELF = sys.modules[__name__]
for _name in ("poly_add", "poly_sub", "parse_uniform", "cbd", "compress",
              "decompress", "pack_bits", "unpack_bits"):
    _kernels.bind(_SELF, _name,
                  ref=getattr(_SELF, _name), fast=getattr(_fast, _name))
