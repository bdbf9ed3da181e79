"""Polynomial arithmetic for Kyber: R_q = Z_3329[X]/(X^256 + 1).

Implements the incomplete NTT of the Kyber spec (128 quadratic base
fields), centered binomial sampling, rejection sampling of uniform
matrices, and the d-bit compression/serialisation functions.

The KEM keeps every polynomial vector as a (rows, 256) int64 numpy
array, so the switchable entry points are the ``*_vec`` family (NTT,
inverse NTT, the base-multiplication matrix–vector product, add/sub,
CBD, compress/decompress), the matrix sampler ``parse_uniform_rows``
and the whole-vector packers ``pack_vec``/``unpack_vec`` (whose
reference lives in ``repro.pqc.bitpack``, shared with Dilithium).
``PQTLS_KERNELS=fast`` (the default) swaps them for the batched numpy
twins in ``repro.crypto.kernels.kyber`` and ``.lattice``. The reference
twins take and return the same arrays but convert to lists once at
their boundary and run the scalar spec loops (``ntt``, ``intt``,
``basemul``, ``poly_add``, ``poly_sub``, ``parse_uniform``, ``cbd``,
``compress``, ``decompress``, ``pack_bits``, ``unpack_bits``), which
are never rebound, so they stay the oracle. Call through the module
(``poly.cbd_vec(...)``) so rebinding takes effect.
"""

from __future__ import annotations

import sys

import numpy as np

# ByteEncode/ByteDecode; the one reference copy, shared with Dilithium
from repro.pqc import bitpack
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

def parse_uniform(data: bytes) -> list[int]:
    """The spec's Parse: up to 256 uniform NTT-domain coefficients.

    Each 3-byte chunk of XOF output yields two 12-bit candidates; those
    below q are kept, in order, until 256 are found or *data* runs out.
    """
    coeffs: list[int] = []
    offset = 0
    while len(coeffs) < N and offset + 3 <= len(data):
        chunk = data[offset: offset + 3]
        offset += 3
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


# -- compression / serialisation ------------------------------------------

def compress(coeffs: list[int], d: int) -> list[int]:
    mod = 1 << d
    return [((x << d) + Q // 2) // Q % mod for x in coeffs]


def decompress(values: list[int], d: int) -> list[int]:
    return [(v * Q + (1 << (d - 1))) >> d for v in values]


# -- polynomial-vector entry points ----------------------------------------
#
# The unit of work in the KEM is a whole vector of polynomials (length k,
# or 1 for v), held as a (rows, 256) int64 array. These reference twins
# convert once at their boundary and run the scalar loops above;
# PQTLS_KERNELS=fast swaps them for the batched numpy kernels.

def _lists(rows) -> list:
    """A vector (or matrix) of polynomials as nested int lists."""
    return np.asarray(rows, dtype=np.int64).tolist()


def _array(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def ntt_vec(rows: np.ndarray) -> np.ndarray:
    return _array([ntt(row) for row in _lists(rows)])


def intt_vec(rows: np.ndarray) -> np.ndarray:
    return _array([intt(row) for row in _lists(rows)])


def matvec_basemul(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """rows[i] = sum_j basemul(mat[i][j], vec[j]) (mod q), NTT domain."""
    vec = _lists(vec)
    out = []
    for row in _lists(mat):
        acc = [0] * N
        for entry, v in zip(row, vec):
            acc = poly_add(acc, basemul(entry, v))
        out.append(acc)
    return _array(out)


def add_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _array([poly_add(x, y) for x, y in zip(_lists(a), _lists(b))])


def sub_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _array([poly_sub(x, y) for x, y in zip(_lists(a), _lists(b))])


def cbd_vec(data: bytes, eta: int) -> np.ndarray:
    """One CBD polynomial per 64*eta bytes of *data*."""
    step = 64 * eta
    return _array([cbd(data[i: i + step], eta) for i in range(0, len(data), step)])


def compress_vec(rows: np.ndarray, d: int) -> np.ndarray:
    return _array([compress(row, d) for row in _lists(rows)])


def decompress_vec(rows: np.ndarray, d: int) -> np.ndarray:
    return _array([decompress(row, d) for row in _lists(rows)])


def parse_uniform_rows(data: bytes, nrows: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`parse_uniform` over each of *nrows* equal-length streams.

    Returns ``(coeffs, full)``: ``full[r]`` says row r reached 256
    coefficients; a row that fell short is all zeros (the caller
    squeezes its stream longer).
    """
    step = len(data) // nrows
    rows, full = [], []
    for r in range(nrows):
        got = parse_uniform(data[r * step: (r + 1) * step])
        full.append(len(got) == N)
        rows.append(got if len(got) == N else [0] * N)
    return _array(rows).reshape(nrows, N), np.array(full, dtype=bool)


from repro.crypto import kernels as _kernels  # noqa: E402
from repro.crypto.kernels import kyber as _fast, lattice as _lattice  # noqa: E402

_SELF = sys.modules[__name__]
for _name in ("ntt_vec", "intt_vec", "matvec_basemul", "add_vec", "sub_vec",
              "cbd_vec", "compress_vec", "decompress_vec", "parse_uniform_rows"):
    _kernels.bind(_SELF, _name,
                  ref=getattr(_SELF, _name), fast=getattr(_fast, _name))
for _name in ("pack_vec", "unpack_vec"):
    _kernels.bind(_SELF, _name,
                  ref=getattr(bitpack, _name), fast=getattr(_lattice, _name))
