"""Fast Kyber polynomial-vector kernels (batched numpy).

``repro.pqc.kyber.kem`` keeps every polynomial vector as a (rows, 256)
int64 numpy array from sampling to packing, and the kernels here take
and return those arrays:

- ``ntt_vec``/``intt_vec`` are the shared layer-parallel butterflies of
  ``repro.crypto.kernels.lattice`` (7 layers, scaled by 1/128 on the
  inverse), over every row at once.
- ``matvec_basemul`` is the k×k (or 1×k) matrix–vector product in the
  NTT domain as one broadcast multiply-sum over the coefficient pairs
  (multiplication modulo X^2 - gamma_i).
- ``cbd_vec``, ``compress_vec``/``decompress_vec`` and
  ``add_vec``/``sub_vec`` are elementwise passes over the whole vector.
- ``parse_uniform_rows`` rejection-filters the XOF streams of every
  matrix entry in one pass (``lattice.first_accepted``).

The whole-vector bit packers are shared with Dilithium
(``lattice.pack_vec``/``unpack_vec``). All arithmetic is exact integer
math in int64, so outputs equal the scalar reference loops in
``repro.pqc.kyber.poly`` coefficient for coefficient.

Constants are re-derived here from the round-3 spec formulas — this
module must not import ``repro.pqc.kyber.poly``, which imports it to
register the ref/fast bindings.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.kernels.lattice import Ntt, first_accepted

Q = 3329
N = 256


def _bitrev7(value: int) -> int:
    result = 0
    for _ in range(7):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


_NTT = Ntt(Q, [pow(17, _bitrev7(i), Q) for i in range(128)], 7, pow(128, Q - 2, Q))
ntt_vec = _NTT.forward
intt_vec = _NTT.inverse

_GAMMAS = np.array([pow(17, 2 * _bitrev7(i) + 1, Q) for i in range(128)],
                   dtype=np.int64)


def matvec_basemul(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """rows[i] = sum_j basemul(mat[i][j], vec[j]) (mod q), NTT domain.

    Coefficient pairs multiply modulo X^2 - gamma_i: c0 = a0 b0 + a1 b1
    gamma_i, c1 = a0 b1 + a1 b0. Inputs below 2^12, so a row sum of at
    most 4 pair products stays far inside int64 before its reduction.
    """
    a0, a1 = mat[..., 0::2], mat[..., 1::2]          # (rows, k, 128)
    b0, b1 = vec[None, :, 0::2], vec[None, :, 1::2]  # (1, k, 128)
    out = np.empty((mat.shape[0], N), dtype=np.int64)
    out[:, 0::2] = (a0 * b0 + (a1 * b1 % Q) * _GAMMAS).sum(axis=1) % Q
    out[:, 1::2] = (a0 * b1 + a1 * b0).sum(axis=1) % Q
    return out


def add_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a + b) % Q


def sub_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a - b) % Q


def cbd_vec(data: bytes, eta: int) -> np.ndarray:
    """One CBD polynomial per 64*eta bytes: coefficient i is the popcount
    of its first eta bits minus that of its next eta, bits LSB first."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    halves = bits.reshape(-1, N, 2, eta).sum(axis=3, dtype=np.int64)
    return (halves[..., 0] - halves[..., 1]) % Q


def compress_vec(rows: np.ndarray, d: int) -> np.ndarray:
    return (((rows << d) + Q // 2) // Q) & ((1 << d) - 1)


def decompress_vec(rows: np.ndarray, d: int) -> np.ndarray:
    return (rows * Q + (1 << (d - 1))) >> d


def parse_uniform_rows(data: bytes, nrows: int) -> tuple[np.ndarray, np.ndarray]:
    """The spec's Parse over *nrows* equal-length XOF streams at once.

    Each 3-byte chunk yields two 12-bit candidates; the first 256 below
    q fill the row. Returns ``(coeffs, full)`` as
    :func:`repro.crypto.kernels.lattice.first_accepted`.
    """
    # (parses the *public* matrix-A XOF streams of GenMatrix)
    b = np.frombuffer(data, dtype=np.uint8).reshape(nrows, -1, 3).astype(np.int64)
    d1 = b[..., 0] | ((b[..., 1] & 0x0F) << 8)
    d2 = (b[..., 1] >> 4) | (b[..., 2] << 4)
    values = np.stack((d1, d2), axis=2).reshape(nrows, -1)
    # pqtls: allow[CT110] — public XOF output, filtered at the pragma-allowed sink
    return first_accepted(values, values < Q)
