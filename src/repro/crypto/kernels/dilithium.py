"""Fast Dilithium polynomial-vector kernels (batched numpy).

Dilithium's keygen, sign rejection loop and verify work on whole
polynomial vectors, and ``repro.pqc.dilithium.sig`` keeps every vector
as a (rows, 256) int64 numpy array from sampling to packing. The kernels
here take and return those arrays: the NTT/INTT are the shared
layer-parallel butterflies of ``repro.crypto.kernels.lattice`` (8
layers, scaled by 1/256 on the inverse), the matrix–vector pointwise
accumulate is one broadcast multiply-sum, Decompose/hint/norm
arithmetic runs as elementwise array ops, ``rej_uniform_rows`` filters
every ExpandA stream of the matrix in one pass, and ``rej_eta`` filters
a whole s1/s2 row. The whole-vector bit packers are shared with Kyber
(``lattice.pack_vec``/``unpack_vec``). All arithmetic is exact mod-q
integer math (products bounded by q^2 < 2^63), so outputs equal the
scalar reference loops in ``repro.pqc.dilithium.poly`` coefficient for
coefficient and byte for byte. A single polynomial (the challenge ``c``)
goes through the same kernels as a one-row vector; there are no scalar
twins.

Constants are re-derived here from the round-3 spec formulas — this
module must not import ``repro.pqc.dilithium.poly``, which imports it to
register the ref/fast bindings.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.kernels.lattice import Ntt, first_accepted

Q = 8380417
N = 256
_N_INV = pow(N, Q - 2, Q)


def _bitrev8(value: int) -> int:
    result = 0
    for _ in range(8):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


_NTT = Ntt(Q, [pow(1753, _bitrev8(i), Q) for i in range(N)], 8, _N_INV)
ntt_vec = _NTT.forward
intt_vec = _NTT.inverse


def pointwise_each(one: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return (rows * one[None, :]) % Q


def matvec_pointwise(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """rows[i] = sum_j mat[i][j] * vec[j] (pointwise, mod q), NTT domain.

    Entries are in [0, q), so each product is below 2^46 and a row sum
    of at most 7 products fits int64 before its one reduction.
    """
    return (mat * vec[None, :, :]).sum(axis=1) % Q


def add_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a + b) % Q


def sub_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a - b) % Q


def neg_vec(rows: np.ndarray) -> np.ndarray:
    return (-rows) % Q


def inf_norm_vec(rows: np.ndarray) -> int:
    r = rows % Q
    centered = np.where(r > Q // 2, r - Q, r)
    return int(np.abs(centered).max())


def _decompose_np(rows: np.ndarray, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    r = rows % Q
    r0 = r % alpha
    r0 = np.where(r0 > alpha // 2, r0 - alpha, r0)
    wrap = (r - r0) == Q - 1  # the q-1 wraparound fix
    r1 = np.where(wrap, 0, (r - r0) // alpha)
    r0 = np.where(wrap, r0 - 1, r0)
    return r1, r0


def highbits_vec(rows: np.ndarray, alpha: int) -> np.ndarray:
    return _decompose_np(rows, alpha)[0]


def lowbits_vec(rows: np.ndarray, alpha: int) -> np.ndarray:
    return _decompose_np(rows, alpha)[1]


def make_hint_vec(z_rows: np.ndarray, r_rows: np.ndarray, alpha: int) -> np.ndarray:
    """1 where adding z changes the high bits of r, elementwise."""
    shifted = (r_rows + z_rows) % Q
    return (
        _decompose_np(r_rows, alpha)[0] != _decompose_np(shifted, alpha)[0]
    ).astype(np.int64)


def use_hint_vec(hints: np.ndarray, rows: np.ndarray, alpha: int) -> np.ndarray:
    m = (Q - 1) // alpha
    r1, r0 = _decompose_np(rows, alpha)
    nudged = np.where(r0 > 0, (r1 + 1) % m, (r1 - 1) % m)
    return np.where(hints != 0, nudged, r1)


def power2round_vec(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t1 rows, t0 rows) with r = t1*2^D + t0, t0 in (-2^(D-1), 2^(D-1)]."""
    d = 13  # matches poly.D (dropped bits)
    r = rows % Q
    r0 = r % (1 << d)
    r0 = np.where(r0 > (1 << (d - 1)), r0 - (1 << d), r0)
    return (r - r0) >> d, r0


# -- rejection samplers ---------------------------------------------------

def rej_uniform_rows(data: bytes, nrows: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-mod-q rejection sampling of *nrows* equal-length streams.

    Each 3-byte chunk (top bit cleared) is one candidate; the first 256
    below q fill the row. Returns ``(coeffs, full)`` as
    :func:`repro.crypto.kernels.lattice.first_accepted`.
    """
    # (parses the *public* matrix-A XOF streams of ExpandA)
    b = np.frombuffer(data, dtype=np.uint8).reshape(nrows, -1, 3).astype(np.int64)
    t = b[..., 0] | (b[..., 1] << 8) | ((b[..., 2] & 0x7F) << 16)
    # pqtls: allow[CT110] — public XOF output, filtered at the pragma-allowed sink
    return first_accepted(t, t < Q)


def rej_eta(data: bytes, eta: int, limit: int) -> tuple[np.ndarray, int]:
    """Secret-key coefficients in [-eta, eta] (mod q) from a nibble stream.

    Each byte yields its low then its high nibble; nibbles >= 15 (eta=2)
    or >= 9 (eta=4) are rejected. Returns (accepted values, bytes
    consumed); the byte holding the ``limit``-th acceptance is consumed
    whole, matching the reference loop.
    """
    # pqtls: allow[CT001] — public stream-shape guards
    if not data or limit <= 0:
        return np.zeros(0, dtype=np.int64), 0
    b = np.frombuffer(data, dtype=np.uint8)
    nibbles = np.stack((b & 0x0F, b >> 4), axis=1).reshape(-1).astype(np.int64)
    # pqtls: allow[CT001] — eta is the public parameter set's constant
    if eta == 2:
        good = nibbles < 15
        values = (2 - nibbles % 5) % Q
    else:
        good = nibbles < 9
        values = (4 - nibbles) % Q
    counts = np.cumsum(good)
    # Spec-mandated rejection sampling: which nibbles are rejected is
    # independent of the accepted values, and the reference loop branches
    # on every nibble the same way; host timing is outside the
    # simulation's measurement path.
    # pqtls: allow[CT001] — rejection count of the spec's sampler
    if int(counts[-1]) <= limit:
        return values[good], len(data)  # pqtls: allow[CT003] — rejection mask
    stop = int(np.searchsorted(counts, limit)) + 1
    return values[:stop][good[:stop]], (stop + 1) // 2  # pqtls: allow[CT003] — rejection mask
