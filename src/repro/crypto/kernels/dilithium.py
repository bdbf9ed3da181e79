"""Fast Dilithium polynomial-vector kernels (batched numpy).

Dilithium's keygen, sign rejection loop and verify work on whole
polynomial vectors, and ``repro.pqc.dilithium.sig`` keeps every vector
as a (rows, 256) int64 numpy array from sampling to packing. The kernels
here take and return those arrays: layer-parallel NTT/INTT butterflies
(zeta slice ``ZETAS[m : 2m]`` for the layer with m blocks, reversed on
the inverse), one broadcast matrix–vector pointwise accumulate,
Decompose/hint/norm arithmetic as elementwise array ops, the samplers
``rej_uniform``/``rej_eta`` as one filter over the whole XOF block, and
the whole-vector bit packers ``pack_vec``/``unpack_vec`` as one
``np.packbits``/``np.unpackbits`` pass. All arithmetic is exact mod-q
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

Q = 8380417
N = 256
_N_INV = pow(N, Q - 2, Q)


def _bitrev8(value: int) -> int:
    result = 0
    for _ in range(8):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


_ZETAS_NP = np.array([pow(1753, _bitrev8(i), Q) for i in range(N)],
                     dtype=np.int64)


def ntt_vec(rows: np.ndarray) -> np.ndarray:
    """Forward NTT of every row; layer-parallel butterflies.

    Only the twiddle product is reduced inside a layer: each layer
    raises the magnitude bound by at most q, so after 8 layers every
    |value| is below 9q and every product below 2^50; one final ``% Q``
    (a floor modulo, so negatives land in [0, q)) gives the canonical
    result.
    """
    f = rows % Q  # a fresh array, rewritten in place layer by layer
    nrows = f.shape[0]
    length = 128
    while length >= 1:
        nblocks = N // (2 * length)
        g = f.reshape(nrows, nblocks, 2, length)
        lo = g[:, :, 0, :]
        hi = g[:, :, 1, :]
        t = (_ZETAS_NP[nblocks: 2 * nblocks][None, :, None] * hi) % Q
        np.subtract(lo, t, out=hi)
        lo += t
        length //= 2
    return f % Q


def intt_vec(rows: np.ndarray) -> np.ndarray:
    """Inverse NTT of every row (zeta slice reversed per layer).

    The lo half ``lo + hi`` stays unreduced, so the bound at most
    doubles per layer: below 2^8 q < 2^31 after 8 layers, which keeps
    every twiddle product and the final scaling by 1/256 below 2^54.
    """
    f = rows % Q
    nrows = f.shape[0]
    length = 1
    while length < N:
        nblocks = N // (2 * length)
        g = f.reshape(nrows, nblocks, 2, length)
        lo = g[:, :, 0, :]
        hi = g[:, :, 1, :]
        t = hi - lo
        lo += hi
        t *= _ZETAS_NP[nblocks: 2 * nblocks][::-1][None, :, None]
        np.remainder(t, Q, out=hi)
        length *= 2
    return (f * _N_INV) % Q


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


# -- whole-vector bit packing ---------------------------------------------

def pack_vec(rows: np.ndarray, bits: int) -> bytes:
    """Every row's *bits*-wide coefficients, LSB first, rows concatenated.

    A row is 256 * bits bits, a whole number of bytes, so one packbits
    pass over the vector equals the per-row reference encodings joined.
    """
    shifts = np.arange(bits, dtype=np.int64)
    lanes = ((rows[..., None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(lanes.reshape(-1), bitorder="little").tobytes()


def unpack_vec(data: bytes, bits: int, nrows: int) -> np.ndarray:
    """Inverse of :func:`pack_vec`: (nrows, 256) from the head of *data*."""
    if 8 * len(data) < bits * N * nrows:  # pqtls: allow[CT001] — public shape check
        raise ValueError("unpack_vec: not enough data")
    raw = np.frombuffer(data, dtype=np.uint8, count=bits * N * nrows // 8)
    lanes = np.unpackbits(raw, bitorder="little").reshape(nrows, N, bits)
    return lanes.astype(np.int64) @ (1 << np.arange(bits, dtype=np.int64))


# -- rejection samplers ---------------------------------------------------

def rej_uniform(data: bytes, limit: int) -> tuple[np.ndarray, int]:
    """Uniform-mod-q rejection sampling over 3-byte chunks (top bit cleared).

    Returns (accepted values, bytes consumed); consumption stops exactly
    after the chunk yielding the ``limit``-th acceptance, matching the
    reference byte-at-a-time loop.
    """
    chunks = len(data) // 3
    # pqtls: allow[CT001] — public stream-shape guards
    if chunks == 0 or limit <= 0:
        return np.zeros(0, dtype=np.int64), 0
    # (parses the *public* matrix-A XOF stream; data/limit are never
    # secret at this call site)
    b = np.frombuffer(data[: 3 * chunks], dtype=np.uint8).reshape(chunks, 3)
    b = b.astype(np.int64)
    t = b[:, 0] | (b[:, 1] << 8) | ((b[:, 2] & 0x7F) << 16)
    good = t < Q
    counts = np.cumsum(good)
    if int(counts[-1]) <= limit:  # pqtls: allow[CT001] — public shape
        return t[good], 3 * chunks  # pqtls: allow[CT003]
    stop = int(np.searchsorted(counts, limit)) + 1
    return t[:stop][good[:stop]], 3 * stop  # pqtls: allow[CT003]


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
