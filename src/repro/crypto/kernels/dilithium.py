"""Fast Dilithium polynomial-vector kernels (batched numpy).

The ``*_vec`` family batches whole polynomial vectors — the unit of work
in Dilithium's keygen, sign rejection loop and verify — as (rows, 256)
int64 numpy arrays: layer-parallel NTT/INTT butterflies (zeta slice
``ZETAS[m : 2m]`` for the layer with m blocks, reversed on the inverse),
one broadcast matrix–vector pointwise accumulate, and Decompose/hint/norm
arithmetic as elementwise array ops. All arithmetic is exact mod-q
integer math (products bounded by q^2 < 2^63), so outputs equal the
scalar reference loops in ``repro.pqc.dilithium.poly`` coefficient for
coefficient. A single polynomial (the challenge ``c``) goes through the
same kernels as a one-row vector; there are no scalar twins.

The bit packers Dilithium binds are the shared Kyber ones
(``repro.crypto.kernels.kyber``). Constants are re-derived here from the
round-3 spec formulas — this module must not import
``repro.pqc.dilithium.poly``, which imports it to register the ref/fast
bindings.
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


def _as_rows(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64)


def ntt_vec(rows: list[list[int]]) -> list[list[int]]:
    """Forward NTT of every row; layer-parallel butterflies."""
    f = _as_rows(rows) % Q
    nrows = f.shape[0]
    length = 128
    while length >= 1:
        nblocks = N // (2 * length)
        zetas = _ZETAS_NP[nblocks: 2 * nblocks][None, :, None]
        g = f.reshape(nrows, nblocks, 2, length)
        lo = g[:, :, 0, :]
        t = (zetas * g[:, :, 1, :]) % Q
        f = np.stack(((lo + t) % Q, (lo - t) % Q), axis=2).reshape(nrows, N)
        length //= 2
    return f.tolist()


def intt_vec(rows: list[list[int]]) -> list[list[int]]:
    """Inverse NTT of every row (zeta slice reversed per layer)."""
    f = _as_rows(rows) % Q
    nrows = f.shape[0]
    length = 1
    while length < N:
        nblocks = N // (2 * length)
        zetas = _ZETAS_NP[nblocks: 2 * nblocks][::-1][None, :, None]
        g = f.reshape(nrows, nblocks, 2, length)
        lo = g[:, :, 0, :]
        hi = g[:, :, 1, :]
        f = np.stack(
            ((lo + hi) % Q, (zetas * ((hi - lo) % Q)) % Q), axis=2
        ).reshape(nrows, N)
        length *= 2
    return ((f * _N_INV) % Q).tolist()


def pointwise_each(one: list[int], rows: list[list[int]]) -> list[list[int]]:
    return ((_as_rows(rows) * _as_rows(one)[None, :]) % Q).tolist()


def matvec_pointwise(mat, vec) -> list[list[int]]:
    """rows[i] = sum_j mat[i][j] * vec[j] (pointwise, mod q), NTT domain."""
    m = _as_rows(mat)
    v = _as_rows(vec)
    return (((m * v[None, :, :]) % Q).sum(axis=1) % Q).tolist()


def add_vec(a, b) -> list[list[int]]:
    return ((_as_rows(a) + _as_rows(b)) % Q).tolist()


def sub_vec(a, b) -> list[list[int]]:
    return ((_as_rows(a) - _as_rows(b)) % Q).tolist()


def neg_vec(rows) -> list[list[int]]:
    return ((-_as_rows(rows)) % Q).tolist()


def inf_norm_vec(rows) -> int:
    r = _as_rows(rows) % Q
    centered = np.where(r > Q // 2, r - Q, r)
    return int(np.abs(centered).max())


def _decompose_np(rows, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    r = _as_rows(rows) % Q
    r0 = r % alpha
    r0 = np.where(r0 > alpha // 2, r0 - alpha, r0)
    wrap = (r - r0) == Q - 1  # the q-1 wraparound fix
    r1 = np.where(wrap, 0, (r - r0) // alpha)
    r0 = np.where(wrap, r0 - 1, r0)
    return r1, r0


def highbits_vec(rows, alpha: int) -> list[list[int]]:
    return _decompose_np(rows, alpha)[0].tolist()


def lowbits_vec(rows, alpha: int) -> list[list[int]]:
    return _decompose_np(rows, alpha)[1].tolist()


def make_hint_vec(z_rows, r_rows, alpha: int) -> list[list[int]]:
    """1 where adding z changes the high bits of r, elementwise."""
    r = _as_rows(r_rows)
    shifted = (r + _as_rows(z_rows)) % Q
    return (
        (_decompose_np(r, alpha)[0] != _decompose_np(shifted, alpha)[0])
        .astype(np.int64).tolist()
    )


def use_hint_vec(hints, rows, alpha: int) -> list[list[int]]:
    m = (Q - 1) // alpha
    r1, r0 = _decompose_np(rows, alpha)
    h = _as_rows(hints) != 0
    nudged = np.where(r0 > 0, (r1 + 1) % m, (r1 - 1) % m)
    return np.where(h, nudged, r1).tolist()


def power2round_vec(rows) -> tuple[list[list[int]], list[list[int]]]:
    """(t1 rows, t0 rows) with r = t1*2^D + t0, t0 in (-2^(D-1), 2^(D-1)]."""
    d = 13  # matches poly.D (dropped bits)
    r = _as_rows(rows) % Q
    r0 = r % (1 << d)
    r0 = np.where(r0 > (1 << (d - 1)), r0 - (1 << d), r0)
    return ((r - r0) >> d).tolist(), r0.tolist()


def rej_uniform(data: bytes, limit: int) -> tuple[list[int], int]:
    """Uniform-mod-q rejection sampling over 3-byte chunks (top bit cleared).

    Returns (accepted values, bytes consumed); consumption stops exactly
    after the chunk yielding the ``limit``-th acceptance, matching the
    reference byte-at-a-time loop.
    """
    chunks = len(data) // 3
    # pqtls: allow[CT001] — public stream-shape guards
    if chunks == 0 or limit <= 0:
        return [], 0
    # (parses the *public* matrix-A XOF stream; data/limit are never
    # secret at this call site)
    b = np.frombuffer(data[: 3 * chunks], dtype=np.uint8).reshape(chunks, 3)
    b = b.astype(np.int64)
    t = b[:, 0] | (b[:, 1] << 8) | ((b[:, 2] & 0x7F) << 16)
    good = t < Q
    counts = np.cumsum(good)
    if int(counts[-1]) <= limit:  # pqtls: allow[CT001] — public shape
        return t[good].tolist(), 3 * chunks  # pqtls: allow[CT003]
    stop = int(np.searchsorted(counts, limit)) + 1
    return t[:stop][good[:stop]].tolist(), 3 * stop  # pqtls: allow[CT003]
