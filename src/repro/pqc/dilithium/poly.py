"""Polynomial arithmetic for Dilithium: R_q = Z_8380417[X]/(X^256 + 1).

The Dilithium NTT is complete (8 layers, 256-point); rounding helpers
(Power2Round, Decompose, hints) follow the round-3 specification.

The scheme keeps every polynomial vector as a (rows, 256) int64 numpy
array, so the switchable entry points are the ``*_vec`` family, the
whole-vector packers ``pack_vec``/``unpack_vec`` (reference in
``repro.pqc.bitpack``, shared with Kyber) and the samplers
``rej_uniform_rows``/``rej_eta``: ``PQTLS_KERNELS=fast`` (default)
swaps them for the batched numpy twins in
``repro.crypto.kernels.dilithium`` and ``.lattice``. The reference
twins take and return the same arrays but convert to lists once at
their boundary and run the scalar loops, so they stay the oracle. The
scalar ``ntt``/``intt``/``pointwise``/``add``/``sub``/``rej_uniform``
and the per-row ``pack_bits``/``unpack_bits`` are plain helpers of
those loops, never rebound; a single polynomial goes through
``ntt_vec(c[None])[0]``. Call through the module so rebinding takes
effect.
"""

from __future__ import annotations

import sys

import numpy as np

# bit packing: the one reference copy, shared with Kyber
from repro.pqc import bitpack
from repro.pqc.bitpack import pack_bits, unpack_bits  # noqa: F401

Q = 8380417
N = 256
D = 13  # dropped bits in Power2Round
_N_INV = pow(N, Q - 2, Q)


def _bitrev8(value: int) -> int:
    result = 0
    for _ in range(8):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


ZETAS = [pow(1753, _bitrev8(i), Q) for i in range(256)]


def ntt(coeffs: list[int]) -> list[int]:
    f = list(coeffs)
    k = 0
    length = 128
    while length >= 1:
        for start in range(0, N, 2 * length):
            k += 1
            zeta = ZETAS[k]
            for j in range(start, start + length):
                t = zeta * f[j + length] % Q
                f[j + length] = (f[j] - t) % Q
                f[j] = (f[j] + t) % Q
        length //= 2
    return f


def intt(coeffs: list[int]) -> list[int]:
    f = list(coeffs)
    k = 256
    length = 1
    while length < N:
        for start in range(0, N, 2 * length):
            k -= 1
            zeta = ZETAS[k]
            for j in range(start, start + length):
                t = f[j]
                f[j] = (t + f[j + length]) % Q
                f[j + length] = zeta * (f[j + length] - t) % Q
        length *= 2
    return [x * _N_INV % Q for x in f]


def pointwise(a: list[int], b: list[int]) -> list[int]:
    return [x * y % Q for x, y in zip(a, b)]


def add(a: list[int], b: list[int]) -> list[int]:
    return [(x + y) % Q for x, y in zip(a, b)]


def sub(a: list[int], b: list[int]) -> list[int]:
    return [(x - y) % Q for x, y in zip(a, b)]


def centered(value: int, modulus: int = Q) -> int:
    """Representative in (-modulus/2, modulus/2]."""
    value %= modulus
    if value > modulus // 2:
        value -= modulus
    return value


def inf_norm(coeffs: list[int]) -> int:
    return max(abs(centered(c)) for c in coeffs)


# -- rounding -------------------------------------------------------------

def power2round(r: int) -> tuple[int, int]:
    """(r1, r0) with r = r1*2^D + r0, r0 in (-2^(D-1), 2^(D-1)]."""
    r %= Q
    r0 = r % (1 << D)
    if r0 > (1 << (D - 1)):
        r0 -= 1 << D
    return (r - r0) >> D, r0


def decompose(r: int, alpha: int) -> tuple[int, int]:
    """(r1, r0) with r = r1*alpha + r0 and the q-1 wraparound fix."""
    r %= Q
    r0 = r % alpha
    if r0 > alpha // 2:
        r0 -= alpha
    if r - r0 == Q - 1:
        return 0, r0 - 1
    return (r - r0) // alpha, r0


def highbits(r: int, alpha: int) -> int:
    return decompose(r, alpha)[0]


def lowbits(r: int, alpha: int) -> int:
    return decompose(r, alpha)[1]


def make_hint(z: int, r: int, alpha: int) -> int:
    """1 iff adding z changes the high bits of r."""
    return int(highbits(r, alpha) != highbits((r + z) % Q, alpha))


def use_hint(hint: int, r: int, alpha: int) -> int:
    m = (Q - 1) // alpha
    r1, r0 = decompose(r, alpha)
    if hint:
        if r0 > 0:
            return (r1 + 1) % m
        return (r1 - 1) % m
    return r1


# -- polynomial-vector entry points ----------------------------------------
#
# The unit of work in keygen/sign/verify is a whole vector of polynomials
# (length k or l), held as a (rows, 256) int64 array. These reference
# twins convert once at their boundary and run the scalar loops above;
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


def pointwise_each(one: np.ndarray, rows: np.ndarray) -> np.ndarray:
    one = _lists(one)
    return _array([pointwise(one, row) for row in _lists(rows)])


def matvec_pointwise(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """rows[i] = sum_j mat[i][j] * vec[j] (pointwise, mod q), NTT domain."""
    vec = _lists(vec)
    out = []
    for row in _lists(mat):
        acc = [0] * N
        for entry, v in zip(row, vec):
            acc = add(acc, pointwise(entry, v))
        out.append(acc)
    return _array(out)


def add_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _array([add(x, y) for x, y in zip(_lists(a), _lists(b))])


def sub_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _array([sub(x, y) for x, y in zip(_lists(a), _lists(b))])


def neg_vec(rows: np.ndarray) -> np.ndarray:
    return _array([[(-c) % Q for c in row] for row in _lists(rows)])


def inf_norm_vec(rows: np.ndarray) -> int:
    return max(inf_norm(row) for row in _lists(rows))


def highbits_vec(rows: np.ndarray, alpha: int) -> np.ndarray:
    return _array([[highbits(c, alpha) for c in row] for row in _lists(rows)])


def lowbits_vec(rows: np.ndarray, alpha: int) -> np.ndarray:
    return _array([[lowbits(c, alpha) for c in row] for row in _lists(rows)])


def make_hint_vec(z_rows: np.ndarray, r_rows: np.ndarray, alpha: int) -> np.ndarray:
    return _array([
        [make_hint(z, r, alpha) for z, r in zip(z_row, r_row)]
        for z_row, r_row in zip(_lists(z_rows), _lists(r_rows))
    ])


def use_hint_vec(hints: np.ndarray, rows: np.ndarray, alpha: int) -> np.ndarray:
    return _array([
        [use_hint(h, r, alpha) for h, r in zip(h_row, r_row)]
        for h_row, r_row in zip(_lists(hints), _lists(rows))
    ])


def power2round_vec(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hi_rows, lo_rows = [], []
    for row in _lists(rows):
        pairs = [power2round(c) for c in row]
        hi_rows.append([hi for hi, _ in pairs])
        lo_rows.append([lo for _, lo in pairs])
    return _array(hi_rows), _array(lo_rows)


# -- rejection samplers ----------------------------------------------------

def rej_uniform(data: bytes, limit: int) -> tuple[list[int], int]:
    """Uniform-mod-q rejection sampling over 3-byte chunks (top bit cleared).

    Returns (accepted values, bytes consumed); consumption stops exactly
    after the chunk yielding the ``limit``-th acceptance.
    """
    out: list[int] = []
    offset = 0
    while len(out) < limit and offset + 3 <= len(data):
        t = (data[offset]
             | (data[offset + 1] << 8)
             | ((data[offset + 2] & 0x7F) << 16))
        offset += 3
        if t < Q:
            out.append(t)
    return out, offset


def rej_uniform_rows(data: bytes, nrows: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rej_uniform` over each of *nrows* equal-length streams.

    Returns ``(coeffs, full)``: ``full[r]`` says row r reached 256
    coefficients; a row that fell short is all zeros (the caller
    squeezes its stream longer).
    """
    step = len(data) // nrows
    rows, full = [], []
    for r in range(nrows):
        got, _ = rej_uniform(data[r * step: (r + 1) * step], N)
        full.append(len(got) == N)
        rows.append(got if len(got) == N else [0] * N)
    return _array(rows).reshape(nrows, N), np.array(full, dtype=bool)


def rej_eta(data: bytes, eta: int, limit: int) -> tuple[list[int], int]:
    """Coefficients in [-eta, eta] (mod q) from the low, then high nibbles.

    Nibbles >= 15 (eta=2) or >= 9 (eta=4) are rejected. Returns
    (accepted values, bytes consumed); the byte holding the
    ``limit``-th acceptance is consumed whole.
    """
    out: list[int] = []
    offset = 0
    while len(out) < limit and offset < len(data):
        byte = data[offset]
        offset += 1
        for nibble in (byte & 0x0F, byte >> 4):
            if len(out) >= limit:
                break
            if eta == 2 and nibble < 15:
                out.append((2 - nibble % 5) % Q)
            elif eta == 4 and nibble < 9:
                out.append((4 - nibble) % Q)
    return out, offset


from repro.crypto import kernels as _kernels  # noqa: E402
from repro.crypto.kernels import dilithium as _fast, lattice as _lattice  # noqa: E402

_SELF = sys.modules[__name__]
for _name in ("ntt_vec", "intt_vec", "pointwise_each", "matvec_pointwise",
              "add_vec", "sub_vec", "neg_vec", "inf_norm_vec",
              "highbits_vec", "lowbits_vec", "make_hint_vec", "use_hint_vec",
              "power2round_vec", "rej_uniform_rows", "rej_eta"):
    _kernels.bind(_SELF, _name,
                  ref=getattr(_SELF, _name), fast=getattr(_fast, _name))
for _name in ("pack_vec", "unpack_vec"):
    _kernels.bind(_SELF, _name,
                  ref=getattr(bitpack, _name), fast=getattr(_lattice, _name))
