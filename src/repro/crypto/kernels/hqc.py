"""Fast HQC kernels: cyclic products, RM(1,7) decoding, RS encode/syndromes.

Fast twins for the pure-Python hot paths of ``repro.pqc.hqc`` (profile
of an hqc128 roundtrip: ``_sparse_mul``'s per-index ``np.roll`` is ~50%
of wall time, the per-symbol Walsh–Hadamard loop in ``rm_decode``
another ~15%, RS encoding and syndrome evaluation most of the rest):

- :func:`sparse_mul` — the sparse·dense product in GF(2)[x]/(x^n - 1)
  as one Python bigint: pack the dense vector into an int, then each
  support index is a rotate-XOR (``(x << s | x >> (n - s)) & mask``)
  on machine words instead of an n-element ``np.roll`` round trip.
- :func:`rm_decode` — all n1 soft vectors pushed through one batched
  fast Walsh–Hadamard transform on an (n1, 128) int32 matrix; argmax
  per row replaces the per-symbol Python loop. |soft| ≤ multiplicity,
  so transform values stay within ±640 — no overflow in int32.
- :func:`rs_syndromes` / :func:`rs_encode` — GF(256) polynomial
  evaluation as exp/log table gathers against cached exponent matrices
  (log 0 maps past the populated exp range, so zero coefficients gather
  0 with no masking).

Reed–Solomon decoding past the syndromes (Berlekamp–Massey, Chien
search, Forney) stays on the reference: an honest handshake's syndromes
are all zero, so production never reaches it.

All arithmetic is exact (XOR/GF(256)); outputs are byte-identical to
the reference twins in ``repro.pqc.hqc.{kem,reedmuller,reedsolomon}``.
This module must not import those modules — they import it to register
bindings.

Like the reference twins, these operate on secret-derived values
(supports, noisy codewords); data-dependent bigint limb counts and
table gathers are flagged with ``pqtls: allow`` pragmas because host
timing is outside the simulation's measurement path.
"""

from __future__ import annotations

import numpy as np

_RM_BITS = 128
_GF_POLY = 0x11D     # HQC's GF(256) modulus, x^8 + x^4 + x^3 + x^2 + 1

# sentinel log of zero: the exp table is zero beyond index 509, so any
# sum involving it gathers 0 and zero coefficients need no mask pass
_LOG_ZERO = 1280

_GF: tuple[np.ndarray, np.ndarray] | None = None
# cached exponent matrices, keyed by the (public) code parameters
_SYND_MATS: dict[tuple[int, int], np.ndarray] = {}
_GENMUL: dict[bytes, np.ndarray] = {}


def _gf_tables() -> tuple[np.ndarray, np.ndarray]:
    """(EXP, LOG) of GF(256) as int32 gather tables with the zero sentinel."""
    global _GF
    if _GF is None:
        exp_np = np.zeros(2 * _LOG_ZERO + 1, dtype=np.int32)
        log_np = np.full(256, _LOG_ZERO, dtype=np.int32)
        value = 1
        for i in range(255):
            exp_np[i] = exp_np[i + 255] = value
            log_np[value] = i
            value <<= 1
            if value & 0x100:
                value ^= _GF_POLY
        _GF = (exp_np, log_np)
    return _GF


def warm() -> None:
    """Pre-build the GF(256) gather tables (benchmark setup)."""
    _gf_tables()


# -- sparse·dense cyclic product ------------------------------------------------

def sparse_mul(support: list[int], dense: np.ndarray) -> np.ndarray:
    """(sum_i x^support[i]) * dense in GF(2)[x]/(x^n - 1).

    The dense bit vector becomes one little-endian bigint; each support
    index contributes a rotate-left by that amount, XOR-accumulated.
    """
    n = dense.shape[0]
    x = int.from_bytes(np.packbits(dense, bitorder="little").tobytes(), "little")
    mask = (1 << n) - 1
    acc = 0
    for shift in support:
        # the rotate amount is the secret support index; bigint shifts
        # are not constant-time on the host, but this is the same
        # exposure class as the reference np.roll(dense, shift)
        acc ^= ((x << shift) | (x >> (n - shift))) & mask
    out = np.frombuffer(acc.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    # pqtls: allow[CT003] — slice bound is the public ring dimension n
    return np.unpackbits(out, bitorder="little")[:n].astype(dense.dtype)


# -- Reed–Muller ML decode ------------------------------------------------------

def rm_decode(bits: np.ndarray, n1: int, multiplicity: int) -> bytes:
    """ML-decode n1 duplicated RM(1,7) codewords back to n1 bytes."""
    expected = n1 * _RM_BITS * multiplicity
    if bits.shape[0] != expected:  # pqtls: allow[CT001] — public shape check
        raise ValueError(f"expected {expected} bits, got {bits.shape[0]}")
    blocks = bits.reshape(n1, multiplicity, _RM_BITS)
    # soft values: +1 for bit 0, -1 for bit 1, summed over copies
    v = (multiplicity - 2 * blocks.sum(axis=1)).astype(np.int32)
    h = 1
    while h < _RM_BITS:
        w = v.reshape(n1, -1, 2, h)
        left = w[:, :, 0, :]
        right = w[:, :, 1, :]
        v = np.stack((left + right, left - right), axis=2).reshape(n1, _RM_BITS)
        h *= 2
    # np.argmax takes the first maximum, matching the reference row loop
    index = np.argmax(np.abs(v), axis=1)
    # pqtls: allow[CT003] — argmax gather over the soft codeword, same
    # data-dependent access as the reference per-row argmax
    value = v[np.arange(n1), index]
    return bytes((index | np.where(value < 0, 0x80, 0)).astype(np.uint8).tolist())


# -- Reed–Solomon component kernels ---------------------------------------------

def _synd_matrix(delta: int, n: int) -> np.ndarray:
    mat = _SYND_MATS.get((delta, n))
    # pqtls: allow[CT001] — memoized matrix keyed by public code params
    if mat is None:
        i = np.arange(1, 2 * delta + 1, dtype=np.int32)
        j = np.arange(n, dtype=np.int32)
        mat = (i[:, None] * j[None, :]) % 255
        _SYND_MATS[(delta, n)] = mat  # pqtls: allow[CT003] — public key
    return mat


def rs_syndromes(word: list[int], delta: int) -> list[int]:
    """[poly_eval(word, alpha^i) for i in 1..2*delta] as one gather."""
    exp_np, log_np = _gf_tables()
    logs = log_np[np.asarray(word, dtype=np.int32)]  # pqtls: allow[CT003]
    mat = _synd_matrix(delta, len(word))  # pqtls: allow[CT110] — public code params
    terms = exp_np[logs[None, :] + mat]  # pqtls: allow[CT003]
    return np.bitwise_xor.reduce(terms, axis=1).tolist()


def _gen_table(gen: list[int]) -> np.ndarray:
    key = bytes(gen)
    tab = _GENMUL.get(key)
    # pqtls: allow[CT001] — memoized table for the public generator poly
    if tab is None:
        exp_np, log_np = _gf_tables()
        logs = log_np[np.asarray(gen, dtype=np.int32)]  # pqtls: allow[CT003] — public generator
        tab = exp_np[log_np[np.arange(256)][:, None] + logs[None, :]]  # pqtls: allow[CT003] — public generator
        _GENMUL[key] = tab  # pqtls: allow[CT003] — public generator
    return tab


def rs_encode(message: bytes, gen: list[int], n: int, k: int) -> bytes:
    """Systematic RS encoding: codeword = parity || message (degree order)."""
    parity_len = n - k
    remainder = np.zeros(n, dtype=np.int32)
    remainder[parity_len:] = np.frombuffer(bytes(message), dtype=np.uint8)  # pqtls: allow[CT003] — public code shape
    table = _gen_table(gen)  # pqtls: allow[CT110] — public generator poly
    top = len(gen) - 1
    for i in range(n - 1, parity_len - 1, -1):  # pqtls: allow[CT002] — public code length
        coeff = int(remainder[i])  # pqtls: allow[CT003]
        # pqtls: allow[CT001] — sparsity skip, same shape as the reference
        if coeff:
            remainder[i - top: i + 1] ^= table[coeff]  # pqtls: allow[CT003]
    return remainder[:parity_len].astype(np.uint8).tobytes() + bytes(message)  # pqtls: allow[CT003] — public code shape
