"""Fast Kyber polynomial kernels: lane-packed bigints and lookup tables.

Byte-for-byte twins of ``repro.pqc.kyber.poly`` (and of the shared
reference packers in ``repro.pqc.bitpack``):

- ``poly_add``/``poly_sub`` pack the 256 coefficients into one 4096-bit
  Python int (16-bit lanes, via ``struct``) and do the add plus the
  conditional subtract-q of *all* lanes in a handful of bigint
  operations — CPython executes those in C over 64-bit limbs, which is
  the closest a pure-Python program gets to SIMD.
- ``parse_uniform`` squeezes the XOF three blocks at a gulp instead of
  three bytes at a call.
- ``cbd`` replaces the per-bit list walk with byte tables (eta=2) and
  6-bit bigint field extraction (eta=3).
- ``pack_bits``/``unpack_bits``/``compress``/``decompress`` run on one
  bigint / one lookup table instead of per-coefficient shift loops.
  Dilithium packs whole vectors with its own numpy packer instead
  (``repro.crypto.kernels.dilithium``).

The NTT, inverse NTT and base multiplication have no twin: a lazily
reduced rewrite did not beat the reference by more than the host's
run-to-run spread (DESIGN.md §8).

This module must not import ``repro.pqc.kyber.poly`` (which imports it
to register bindings).
"""

from __future__ import annotations

import struct

Q = 3329
N = 256

# -- lane packing ---------------------------------------------------------

_PACK = struct.Struct("<256H")
_ONES = sum(1 << (16 * i) for i in range(N))       # 1 in every lane
_HIGH = _ONES << 15                                # lane sign bit
_QLANES = Q * _ONES                                # q in every lane


def _swar_mod_q(sums: int) -> list[int]:
    """Per-lane conditional subtract-q for lane values in [0, 2q)."""
    # bit 15 of (0x8000 + v - q) is set exactly when v >= q; shifting it
    # to each lane's bit 0 yields a 0/1 selector per lane.
    selector = (((sums | _HIGH) - _QLANES) >> 15) & _ONES
    reduced = sums - Q * selector
    return list(_PACK.unpack(reduced.to_bytes(512, "little")))


def poly_add(a: list[int], b: list[int]) -> list[int]:
    try:
        ia = int.from_bytes(_PACK.pack(*a), "little")
        ib = int.from_bytes(_PACK.pack(*b), "little")
    except struct.error:
        # inputs outside the u16 lane domain: take the reference path
        return [(x + y) % Q for x, y in zip(a, b)]
    return _swar_mod_q(ia + ib)


def poly_sub(a: list[int], b: list[int]) -> list[int]:
    try:
        ia = int.from_bytes(_PACK.pack(*a), "little")
        ib = int.from_bytes(_PACK.pack(*b), "little")
    except struct.error:
        return [(x - y) % Q for x, y in zip(a, b)]
    # lane = a - b + q, in (0, 2q) for reduced inputs
    return _swar_mod_q(ia + (_QLANES - ib))


# -- sampling -------------------------------------------------------------

def parse_uniform(stream) -> list[int]:
    """Rejection-sample a uniform polynomial, three XOF blocks at a gulp.

    Reads 504 bytes (= 168 coefficient triples) per round instead of 3;
    over-reading is invisible because each (i, j) matrix entry gets its
    own stream, and the first gulp almost always suffices (expected
    yield ~320 accepted coefficients).
    """
    coeffs: list[int] = []
    while True:
        chunk = stream.read(504)
        for k in range(0, 504, 3):
            b1 = chunk[k + 1]
            d1 = chunk[k] | ((b1 & 0x0F) << 8)
            # pqtls: allow[CT001] — spec-mandated rejection sampling on
            # public XOF output (the reference twin branches identically)
            if d1 < Q:
                coeffs.append(d1)
            d2 = (b1 >> 4) | (chunk[k + 2] << 4)
            # pqtls: allow[CT001]
            if d2 < Q:
                coeffs.append(d2)
        if len(coeffs) >= N:
            return coeffs[:N]


# eta=2: each byte holds two coefficients (one per nibble)
_CBD2 = []
for _byte in range(256):
    _lo = ((_byte & 1) + (_byte >> 1 & 1) - (_byte >> 2 & 1) - (_byte >> 3 & 1)) % Q
    _hi = ((_byte >> 4 & 1) + (_byte >> 5 & 1) - (_byte >> 6 & 1) - (_byte >> 7 & 1)) % Q
    _CBD2.append((_lo, _hi))

# eta=3: 6-bit field -> coefficient
_CBD3 = [((x & 1) + (x >> 1 & 1) + (x >> 2 & 1)
          - (x >> 3 & 1) - (x >> 4 & 1) - (x >> 5 & 1)) % Q
         for x in range(64)]


def cbd(data: bytes, eta: int) -> list[int]:
    """Centered binomial distribution with parameter eta from 64*eta bytes."""
    # eta is a public parameter-set constant (2 or 3), never secret
    if len(data) != 64 * eta:  # pqtls: allow[CT001]
        raise ValueError("CBD input must be 64*eta bytes")
    if eta == 2:  # pqtls: allow[CT001]
        coeffs: list[int] = []
        for pair in map(_CBD2.__getitem__, data):
            coeffs += pair
        return coeffs
    if eta == 3:  # pqtls: allow[CT001] — public parameter-set constant
        acc = int.from_bytes(data, "little")
        # pqtls: allow[CT003] — secret-indexed popcount table; host
        # timing is outside the simulation's measurement path
        return [_CBD3[(acc >> (6 * i)) & 63] for i in range(N)]
    # other eta values: bit-list reference shape (none are used by Kyber)
    bits = []
    for byte in data:
        for i in range(8):
            bits.append((byte >> i) & 1)
    coeffs = []
    for i in range(N):
        a = sum(bits[2 * i * eta + j] for j in range(eta))  # pqtls: allow[CT003]
        b = sum(bits[2 * i * eta + eta + j] for j in range(eta))  # pqtls: allow[CT003]
        coeffs.append((a - b) % Q)
    return coeffs


# -- compression / serialisation ------------------------------------------

_COMPRESS_TABLES: dict[int, list[int]] = {}
_DECOMPRESS_TABLES: dict[int, list[int]] = {}


def compress(coeffs: list[int], d: int) -> list[int]:
    """Table-driven compression; coefficients must be canonical [0, q)."""
    table = _COMPRESS_TABLES.get(d)
    # d is a public compression width; the memo is keyed on it by design
    if table is None:  # pqtls: allow[CT001]
        mod = 1 << d
        table = [((x << d) + Q // 2) // Q % mod for x in range(Q)]
        _COMPRESS_TABLES[d] = table  # pqtls: allow[CT003]
    return [table[x] for x in coeffs]  # pqtls: allow[CT003]


def decompress(values: list[int], d: int) -> list[int]:
    table = _DECOMPRESS_TABLES.get(d)
    if table is None:  # pqtls: allow[CT001] — public width, memoized table
        half = 1 << (d - 1)
        table = [(v * Q + half) >> d for v in range(1 << d)]
        _DECOMPRESS_TABLES[d] = table  # pqtls: allow[CT003]
    return [table[v] for v in values]  # pqtls: allow[CT003]


def pack_bits(values: list[int], d: int) -> bytes:
    """Bigint bit-packing: pairwise-merge values into one int, then dump.

    The merge tree does 255 small-int shifts/ors instead of 256 iterations
    of the reference's per-byte accumulator loop.
    """
    mask = (1 << d) - 1
    vals = [v & mask for v in values]
    width = d
    while len(vals) > 1:
        if len(vals) & 1:
            vals.append(0)
        vals = [vals[i] | (vals[i + 1] << width) for i in range(0, len(vals), 2)]
        width *= 2
    # pqtls: allow[CT001] — emptiness guard on list length, not coefficients
    acc = vals[0] if vals else 0
    return acc.to_bytes((d * len(values) + 7) // 8, "little")


def unpack_bits(data: bytes, d: int, count: int = N) -> list[int]:
    """Inverse of :func:`pack_bits` via single-bigint field extraction."""
    if 8 * len(data) < d * count:  # pqtls: allow[CT001] — public shape check
        raise ValueError("unpack_bits: not enough data")
    mask = (1 << d) - 1
    acc = int.from_bytes(data, "little")
    return [(acc >> (d * i)) & mask for i in range(count)]
