"""Haraka v2 short-input hashing: Haraka-512 and the HarakaS sponge.

The paper's fastest SPHINCS+ variant is ``sphincs-haraka-128f-simple``;
Haraka v2 is a 5-round AES-based permutation designed for exactly this
short-input use. Every SPHINCS+ construction here runs on the 512-bit
permutation (Haraka-512 for the tweakable hashes, the HarakaS sponge for
H_msg, PRF_msg and the seed-keyed constants), so Haraka-256 is not
implemented. Round constants are generated from the digits of pi as in
the Haraka v2 reference implementation (the "RC_i" constants are the first
40×16 bytes of pi's fractional part in hex).

SPHINCS+ additionally keys Haraka with the public seed by XORing the seed
expansion into the round constants; :func:`haraka_keyed` provides that.
"""

from __future__ import annotations

# The Haraka v2 reference derives its 40 sixteen-byte round constants from
# the digits of pi. We generate ours from SHAKE-128 over a fixed label —
# a documented substitution (DESIGN.md): the constants are arbitrary public
# nothing-up-my-sleeve values; every structural property SPHINCS+ relies on
# (fixed public permutation, no symmetry) is preserved, but outputs differ
# from the official Haraka test vectors.
import hashlib as _hashlib

_RC_STREAM = _hashlib.shake_128(b"repro Haraka v2 round constants").digest(40 * 16)
RC = [_RC_STREAM[16 * i: 16 * (i + 1)] for i in range(40)]

# Word-level reference path: states are lists of big-endian 32-bit column
# words (4 words per 16-byte AES block), permuted with the shared T-tables.
# The fast twin (repro.crypto.kernels.haraka) compiles each round-constant
# set into a fully unrolled straight-line permutation instead.
from repro.crypto._aestables import TE0 as _T0, TE1 as _T1, TE2 as _T2, TE3 as _T3


def _words(data: bytes) -> list[int]:
    return [int.from_bytes(data[4 * i: 4 * i + 4], "big") for i in range(len(data) // 4)]


def _bytes_from_words(words: list[int]) -> bytes:
    return b"".join(w.to_bytes(4, "big") for w in words)


def _aes_round_words(s: list[int], off: int, rc: list[int], rc_off: int) -> None:
    """One AES round on the 4 words s[off:off+4], in place."""
    s0, s1, s2, s3 = s[off], s[off + 1], s[off + 2], s[off + 3]
    s[off] = (_T0[(s0 >> 24) & 0xFF] ^ _T1[(s1 >> 16) & 0xFF]
              ^ _T2[(s2 >> 8) & 0xFF] ^ _T3[s3 & 0xFF] ^ rc[rc_off])
    s[off + 1] = (_T0[(s1 >> 24) & 0xFF] ^ _T1[(s2 >> 16) & 0xFF]
                  ^ _T2[(s3 >> 8) & 0xFF] ^ _T3[s0 & 0xFF] ^ rc[rc_off + 1])
    s[off + 2] = (_T0[(s2 >> 24) & 0xFF] ^ _T1[(s3 >> 16) & 0xFF]
                  ^ _T2[(s0 >> 8) & 0xFF] ^ _T3[s1 & 0xFF] ^ rc[rc_off + 2])
    s[off + 3] = (_T0[(s3 >> 24) & 0xFF] ^ _T1[(s0 >> 16) & 0xFF]
                  ^ _T2[(s1 >> 8) & 0xFF] ^ _T3[s2 & 0xFF] ^ rc[rc_off + 3])


_MIX512_ORDER = [3, 11, 7, 15, 8, 0, 12, 4, 9, 1, 13, 5, 2, 10, 6, 14]


class Haraka:
    """Haraka v2 permutations with optional custom round constants."""

    def __init__(self, round_constants: list[bytes] | None = None):
        self._rc = round_constants if round_constants is not None else RC
        if len(self._rc) < 40:
            raise ValueError("Haraka needs 40 round constants")
        # Flattened word-form round constants for the reference permutation.
        self._rcw = _words(b"".join(self._rc[:40]))

    def haraka512_perm(self, data: bytes) -> bytes:
        """The raw 64-byte Haraka-512 permutation (no feed-forward)."""
        if len(data) != 64:
            raise ValueError("Haraka-512 input must be 64 bytes")
        s = _words(data)
        rcw = self._rcw
        for r in range(5):
            base = 32 * r
            _aes_round_words(s, 0, rcw, base)
            _aes_round_words(s, 0, rcw, base + 4)
            _aes_round_words(s, 4, rcw, base + 8)
            _aes_round_words(s, 4, rcw, base + 12)
            _aes_round_words(s, 8, rcw, base + 16)
            _aes_round_words(s, 8, rcw, base + 20)
            _aes_round_words(s, 12, rcw, base + 24)
            _aes_round_words(s, 12, rcw, base + 28)
            s = [s[i] for i in _MIX512_ORDER]
        return _bytes_from_words(s)

    def _haraka512_ref(self, data: bytes) -> bytes:
        """64-byte → 32-byte Haraka-512 (permutation, feed-forward, truncation)."""
        permuted = self.haraka512_perm(data)
        mixed = bytes(a ^ b for a, b in zip(permuted, data))
        # Truncation: bytes 8..15 and 24..31 of each 32-byte half? The spec
        # keeps words 2,3,6,7,8,9,12,13 (4-byte words).
        words = [mixed[4 * i: 4 * i + 4] for i in range(16)]
        keep = [2, 3, 6, 7, 8, 9, 12, 13]
        return b"".join(words[i] for i in keep)

    def _haraka512_fast(self, data: bytes) -> bytes:
        if len(data) != 64:
            raise ValueError("Haraka-512 input must be 64 bytes")
        permuted = _fast.perm512_for(self)(data)
        mixed = int.from_bytes(permuted, "big") ^ int.from_bytes(data, "big")
        out = mixed.to_bytes(64, "big")
        # words 2,3 | 6,7,8,9 | 12,13 of the feed-forward result
        return out[8:16] + out[24:40] + out[48:56]

    def _haraka_sponge_fast(self, data: bytes, outlen: int) -> bytes:
        perm512 = _fast.perm512_for(self)
        rate = 32
        padded = data + b"\x1f"
        padded += b"\x00" * ((-len(padded)) % rate)
        padded = padded[:-1] + bytes([padded[-1] | 0x80])
        state = b"\x00" * 64
        for i in range(0, len(padded), rate):
            block = padded[i: i + rate]
            head = int.from_bytes(block, "big") ^ int.from_bytes(state[:rate], "big")
            state = perm512(head.to_bytes(rate, "big") + state[rate:])
        out = state[:rate]
        while len(out) < outlen:
            state = perm512(state)
            out += state[:rate]
        return out[:outlen]

    def _haraka_sponge_ref(self, data: bytes, outlen: int) -> bytes:
        """HarakaS: a sponge over the 512-bit permutation, rate 32 bytes.

        SPHINCS+ uses this for variable-length hashing (H_msg, PRF_msg).
        """
        rate = 32
        # pad10*1 on the rate
        padded = data + b"\x1f"
        padded += b"\x00" * ((-len(padded)) % rate)
        padded = padded[:-1] + bytes([padded[-1] | 0x80])
        state = b"\x00" * 64
        for i in range(0, len(padded), rate):
            block = padded[i: i + rate]
            state = bytes(a ^ b for a, b in zip(block, state[:rate])) + state[rate:]
            state = self.haraka512_perm(state)
        out = b""
        while len(out) < outlen:
            out += state[:rate]
            if len(out) < outlen:
                state = self.haraka512_perm(state)
        return out[:outlen]


_DEFAULT = Haraka()


def haraka512(data: bytes) -> bytes:
    return _DEFAULT.haraka512(data)


def haraka_keyed(pub_seed: bytes) -> Haraka:
    """Haraka instance with round constants keyed by the SPHINCS+ public seed.

    Per the SPHINCS+ spec, the constants become ``HarakaS(pub_seed, 640)``
    split into 40 blocks, generated with the *default* constants.
    """
    stream = _DEFAULT.haraka_sponge(pub_seed, 40 * 16)
    return Haraka([stream[16 * i: 16 * (i + 1)] for i in range(40)])


from repro.crypto import kernels as _kernels  # noqa: E402
from repro.crypto.kernels import haraka as _fast  # noqa: E402

_kernels.bind(Haraka, "haraka512",
              ref=Haraka._haraka512_ref, fast=Haraka._haraka512_fast)
_kernels.bind(Haraka, "haraka_sponge",
              ref=Haraka._haraka_sponge_ref, fast=Haraka._haraka_sponge_fast)
