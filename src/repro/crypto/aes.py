"""AES-128/192/256 from scratch (FIPS 197), plus CTR mode.

The S-box and T-tables are derived programmatically in
``repro.crypto._aestables``. The reference ``encrypt_block`` here walks
the FIPS 197 state array transform by transform (SubBytes, ShiftRows,
MixColumns, AddRoundKey) so it reads like the spec; the fast twin in
``repro.crypto.kernels.aes`` is the 32-bit T-table formulation. Both are
byte-for-byte equivalent; ``PQTLS_KERNELS`` picks the active one.

Only the forward cipher is implemented: every mode this repository needs
(CTR for Kyber-90s/Dilithium-AES XOFs, GCM for TLS records, Haraka's AES
rounds) runs the block cipher forward.
"""

from __future__ import annotations

import functools
import sys

from repro.crypto._aestables import INV_SBOX, RCON as _RCON
from repro.crypto._aestables import SBOX, TE0 as _TE0, TE1 as _TE1, TE2 as _TE2, TE3 as _TE3

__all__ = ["AES", "INV_SBOX", "SBOX", "aes_round",
           "aes_ctr_keystream", "aes_ctr_xor", "cached_cipher"]


class AES:
    """The raw AES block cipher for 128/192/256-bit keys."""

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24 or 32 bytes")
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list[int]:
        nk = len(key) // 4
        words = [int.from_bytes(key[4 * i: 4 * i + 4], "big") for i in range(nk)]
        total = 4 * (self.rounds + 1)
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def _encrypt_block_ref(self, block: bytes) -> bytes:
        """FIPS 197 reference cipher: explicit per-transform state walk.

        The state is 16 bytes in column-major order (``state[4c + r]`` is
        row *r* of column *c*), exactly the spec's layout. This is the
        correctness oracle for the T-table kernel.
        """
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        rk = self._round_keys

        def add_round_key(state: list[int], round_index: int) -> list[int]:
            out = []
            for c in range(4):
                word = rk[4 * round_index + c]
                out += [state[4 * c] ^ (word >> 24) & 0xFF,
                        state[4 * c + 1] ^ (word >> 16) & 0xFF,
                        state[4 * c + 2] ^ (word >> 8) & 0xFF,
                        state[4 * c + 3] ^ word & 0xFF]
            return out

        def shift_rows(state: list[int]) -> list[int]:
            # Row r rotates left by r: new column c takes row r's byte
            # from column (c + r) mod 4.
            return [state[4 * ((c + r) % 4) + r] for c in range(4) for r in range(4)]

        def mix_columns(state: list[int]) -> list[int]:
            out = []
            for c in range(4):
                a0, a1, a2, a3 = state[4 * c: 4 * c + 4]
                out += [_xtime(a0) ^ _xtime(a1) ^ a1 ^ a2 ^ a3,
                        a0 ^ _xtime(a1) ^ _xtime(a2) ^ a2 ^ a3,
                        a0 ^ a1 ^ _xtime(a2) ^ _xtime(a3) ^ a3,
                        _xtime(a0) ^ a0 ^ a1 ^ a2 ^ _xtime(a3)]
            return out

        state = add_round_key(list(block), 0)
        for round_index in range(1, self.rounds):
            state = [SBOX[b] for b in state]
            state = shift_rows(state)
            state = mix_columns(state)
            state = add_round_key(state, round_index)
        state = [SBOX[b] for b in state]
        state = shift_rows(state)
        state = add_round_key(state, self.rounds)
        return bytes(state)


def _xtime(value: int) -> int:
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def aes_round(state: bytes, round_key: bytes) -> bytes:
    """One unkeyed AES round (SubBytes, ShiftRows, MixColumns) + key XOR.

    This is the `AESENC` instruction semantics Haraka v2 is defined over.
    """
    if len(state) != 16 or len(round_key) != 16:
        raise ValueError("state and round key must be 16 bytes")
    cols = []
    for c in range(4):
        # Column c after ShiftRows pulls byte r from column (c + r) % 4.
        t = (_TE0[state[4 * c]]
             ^ _TE1[state[4 * ((c + 1) % 4) + 1]]
             ^ _TE2[state[4 * ((c + 2) % 4) + 2]]
             ^ _TE3[state[4 * ((c + 3) % 4) + 3]])
        cols.append(t ^ int.from_bytes(round_key[4 * c: 4 * c + 4], "big"))
    return b"".join(col.to_bytes(4, "big") for col in cols)


@functools.lru_cache(maxsize=256)
def cached_cipher(key: bytes) -> AES:
    """A memoized AES instance: skips re-running the key schedule.

    AES objects are immutable after construction, so sharing one per key
    is safe; the Kyber-90s XOF/PRF and GCM record layer hit the same few
    keys thousands of times per handshake.
    """
    return AES(key)


def aes_ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """AES-CTR keystream with a 12-byte nonce and 32-bit big-endian counter.

    *nonce* may also be several 12-byte nonces concatenated: the result
    is then each nonce's *length*-byte keystream, joined in nonce order
    (the batched rows of the Kyber-90s and Dilithium-AES expansions).
    """
    if len(nonce) == 0 or len(nonce) % 12:
        raise ValueError("CTR nonce must be 12 bytes (or several concatenated)")
    cipher = AES(key)
    streams = []
    for start in range(0, len(nonce), 12):
        blocks = []
        counter = 0
        while 16 * len(blocks) < length:
            blocks.append(cipher.encrypt_block(nonce[start: start + 12]
                                               + counter.to_bytes(4, "big")))
            counter += 1
        streams.append(b"".join(blocks)[:length])
    return b"".join(streams)


def _aes_ctr_keystream_fast(key: bytes, nonce: bytes, length: int) -> bytes:
    if len(nonce) == 0 or len(nonce) % 12:
        raise ValueError("CTR nonce must be 12 bytes (or several concatenated)")
    nblocks = (length + 15) // 16
    stream = _fast.ctr_keystream(cached_cipher(key), nonce, 0, nblocks)
    step = 16 * nblocks
    if length == step:  # whole blocks (also length 0): nothing to trim
        return stream
    return b"".join(stream[start: start + length]
                    for start in range(0, len(stream), step))


def aes_ctr_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt *data* under AES-CTR (the operation is an involution)."""
    stream = aes_ctr_keystream(key, nonce, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


from repro.crypto import kernels as _kernels  # noqa: E402
from repro.crypto.kernels import aes as _fast  # noqa: E402

_kernels.bind(AES, "encrypt_block",
              ref=AES._encrypt_block_ref, fast=_fast.encrypt_block)
_kernels.bind(sys.modules[__name__], "aes_ctr_keystream",
              ref=aes_ctr_keystream, fast=_aes_ctr_keystream_fast)
