"""AES-GCM AEAD (NIST SP 800-38D) for TLS 1.3 record protection.

The reference GHASH is implemented over GF(2^128) with the reflected
reduction polynomial ``x^128 + x^7 + x^2 + x + 1`` using a bit-serial
carry-less multiply — simple and obviously correct. The fast twin in
``repro.crypto.kernels.gcm`` replaces it with per-key byte tables
(``PQTLS_KERNELS`` selects; outputs are byte-identical).
"""

from __future__ import annotations

import sys

from repro.crypto.aes import AES

_R = 0xE1000000000000000000000000000000


def gf_mul(x: int, y: int) -> int:
    """Carry-less multiply in GF(2^128) with GCM's reflected bit order."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


class _Ghash:
    def __init__(self, h: bytes):
        self._h = int.from_bytes(h, "big")
        self._acc = 0

    def update_block(self, block: bytes) -> None:
        self._acc = gf_mul(self._acc ^ int.from_bytes(block, "big"), self._h)

    def update(self, data: bytes) -> None:
        for i in range(0, len(data), 16):
            self.update_block(data[i: i + 16].ljust(16, b"\x00"))

    def digest(self) -> bytes:
        return self._acc.to_bytes(16, "big")


def _inc32(block: bytes) -> bytes:
    counter = (int.from_bytes(block[12:], "big") + 1) & 0xFFFFFFFF
    return block[:12] + counter.to_bytes(4, "big")


class AesGcm:
    """AES-GCM with 12-byte nonces and 16-byte tags (the TLS 1.3 shape)."""

    TAG_LEN = 16

    def __init__(self, key: bytes):
        self._aes = AES(key)
        self._h = self._aes.encrypt_block(b"\x00" * 16)

    def _ctr_ref(self, initial: bytes, data: bytes) -> bytes:
        out = bytearray()
        counter_block = initial
        for i in range(0, len(data), 16):
            counter_block = _inc32(counter_block)
            keystream = self._aes.encrypt_block(counter_block)
            chunk = data[i: i + 16]
            out.extend(a ^ b for a, b in zip(chunk, keystream))
        return bytes(out)

    def _ctr_fast(self, initial: bytes, data: bytes) -> bytes:
        # Same keystream, generated in one kernel pass from inc32(initial)
        # and XORed in one bigint operation instead of a per-byte generator.
        if not data:
            return b""
        first = int.from_bytes(initial[12:], "big") + 1
        stream = _fast_aes.ctr_keystream(
            self._aes, initial[:12], first, (len(data) + 15) // 16)[:len(data)]
        xored = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        return xored.to_bytes(len(data), "big")

    def _tag(self, j0: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        ghash = _Ghash(self._h)
        ghash.update(aad)
        ghash.update(ciphertext)
        ghash.update_block(
            (8 * len(aad)).to_bytes(8, "big") + (8 * len(ciphertext)).to_bytes(8, "big")
        )
        s = ghash.digest()
        ek = self._aes.encrypt_block(j0)
        return bytes(a ^ b for a, b in zip(s, ek))

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || tag."""
        if len(nonce) != 12:
            raise ValueError("GCM nonce must be 12 bytes")
        j0 = nonce + b"\x00\x00\x00\x01"
        ciphertext = self._ctr(j0, plaintext)
        return ciphertext + self._tag(j0, aad, ciphertext)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raise ValueError on failure."""
        if len(nonce) != 12:
            raise ValueError("GCM nonce must be 12 bytes")
        if len(data) < self.TAG_LEN:
            raise ValueError("ciphertext shorter than the tag")
        ciphertext, tag = data[: -self.TAG_LEN], data[-self.TAG_LEN:]
        j0 = nonce + b"\x00\x00\x00\x01"
        expected = self._tag(j0, aad, ciphertext)
        diff = 0
        for a, b in zip(expected, tag):
            diff |= a ^ b
        if diff:
            raise ValueError("GCM tag verification failed")
        return self._ctr(j0, ciphertext)


from repro.crypto import kernels as _kernels  # noqa: E402
from repro.crypto.kernels import aes as _fast_aes  # noqa: E402
from repro.crypto.kernels import gcm as _fast  # noqa: E402

_kernels.bind(sys.modules[__name__], "_Ghash", ref=_Ghash, fast=_fast.Ghash)
_kernels.bind(AesGcm, "_ctr", ref=AesGcm._ctr_ref, fast=AesGcm._ctr_fast)
