"""Shortened Reed–Solomon codes over GF(256): HQC's outer code.

Systematic encoding, and decoding via syndromes → Berlekamp–Massey →
Chien search → Forney, correcting up to ``delta`` symbol errors.

The stages every handshake runs (encode LFSR, syndromes) live in
module-level functions so ``PQTLS_KERNELS=fast`` (default) can swap
them for the table-gather kernels in ``repro.crypto.kernels.hqc``; the
class calls them as module globals so rebinding takes effect. The
correcting path behind a nonzero syndrome (Berlekamp–Massey, Chien
search, Forney) runs only on decode errors and has no fast twin.
"""

from __future__ import annotations

import sys

from repro.pqc.hqc.gf256 import gf_div, gf_mul, gf_pow, poly_eval, poly_mul


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    size = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0)
        for i in range(size)
    ]


def _poly_deriv(p: list[int]) -> list[int]:
    """Formal derivative in characteristic 2: keep odd-degree terms."""
    return [p[i] if i % 2 == 1 else 0 for i in range(1, len(p))]


def rs_encode(message: bytes, gen: list[int], n: int, k: int) -> bytes:
    """Systematic RS encoding: codeword = parity || message (degree order)."""
    parity_len = n - k
    remainder = [0] * parity_len + list(message)
    for i in range(n - 1, parity_len - 1, -1):
        coeff = remainder[i]
        if coeff:
            shift = i - (len(gen) - 1)
            for j, gj in enumerate(gen):
                remainder[shift + j] ^= gf_mul(coeff, gj)
    return bytes(remainder[:parity_len]) + message


def rs_syndromes(word: list[int], delta: int) -> list[int]:
    """Evaluate the received word at alpha^1 .. alpha^(2*delta)."""
    return [poly_eval(word, gf_pow(2, i)) for i in range(1, 2 * delta + 1)]


def rs_chien(sigma: list[int], n: int) -> list[int]:
    """Positions p in 0..n-1 with sigma(alpha^-p) == 0, ascending."""
    return [
        pos for pos in range(n)
        if poly_eval(sigma, gf_pow(2, (255 - pos) % 255)) == 0
    ]


class ReedSolomon:
    """[n, k] shortened RS code with design distance 2*delta + 1."""

    def __init__(self, n: int, k: int):
        if n - k <= 0 or (n - k) % 2:
            raise ValueError("n - k must be a positive even number")
        if n > 255:
            raise ValueError("RS over GF(256) needs n <= 255")
        self.n = n
        self.k = k
        self.delta = (n - k) // 2
        # generator polynomial: product of (x + alpha^i), i = 1..2*delta
        g = [1]
        for i in range(1, 2 * self.delta + 1):
            g = poly_mul(g, [gf_pow(2, i), 1])
        self._gen = g

    def encode(self, message: bytes) -> bytes:
        """Systematic encoding: codeword = parity || message (degree order)."""
        if len(message) != self.k:
            raise ValueError(f"message must be {self.k} bytes")
        return rs_encode(bytes(message), self._gen, self.n, self.k)

    def _syndromes(self, codeword) -> list[int]:
        return rs_syndromes(list(codeword), self.delta)

    def decode(self, received: bytes) -> bytes:
        """Correct up to delta symbol errors; return the message part.

        Raises ValueError when the error weight exceeds the decoding radius.
        """
        if len(received) != self.n:
            raise ValueError(f"received word must be {self.n} bytes")
        syndromes = self._syndromes(received)
        if not any(syndromes):
            return bytes(received[self.n - self.k:])

        # Berlekamp–Massey
        sigma = [1]
        prev = [1]
        length = 0
        gap = 1
        b = 1
        for i, s in enumerate(syndromes):
            d = s
            for j in range(1, length + 1):
                if j < len(sigma):
                    d ^= gf_mul(sigma[j], syndromes[i - j])
            if d == 0:
                gap += 1
                continue
            correction = [0] * gap + [gf_mul(gf_div(d, b), c) for c in prev]
            if 2 * length <= i:
                prev, sigma = sigma, _poly_add(sigma, correction)
                length = i + 1 - length
                b = d
                gap = 1
            else:
                sigma = _poly_add(sigma, correction)
                gap += 1
        while len(sigma) > 1 and sigma[-1] == 0:
            sigma.pop()
        num_errors = len(sigma) - 1
        if num_errors > self.delta:
            raise ValueError("too many errors for RS decoder")

        # Chien search: roots of sigma are inverse error locators alpha^-pos
        positions = rs_chien(sigma, self.n)
        if len(positions) != num_errors:
            raise ValueError("error locator does not split (decoding failure)")

        # Forney error values (narrow-sense code, b = 1)
        omega = poly_mul(syndromes, sigma)[: 2 * self.delta]
        sigma_deriv = _poly_deriv(sigma)
        corrected = bytearray(received)
        for pos in positions:
            x_inv = gf_pow(2, (255 - pos) % 255)
            denominator = poly_eval(sigma_deriv, x_inv)
            if denominator == 0:
                raise ValueError("Forney denominator vanished (decoding failure)")
            magnitude = gf_div(poly_eval(omega, x_inv), denominator)
            corrected[pos] ^= magnitude
        if any(self._syndromes(corrected)):
            raise ValueError("residual syndrome after correction")
        return bytes(corrected[self.n - self.k:])


from repro.crypto import kernels as _kernels  # noqa: E402
from repro.crypto.kernels import hqc as _fast  # noqa: E402

_kernels.bind(sys.modules[__name__], "rs_encode",
              ref=rs_encode, fast=_fast.rs_encode)
_kernels.bind(sys.modules[__name__], "rs_syndromes",
              ref=rs_syndromes, fast=_fast.rs_syndromes)
