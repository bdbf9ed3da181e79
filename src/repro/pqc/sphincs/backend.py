"""Tweakable-hash backends for SPHINCS+ ('simple' constructions).

Two backends, matching the paper's variants:

- :class:`HarakaBackend` — the ``sphincs-haraka-*f-simple`` family the paper
  benchmarks as its fastest SPHINCS+ configuration. The Haraka permutation
  is keyed with the public seed (round constants derived from it), inputs
  that fit one 64-byte block use Haraka-512, larger inputs the HarakaS
  sponge.
- :class:`ShakeBackend` — the ``sphincs-shake*`` family; much simpler and
  the faster option in pure Python (hashlib does the permutation in C).
"""

from __future__ import annotations

import hashlib

from repro.crypto.haraka import Haraka, haraka_keyed
from repro.pqc.sphincs.address import Adrs


class ShakeBackend:
    """SHAKE-256 tweakable hashes (sphincs-shake-*-simple)."""

    name = "shake"

    def __init__(self, n: int):
        self.n = n
        self._pk_seed = b""

    def set_pk_seed(self, pk_seed: bytes) -> None:
        self._pk_seed = pk_seed

    def thash(self, adrs: Adrs, data: bytes) -> bytes:
        return hashlib.shake_256(self._pk_seed + adrs.to_bytes() + data).digest(self.n)

    def prf(self, sk_seed: bytes, adrs: Adrs) -> bytes:
        return hashlib.shake_256(self._pk_seed + adrs.to_bytes() + sk_seed).digest(self.n)

    def prf_msg(self, sk_prf: bytes, opt_rand: bytes, message: bytes) -> bytes:
        return hashlib.shake_256(sk_prf + opt_rand + message).digest(self.n)

    def h_msg(self, r: bytes, pk_root: bytes, message: bytes, outlen: int) -> bytes:
        return hashlib.shake_256(r + self._pk_seed + pk_root + message).digest(outlen)


class HarakaBackend:
    """Haraka v2 tweakable hashes (sphincs-haraka-*f-simple)."""

    name = "haraka"

    def __init__(self, n: int):
        if n > 32:
            raise ValueError("Haraka backend supports n <= 32")
        self.n = n
        self._keyed: Haraka | None = None
        self._pk_seed = b""

    def set_pk_seed(self, pk_seed: bytes) -> None:
        self._pk_seed = pk_seed
        self._keyed = haraka_keyed(pk_seed)

    def _instance(self) -> Haraka:
        if self._keyed is None:
            raise RuntimeError("backend not keyed: call set_pk_seed first")
        return self._keyed

    def thash(self, adrs: Adrs, data: bytes) -> bytes:
        haraka = self._instance()
        total = adrs.to_bytes() + data
        if len(total) == 64:
            return haraka.haraka512(total)[: self.n]
        if len(total) < 64:
            return haraka.haraka512(total.ljust(64, b"\x00"))[: self.n]
        return haraka.haraka_sponge(total, self.n)

    def prf(self, sk_seed: bytes, adrs: Adrs) -> bytes:
        haraka = self._instance()
        block = (adrs.to_bytes() + sk_seed).ljust(64, b"\x00")[:64]
        return haraka.haraka512(block)[: self.n]

    def prf_msg(self, sk_prf: bytes, opt_rand: bytes, message: bytes) -> bytes:
        return self._instance().haraka_sponge(sk_prf + opt_rand + message, self.n)

    def h_msg(self, r: bytes, pk_root: bytes, message: bytes, outlen: int) -> bytes:
        return self._instance().haraka_sponge(r + pk_root + message, outlen)


def make_backend(kind: str, n: int):
    if kind == "shake":
        return ShakeBackend(n)
    if kind == "haraka":
        return HarakaBackend(n)
    raise ValueError(f"unknown SPHINCS+ backend {kind!r}")
