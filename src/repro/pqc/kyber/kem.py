"""Kyber IND-CCA2 KEM (round-3 spec): K-PKE + Fujisaki–Okamoto transform.

Two symmetric-primitive suites, exactly as the paper measures them:

- standard: XOF=SHAKE-128, PRF=SHAKE-256, H=SHA3-256, G=SHA3-512,
  KDF=SHAKE-256;
- ``90s``: AES-256-CTR as XOF/PRF and SHA-2 as H/G/KDF (the variants the
  paper reports as ``kyber90s*``, measurably faster on AES-NI hardware).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto import aes, kernels as _kernels
from repro.crypto.constanttime import ct_eq_bytes, ct_select_bytes
from repro.crypto.drbg import Drbg
from repro.pqc.kem import Kem
from repro.pqc.kyber import poly
from repro.pqc.kyber.poly import N, XofStream


@dataclass(frozen=True)
class _Params:
    k: int
    eta1: int
    eta2: int
    du: int
    dv: int


_PARAM_SETS = {
    512: _Params(k=2, eta1=3, eta2=2, du=10, dv=4),
    768: _Params(k=3, eta1=2, eta2=2, du=10, dv=4),
    1024: _Params(k=4, eta1=2, eta2=2, du=11, dv=5),
}

_SS_LEN = 32


class _Symmetric:
    """The SHAKE/SHA-3 suite."""

    @staticmethod
    def xof(seed: bytes, i: int, j: int) -> XofStream:
        base = hashlib.shake_128(seed + bytes([i, j]))
        return XofStream(lambda ctr, b=base: b.copy().digest(168 * (ctr + 1))[168 * ctr:])

    @staticmethod
    def prf(seed: bytes, nonce: int, outlen: int) -> bytes:
        return hashlib.shake_256(seed + bytes([nonce])).digest(outlen)

    @staticmethod
    def h(data: bytes) -> bytes:
        return hashlib.sha3_256(data).digest()

    @staticmethod
    def g(data: bytes) -> bytes:
        return hashlib.sha3_512(data).digest()

    @staticmethod
    def kdf(data: bytes) -> bytes:
        return hashlib.shake_256(data).digest(_SS_LEN)


class _Symmetric90s:
    """The AES/SHA-2 suite of the 90s variants.

    ``xof`` is a kernel switch point (bound at the bottom of the file):
    the reference regenerates the CTR keystream from counter zero for
    every 168-byte block, the fast twin keeps an incremental block
    source that encrypts only the blocks each chunk overlaps. Both
    yield the same stream bytes.
    """

    @staticmethod
    def _xof_ref(seed: bytes, i: int, j: int) -> XofStream:
        nonce = bytes([i, j]) + b"\x00" * 10
        return XofStream(
            lambda ctr: aes.aes_ctr_keystream(seed, nonce, 168 * (ctr + 1))[168 * ctr:]
        )

    @staticmethod
    def _xof_fast(seed: bytes, i: int, j: int) -> XofStream:
        return XofStream(aes.CtrBlockSource(seed, bytes([i, j]) + b"\x00" * 10))

    @staticmethod
    def prf(seed: bytes, nonce: int, outlen: int) -> bytes:
        return aes.aes_ctr_keystream(seed, bytes([nonce]) + b"\x00" * 11, outlen)

    @staticmethod
    def h(data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    @staticmethod
    def g(data: bytes) -> bytes:
        return hashlib.sha512(data).digest()

    @staticmethod
    def kdf(data: bytes) -> bytes:
        return hashlib.sha256(data).digest()


class KyberKem(Kem):
    """One Kyber parameter set behind the generic KEM interface."""

    def __init__(self, strength: int, *, nist_level: int, ninety_s: bool = False):
        params = _PARAM_SETS[strength]
        self._p = params
        self._sym = _Symmetric90s() if ninety_s else _Symmetric()
        self.name = f"kyber90s{strength}" if ninety_s else f"kyber{strength}"
        self.nist_level = nist_level
        self.public_key_bytes = 384 * params.k + 32
        self.ciphertext_bytes = 32 * (params.du * params.k + params.dv)
        self.shared_secret_bytes = _SS_LEN
        self._sk_pke_bytes = 384 * params.k

    # -- K-PKE -------------------------------------------------------------
    def _gen_matrix(self, rho: bytes, transpose: bool) -> list[list[list[int]]]:
        k = self._p.k
        matrix = []
        for i in range(k):
            row = []
            for j in range(k):
                idx = (i, j) if transpose else (j, i)
                row.append(poly.parse_uniform(self._sym.xof(rho, *idx)))
            matrix.append(row)
        return matrix

    def _sample_vec(self, seed: bytes, eta: int, nonce0: int) -> tuple[list[list[int]], int]:
        vec = []
        nonce = nonce0
        for _ in range(self._p.k):
            vec.append(poly.cbd(self._sym.prf(seed, nonce, 64 * eta), eta))
            nonce += 1
        return vec, nonce

    def _pke_keygen(self, d: bytes) -> tuple[bytes, bytes]:
        seed = self._sym.g(d)
        rho, sigma = seed[:32], seed[32:]
        a_hat = self._gen_matrix(rho, transpose=False)
        s, nonce = self._sample_vec(sigma, self._p.eta1, 0)
        e, _ = self._sample_vec(sigma, self._p.eta1, nonce)
        s_hat = [poly.ntt(p) for p in s]
        e_hat = [poly.ntt(p) for p in e]
        t_hat = []
        for i in range(self._p.k):
            acc = [0] * N
            for j in range(self._p.k):
                acc = poly.poly_add(acc, poly.basemul(a_hat[i][j], s_hat[j]))
            t_hat.append(poly.poly_add(acc, e_hat[i]))
        pk = b"".join(poly.pack_bits(p, 12) for p in t_hat) + rho
        sk = b"".join(poly.pack_bits(p, 12) for p in s_hat)
        return pk, sk

    def _pke_encrypt(self, pk: bytes, message: bytes, coins: bytes) -> bytes:
        p = self._p
        t_hat = [poly.unpack_bits(pk[384 * i: 384 * (i + 1)], 12) for i in range(p.k)]
        rho = pk[384 * p.k:]
        at_hat = self._gen_matrix(rho, transpose=True)
        r, nonce = self._sample_vec(coins, p.eta1, 0)
        e1, nonce = self._sample_vec(coins, p.eta2, nonce)
        e2 = poly.cbd(self._sym.prf(coins, nonce, 64 * p.eta2), p.eta2)
        r_hat = [poly.ntt(x) for x in r]
        u = []
        for i in range(p.k):
            acc = [0] * N
            for j in range(p.k):
                acc = poly.poly_add(acc, poly.basemul(at_hat[i][j], r_hat[j]))
            u.append(poly.poly_add(poly.intt(acc), e1[i]))
        acc = [0] * N
        for j in range(p.k):
            acc = poly.poly_add(acc, poly.basemul(t_hat[j], r_hat[j]))
        m_poly = poly.decompress(
            [(message[i // 8] >> (i % 8)) & 1 for i in range(N)], 1
        )
        v = poly.poly_add(poly.poly_add(poly.intt(acc), e2), m_poly)
        c1 = b"".join(poly.pack_bits(poly.compress(ui, p.du), p.du) for ui in u)
        c2 = poly.pack_bits(poly.compress(v, p.dv), p.dv)
        return c1 + c2

    def _pke_decrypt(self, sk: bytes, ciphertext: bytes) -> bytes:
        p = self._p
        du_bytes = 32 * p.du
        u = [
            poly.decompress(
                poly.unpack_bits(ciphertext[du_bytes * i: du_bytes * (i + 1)], p.du),
                p.du,
            )
            for i in range(p.k)
        ]
        v = poly.decompress(poly.unpack_bits(ciphertext[du_bytes * p.k:], p.dv), p.dv)
        s_hat = [poly.unpack_bits(sk[384 * i: 384 * (i + 1)], 12) for i in range(p.k)]
        acc = [0] * N
        for j in range(p.k):
            acc = poly.poly_add(acc, poly.basemul(s_hat[j], poly.ntt(u[j])))
        w = poly.poly_sub(v, poly.intt(acc))
        bits = poly.compress(w, 1)
        return bytes(
            sum(bits[8 * i + j] << j for j in range(8)) for i in range(32)
        )

    # -- CCA KEM (FO transform) ---------------------------------------------
    def keygen(self, drbg: Drbg) -> tuple[bytes, bytes]:
        d = drbg.random_bytes(32)
        z = drbg.random_bytes(32)
        pk, sk_pke = self._pke_keygen(d)
        sk = sk_pke + pk + self._sym.h(pk) + z
        return pk, sk

    def encaps(self, public_key: bytes, drbg: Drbg) -> tuple[bytes, bytes]:
        if len(public_key) != self.public_key_bytes:
            raise ValueError(f"{self.name}: bad public key length")
        m = self._sym.h(drbg.random_bytes(32))
        g_out = self._sym.g(m + self._sym.h(public_key))
        k_bar, coins = g_out[:32], g_out[32:]
        ciphertext = self._pke_encrypt(public_key, m, coins)
        shared = self._sym.kdf(k_bar + self._sym.h(ciphertext))
        return ciphertext, shared

    def decaps(self, secret_key: bytes, ciphertext: bytes) -> bytes:
        if len(ciphertext) != self.ciphertext_bytes:
            raise ValueError(f"{self.name}: bad ciphertext length")
        sk_pke = secret_key[: self._sk_pke_bytes]
        pk = secret_key[self._sk_pke_bytes: self._sk_pke_bytes + self.public_key_bytes]
        h_pk = secret_key[
            self._sk_pke_bytes + self.public_key_bytes:
            self._sk_pke_bytes + self.public_key_bytes + 32
        ]
        z = secret_key[self._sk_pke_bytes + self.public_key_bytes + 32:]
        m_prime = self._pke_decrypt(sk_pke, ciphertext)
        g_out = self._sym.g(m_prime + h_pk)
        k_bar, coins = g_out[:32], g_out[32:]
        c_prime = self._pke_encrypt(pk, m_prime, coins)
        # FO implicit rejection, branchlessly (the spec's verify + cmov):
        # both keys are derived, then selected on the comparison mask
        h_ct = self._sym.h(ciphertext)
        accept = self._sym.kdf(k_bar + h_ct)
        reject = self._sym.kdf(z + h_ct)
        return ct_select_bytes(ct_eq_bytes(c_prime, ciphertext), accept, reject)


_kernels.bind(_Symmetric90s, "xof",
              ref=_Symmetric90s.__dict__["_xof_ref"],
              fast=_Symmetric90s.__dict__["_xof_fast"])

KYBER512 = KyberKem(512, nist_level=1)
KYBER768 = KyberKem(768, nist_level=3)
KYBER1024 = KyberKem(1024, nist_level=5)
KYBER90S512 = KyberKem(512, nist_level=1, ninety_s=True)
KYBER90S768 = KyberKem(768, nist_level=3, ninety_s=True)
KYBER90S1024 = KyberKem(1024, nist_level=5, ninety_s=True)
