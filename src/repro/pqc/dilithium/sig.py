"""Dilithium signature scheme (round-3 parameter sets 2/3/5 and AES variants).

Fiat–Shamir with aborts over module lattices. The wire sizes are
spec-exact (pk 1312/1952/2592 B, sig 2420/3293/4595 B) — these sizes are
what drives the paper's Table 2b data volumes and the Table 4 CWND
overflows. The AES variants replace the SHAKE-based expansion XOFs with
AES-256-CTR, mirroring the ``dilithium*_aes`` rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto import aes as _aes
from repro.crypto.drbg import Drbg
from repro.pqc.dilithium import poly
from repro.pqc.dilithium.poly import N, Q
from repro.pqc.sig import SignatureScheme


@dataclass(frozen=True)
class _Params:
    k: int
    l: int
    eta: int
    tau: int
    beta: int
    gamma1: int
    gamma2: int
    omega: int


_PARAM_SETS = {
    2: _Params(k=4, l=4, eta=2, tau=39, beta=78, gamma1=1 << 17,
               gamma2=(Q - 1) // 88, omega=80),
    3: _Params(k=6, l=5, eta=4, tau=49, beta=196, gamma1=1 << 19,
               gamma2=(Q - 1) // 32, omega=55),
    5: _Params(k=8, l=7, eta=2, tau=60, beta=120, gamma1=1 << 19,
               gamma2=(Q - 1) // 32, omega=75),
}

_MAX_SIGN_ITERS = 1000


def _shake256(data: bytes, outlen: int) -> bytes:
    return hashlib.shake_256(data).digest(outlen)


class _Xof:
    """SHAKE-based expansion (standard variants)."""

    @staticmethod
    def expand_a(rho: bytes, i: int, j: int, outlen: int) -> bytes:
        return hashlib.shake_128(rho + bytes([j, i])).digest(outlen)

    @staticmethod
    def expand_s(rho_prime: bytes, nonce: int, outlen: int) -> bytes:
        return _shake256(rho_prime + nonce.to_bytes(2, "little"), outlen)

    @staticmethod
    def expand_mask(rho_prime: bytes, nonce: int, outlen: int) -> bytes:
        return _shake256(rho_prime + nonce.to_bytes(2, "little"), outlen)


class _XofAes:
    """AES-256-CTR expansion (the *_aes variants)."""

    @staticmethod
    def expand_a(rho: bytes, i: int, j: int, outlen: int) -> bytes:
        nonce = bytes([j, i]) + b"\x00" * 10
        # module-attr call so the cached-cipher fast twin can rebind
        return _aes.aes_ctr_keystream(rho, nonce, outlen)

    @staticmethod
    def expand_s(rho_prime: bytes, nonce: int, outlen: int) -> bytes:
        iv = nonce.to_bytes(2, "little") + b"\x00" * 10
        return _aes.aes_ctr_keystream(rho_prime[:32], iv, outlen)

    @staticmethod
    def expand_mask(rho_prime: bytes, nonce: int, outlen: int) -> bytes:
        iv = nonce.to_bytes(2, "little") + b"\x00" * 10
        return _aes.aes_ctr_keystream(rho_prime[:32], iv, outlen)


class DilithiumSignature(SignatureScheme):
    """One Dilithium parameter set behind the generic signature interface."""

    def __init__(self, level: int, *, aes: bool = False):
        p = _PARAM_SETS[level]
        self._p = p
        self._xof = _XofAes() if aes else _Xof()
        self.name = f"dilithium{level}_aes" if aes else f"dilithium{level}"
        self.nist_level = level
        self._zbits = 18 if p.gamma1 == (1 << 17) else 20
        self._etabits = 3 if p.eta == 2 else 4
        self._w1bits = 6 if p.gamma2 == (Q - 1) // 88 else 4
        self.public_key_bytes = 32 + 320 * p.k
        self.signature_bytes = 32 + (N * self._zbits // 8) * p.l + p.omega + p.k

    # -- sampling -----------------------------------------------------------
    def _expand_a(self, rho: bytes) -> list[list[list[int]]]:
        matrix = []
        for i in range(self._p.k):
            row = []
            for j in range(self._p.l):
                # Rejection-sample < q from 3-byte chunks (top bit cleared).
                # Re-expanding a longer stream replays the same prefix
                # (XOF), so chunked parsing is position-exact.
                coeffs: list[int] = []
                need = 3 * 340
                stream = self._xof.expand_a(rho, i, j, need)
                offset = 0
                while len(coeffs) < N:
                    if offset + 3 > len(stream):
                        need += 3 * 170
                        stream = self._xof.expand_a(rho, i, j, need)
                    got, used = poly.rej_uniform(stream[offset:], N - len(coeffs))
                    coeffs.extend(got)
                    offset += used
                row.append(coeffs)
            matrix.append(row)
        return matrix

    def _sample_eta(self, rho_prime: bytes, nonce: int) -> list[int]:
        coeffs: list[int] = []
        need = 192
        stream = self._xof.expand_s(rho_prime, nonce, need)
        offset = 0
        while len(coeffs) < N:
            if offset >= len(stream):
                need += 64
                stream = self._xof.expand_s(rho_prime, nonce, need)
            byte = stream[offset]
            offset += 1
            for nibble in (byte & 0x0F, byte >> 4):
                if len(coeffs) >= N:
                    break
                if self._p.eta == 2 and nibble < 15:
                    coeffs.append((2 - nibble % 5) % Q)
                elif self._p.eta == 4 and nibble < 9:
                    coeffs.append((4 - nibble) % Q)
        return coeffs

    def _sample_mask_poly(self, rho_prime: bytes, nonce: int) -> list[int]:
        bits = self._zbits
        data = self._xof.expand_mask(rho_prime, nonce, N * bits // 8)
        raw = poly.unpack_bits(data, bits)
        gamma1 = self._p.gamma1
        return [(gamma1 - t) % Q for t in raw]

    def _sample_in_ball(self, c_tilde: bytes) -> list[int]:
        # c_tilde is the published challenge hash (part of the signature);
        # the rejection sampling below is over public data
        stream = _shake256(c_tilde, 32 + self._p.tau * 4)
        signs = int.from_bytes(stream[:8], "little")
        c = [0] * N
        offset = 8
        for i in range(N - self._p.tau, N):
            while True:
                if offset >= len(stream):
                    stream += _shake256(c_tilde + b"x", 64)
                j = stream[offset]
                offset += 1
                if j <= i:
                    break
            c[i] = c[j]
            c[j] = (1 if signs & 1 == 0 else Q - 1)
            signs >>= 1
        return c

    # -- hint packing (spec encoding: positions + per-row cumulative) -------
    def _pack_hint(self, hints: list[list[int]]) -> bytes:
        out = bytearray(self._p.omega + self._p.k)
        index = 0
        for row, h in enumerate(hints):
            for pos, bit in enumerate(h):
                if bit:
                    out[index] = pos
                    index += 1
            out[self._p.omega + row] = index
        return bytes(out)

    def _unpack_hint(self, data: bytes) -> list[list[int]] | None:
        omega, k = self._p.omega, self._p.k
        hints = [[0] * N for _ in range(k)]
        index = 0
        for row in range(k):
            end = data[omega + row]
            if end < index or end > omega:
                return None
            prev = -1
            while index < end:
                pos = data[index]
                if pos <= prev:  # positions must be strictly increasing
                    return None
                prev = pos
                hints[row][pos] = 1
                index += 1
        if any(data[i] for i in range(index, omega)):  # zero padding enforced
            return None
        return hints

    # -- key generation -------------------------------------------------------
    def keygen(self, drbg: Drbg) -> tuple[bytes, bytes]:
        p = self._p
        zeta = drbg.random_bytes(32)
        seed = _shake256(zeta, 128)
        rho, rho_prime, key = seed[:32], seed[32:96], seed[96:]
        a_hat = self._expand_a(rho)
        s1 = [self._sample_eta(rho_prime, nonce) for nonce in range(p.l)]
        s2 = [self._sample_eta(rho_prime, nonce) for nonce in range(p.l, p.l + p.k)]
        s1_hat = poly.ntt_vec(s1)
        t = poly.add_vec(poly.intt_vec(poly.matvec_pointwise(a_hat, s1_hat)), s2)
        t1_rows, t0_rows = poly.power2round_vec(t)
        pk = rho + b"".join(poly.pack_bits(row, 10) for row in t1_rows)
        tr = _shake256(pk, 64)
        sk = (
            rho + key + tr
            + b"".join(poly.pack_bits([(p.eta - poly.centered(c)) for c in row],
                                      self._etabits) for row in s1)
            + b"".join(poly.pack_bits([(p.eta - poly.centered(c)) for c in row],
                                      self._etabits) for row in s2)
            + b"".join(poly.pack_bits([(1 << (poly.D - 1)) - lo for lo in row], 13)
                       for row in t0_rows)
        )
        return pk, sk

    def _parse_sk(self, sk: bytes):
        p = self._p
        rho, key, tr = sk[:32], sk[32:64], sk[64:128]
        off = 128
        eta_bytes = N * self._etabits // 8
        s1 = []
        for _ in range(p.l):
            raw = poly.unpack_bits(sk[off: off + eta_bytes], self._etabits)
            s1.append([(p.eta - v) % Q for v in raw])
            off += eta_bytes
        s2 = []
        for _ in range(p.k):
            raw = poly.unpack_bits(sk[off: off + eta_bytes], self._etabits)
            s2.append([(p.eta - v) % Q for v in raw])
            off += eta_bytes
        t0 = []
        t0_bytes = N * 13 // 8
        for _ in range(p.k):
            raw = poly.unpack_bits(sk[off: off + t0_bytes], 13)
            t0.append([((1 << (poly.D - 1)) - v) % Q for v in raw])
            off += t0_bytes
        return rho, key, tr, s1, s2, t0

    # -- signing ---------------------------------------------------------------
    def sign(self, secret_key: bytes, message: bytes, drbg: Drbg) -> bytes:
        p = self._p
        rho, key, tr, s1, s2, t0 = self._parse_sk(secret_key)
        a_hat = self._expand_a(rho)
        mu = _shake256(tr + message, 64)
        rho_prime = _shake256(key + drbg.random_bytes(32) + mu, 64)
        s1_hat = poly.ntt_vec(s1)
        s2_hat = poly.ntt_vec(s2)
        t0_hat = poly.ntt_vec(t0)
        alpha = 2 * p.gamma2
        for kappa in range(0, _MAX_SIGN_ITERS * p.l, p.l):
            y = [self._sample_mask_poly(rho_prime, kappa + i) for i in range(p.l)]
            y_hat = poly.ntt_vec(y)
            w = poly.intt_vec(poly.matvec_pointwise(a_hat, y_hat))
            w1 = poly.highbits_vec(w, alpha)
            w1_packed = b"".join(poly.pack_bits(row, self._w1bits) for row in w1)
            c_tilde = _shake256(mu + w1_packed, 32)
            c = self._sample_in_ball(c_tilde)
            c_hat = poly.ntt_vec([c])[0]
            z = poly.add_vec(y, poly.intt_vec(poly.pointwise_each(c_hat, s1_hat)))
            if poly.inf_norm_vec(z) >= p.gamma1 - p.beta:
                continue
            w_cs2 = poly.sub_vec(
                w, poly.intt_vec(poly.pointwise_each(c_hat, s2_hat))
            )
            # lowbits are centered already, so the vector inf-norm is their max |.|
            if poly.inf_norm_vec(poly.lowbits_vec(w_cs2, alpha)) >= p.gamma2 - p.beta:
                continue
            ct0 = poly.intt_vec(poly.pointwise_each(c_hat, t0_hat))
            if poly.inf_norm_vec(ct0) >= p.gamma2:
                continue
            hints = poly.make_hint_vec(
                poly.neg_vec(ct0), poly.add_vec(w_cs2, ct0), alpha
            )
            if sum(sum(row) for row in hints) > p.omega:
                continue
            z_packed = b"".join(
                poly.pack_bits([(p.gamma1 - poly.centered(cf)) % (2 * p.gamma1)
                                for cf in row], self._zbits)
                for row in z
            )
            return c_tilde + z_packed + self._pack_hint(hints)  # pqtls: allow[CT101] — hint positions are published in the signature encoding
        raise RuntimeError(f"{self.name}: signing did not converge")

    # -- verification ------------------------------------------------------------
    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        p = self._p
        if len(public_key) != self.public_key_bytes:
            return False
        if len(signature) != self.signature_bytes:
            return False
        rho = public_key[:32]
        t1 = []
        off = 32
        row_bytes = 320
        for _ in range(p.k):
            t1.append(poly.unpack_bits(public_key[off: off + row_bytes], 10))
            off += row_bytes
        c_tilde = signature[:32]
        z_bytes = N * self._zbits // 8
        z = []
        off = 32
        for _ in range(p.l):
            raw = poly.unpack_bits(signature[off: off + z_bytes], self._zbits)
            z.append([(p.gamma1 - v) % Q for v in raw])
            off += z_bytes
        hints = self._unpack_hint(signature[off:])
        if hints is None:
            return False
        if poly.inf_norm_vec(z) >= p.gamma1 - p.beta:
            return False
        a_hat = self._expand_a(rho)
        mu = _shake256(_shake256(public_key, 64) + message, 64)
        c = self._sample_in_ball(c_tilde)
        c_hat = poly.ntt_vec([c])[0]
        z_hat = poly.ntt_vec(z)
        alpha = 2 * p.gamma2
        t1_shifted = poly.ntt_vec([[v << poly.D for v in row] for row in t1])
        acc = poly.sub_vec(
            poly.matvec_pointwise(a_hat, z_hat),
            poly.pointwise_each(c_hat, t1_shifted),
        )
        w_approx = poly.intt_vec(acc)
        w1 = poly.use_hint_vec(hints, w_approx, alpha)
        w1_packed = b"".join(poly.pack_bits(row, self._w1bits) for row in w1)
        return _shake256(mu + w1_packed, 32) == c_tilde


DILITHIUM2 = DilithiumSignature(2)
DILITHIUM3 = DilithiumSignature(3)
DILITHIUM5 = DilithiumSignature(5)
DILITHIUM2_AES = DilithiumSignature(2, aes=True)
DILITHIUM3_AES = DilithiumSignature(3, aes=True)
DILITHIUM5_AES = DilithiumSignature(5, aes=True)
