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

import numpy as np

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

# ExpandA squeezes 272 3-byte chunks per entry up front (51 AES blocks):
# each chunk is rejected with probability ~2^-10, so an entry short of 256
# accepted coefficients (more than 16 rejections) is vanishingly rare; it
# is squeezed 170 chunks longer at a time.
_EXPAND_A_BYTES = 3 * 272
_EXPAND_A_STEP = 3 * 170


# ExpandS's first squeeze per row, by eta: 384 nibbles for eta=2 (15/16
# accepted), 640 for eta=4 (9/16 accepted), so rows rarely run short and
# are then squeezed 64 bytes longer at a time
_ETA_BYTES = {2: 192, 4: 320}


def _ball_bytes(tau: int) -> int:
    """SampleInBall's first squeeze: 8 sign bytes and room for the tau
    position draws with rejections (continued by a longer squeeze)."""
    return 32 + 4 * tau


def _shake256(data: bytes, outlen: int) -> bytes:
    return hashlib.shake_256(data).digest(outlen)


class _Xof:
    """SHAKE-based expansion (standard variants).

    Each method takes several stream indices and returns every stream's
    first *outlen* bytes, joined in order.
    """

    @staticmethod
    def expand_a(rho: bytes, pairs: list[tuple[int, int]], outlen: int) -> bytes:
        return b"".join(hashlib.shake_128(rho + bytes([j, i])).digest(outlen)
                        for i, j in pairs)

    @staticmethod
    def expand_s(rho_prime: bytes, nonces: range, outlen: int) -> bytes:
        return b"".join(_shake256(rho_prime + nonce.to_bytes(2, "little"), outlen)
                        for nonce in nonces)

    expand_mask = expand_s


class _XofAes:
    """AES-256-CTR expansion (the *_aes variants): one multi-nonce
    keystream call per matrix, per s1/s2 vector and per mask vector."""

    @staticmethod
    def expand_a(rho: bytes, pairs: list[tuple[int, int]], outlen: int) -> bytes:
        nonces = b"".join(bytes([j, i]) + b"\x00" * 10 for i, j in pairs)
        # module-attr call so the cached-cipher fast twin can rebind
        return _aes.aes_ctr_keystream(rho, nonces, outlen)

    @staticmethod
    def expand_s(rho_prime: bytes, nonces: range, outlen: int) -> bytes:
        ivs = b"".join(nonce.to_bytes(2, "little") + b"\x00" * 10 for nonce in nonces)
        return _aes.aes_ctr_keystream(rho_prime[:32], ivs, outlen)

    expand_mask = expand_s


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
    def _expand_a(self, rho: bytes) -> np.ndarray:
        """The (k, l, 256) NTT-domain matrix A.

        Every entry's first ``_EXPAND_A_BYTES`` are squeezed and filtered
        in one pass. An entry short of 256 coefficients is squeezed longer
        on its own and filtered again: the XOF replays the same prefix, so
        the continuation is position-exact.
        """
        k, l = self._p.k, self._p.l
        pairs = [(i, j) for i in range(k) for j in range(l)]
        rows, full = poly.rej_uniform_rows(
            self._xof.expand_a(rho, pairs, _EXPAND_A_BYTES), k * l)
        for r in np.flatnonzero(~full):
            length = _EXPAND_A_BYTES
            while not full[r]:
                length += _EXPAND_A_STEP
                row, done = poly.rej_uniform_rows(
                    self._xof.expand_a(rho, [pairs[r]], length), 1)
                rows[r], full[r] = row[0], done[0]
        return rows.reshape(k, l, N)

    def _sample_eta(self, rho_prime: bytes) -> np.ndarray:
        """s1 then s2: l + k rows from nonces 0, 1, ..., squeezed at once."""
        p = self._p
        count = p.l + p.k
        need = _ETA_BYTES[p.eta]
        data = self._xof.expand_s(rho_prime, range(count), need)
        rows = np.empty((count, N), dtype=np.int64)
        for nonce in range(count):
            stream = data[nonce * need: (nonce + 1) * need]
            length = need
            offset = filled = 0
            while filled < N:
                if offset >= len(stream):
                    length += 64
                    stream = self._xof.expand_s(rho_prime, range(nonce, nonce + 1), length)
                got, used = poly.rej_eta(stream[offset:], p.eta, N - filled)
                rows[nonce, filled: filled + len(got)] = got
                filled += len(got)
                offset += used
        return rows

    def _sample_mask(self, rho_prime: bytes, kappa: int) -> np.ndarray:
        """y: l polynomials with coefficients in (-gamma1, gamma1] (mod q)."""
        bits = self._zbits
        data = self._xof.expand_mask(rho_prime, range(kappa, kappa + self._p.l),
                                     N * bits // 8)
        return (self._p.gamma1 - poly.unpack_vec(data, bits, self._p.l)) % Q

    def _sample_in_ball(self, c_tilde: bytes) -> np.ndarray:
        # c_tilde is the published challenge hash (part of the signature);
        # the rejection sampling below is over public data
        length = _ball_bytes(self._p.tau)
        stream = _shake256(c_tilde, length)
        signs = int.from_bytes(stream[:8], "little")
        c = [0] * N
        offset = 8
        for i in range(N - self._p.tau, N):
            while True:
                if offset >= len(stream):
                    # keep squeezing the same SHAKE256 stream
                    length += 64
                    stream = _shake256(c_tilde, length)
                j = stream[offset]
                offset += 1
                if j <= i:
                    break
            c[i] = c[j]
            c[j] = (1 if signs & 1 == 0 else Q - 1)
            signs >>= 1
        return np.array(c, dtype=np.int64)

    # -- hint packing (spec encoding: positions + per-row cumulative) -------
    def _pack_hint(self, hints: np.ndarray) -> bytes:
        out = bytearray(self._p.omega + self._p.k)
        index = 0
        for row, h in enumerate(hints):
            positions = np.flatnonzero(h)
            out[index: index + len(positions)] = positions.astype(np.uint8).tobytes()
            index += len(positions)
            out[self._p.omega + row] = index
        return bytes(out)

    def _unpack_hint(self, data: bytes) -> np.ndarray | None:
        omega, k = self._p.omega, self._p.k
        hints = np.zeros((k, N), dtype=np.int64)
        index = 0
        for row in range(k):
            end = data[omega + row]
            if end < index or end > omega:
                return None
            positions = data[index:end]
            # positions must be strictly increasing
            if any(a >= b for a, b in zip(positions, positions[1:])):
                return None
            hints[row, list(positions)] = 1
            index = end
        if any(data[index:omega]):  # zero padding enforced
            return None
        return hints

    # -- key generation -------------------------------------------------------
    def keygen(self, drbg: Drbg) -> tuple[bytes, bytes]:
        p = self._p
        zeta = drbg.random_bytes(32)
        seed = _shake256(zeta, 128)
        rho, rho_prime, key = seed[:32], seed[32:96], seed[96:]
        a_hat = self._expand_a(rho)
        s = self._sample_eta(rho_prime)
        s1, s2 = s[:p.l], s[p.l:]
        t = poly.add_vec(poly.intt_vec(poly.matvec_pointwise(a_hat, poly.ntt_vec(s1))), s2)
        t1, t0 = poly.power2round_vec(t)
        pk = rho + poly.pack_vec(t1, 10)
        tr = _shake256(pk, 64)
        sk = (
            rho + key + tr
            + poly.pack_vec(p.eta - _centered(s), self._etabits)  # s1 then s2
            + poly.pack_vec((1 << (poly.D - 1)) - t0, 13)
        )
        return pk, sk

    def _parse_sk(self, sk: bytes):
        p = self._p
        rho, key, tr = sk[:32], sk[32:64], sk[64:128]
        off = 128
        eta_bytes = N * self._etabits // 8
        s1 = (p.eta - poly.unpack_vec(sk[off:], self._etabits, p.l)) % Q
        off += p.l * eta_bytes
        s2 = (p.eta - poly.unpack_vec(sk[off:], self._etabits, p.k)) % Q
        off += p.k * eta_bytes
        t0 = ((1 << (poly.D - 1)) - poly.unpack_vec(sk[off:], 13, p.k)) % Q
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
            y = self._sample_mask(rho_prime, kappa)
            y_hat = poly.ntt_vec(y)
            w = poly.intt_vec(poly.matvec_pointwise(a_hat, y_hat))
            w1 = poly.highbits_vec(w, alpha)
            c_tilde = _shake256(mu + poly.pack_vec(w1, self._w1bits), 32)
            c_hat = poly.ntt_vec(self._sample_in_ball(c_tilde)[None])[0]
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
            if int(hints.sum()) > p.omega:
                continue
            z_packed = poly.pack_vec(
                (p.gamma1 - _centered(z)) % (2 * p.gamma1), self._zbits)
            return c_tilde + z_packed + self._pack_hint(hints)  # pqtls: allow[CT103] — hint positions are published in the signature encoding
        raise RuntimeError(f"{self.name}: signing did not converge")

    # -- verification ------------------------------------------------------------
    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        p = self._p
        if len(public_key) != self.public_key_bytes:
            return False
        if len(signature) != self.signature_bytes:
            return False
        rho = public_key[:32]
        t1 = poly.unpack_vec(public_key[32:], 10, p.k)
        c_tilde = signature[:32]
        z_end = 32 + p.l * (N * self._zbits // 8)
        z = (p.gamma1 - poly.unpack_vec(signature[32:z_end], self._zbits, p.l)) % Q
        hints = self._unpack_hint(signature[z_end:])
        if hints is None:
            return False
        if poly.inf_norm_vec(z) >= p.gamma1 - p.beta:
            return False
        a_hat = self._expand_a(rho)
        mu = _shake256(_shake256(public_key, 64) + message, 64)
        c_hat = poly.ntt_vec(self._sample_in_ball(c_tilde)[None])[0]
        z_hat = poly.ntt_vec(z)
        alpha = 2 * p.gamma2
        t1_shifted = poly.ntt_vec(t1 << poly.D)
        acc = poly.sub_vec(
            poly.matvec_pointwise(a_hat, z_hat),
            poly.pointwise_each(c_hat, t1_shifted),
        )
        w1 = poly.use_hint_vec(hints, poly.intt_vec(acc), alpha)
        return _shake256(mu + poly.pack_vec(w1, self._w1bits), 32) == c_tilde


def _centered(rows: np.ndarray) -> np.ndarray:
    """Coefficients in [0, q) as representatives in (-q/2, q/2]."""
    return np.where(rows > Q // 2, rows - Q, rows)


DILITHIUM2 = DilithiumSignature(2)
DILITHIUM3 = DilithiumSignature(3)
DILITHIUM5 = DilithiumSignature(5)
DILITHIUM2_AES = DilithiumSignature(2, aes=True)
DILITHIUM3_AES = DilithiumSignature(3, aes=True)
DILITHIUM5_AES = DilithiumSignature(5, aes=True)
