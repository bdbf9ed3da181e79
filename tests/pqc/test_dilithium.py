"""Dilithium: rounding algebra, hints, codecs, signatures."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.crypto import kernels
from repro.crypto.drbg import Drbg
from repro.pqc.dilithium import (
    DILITHIUM2,
    DILITHIUM2_AES,
    DILITHIUM3,
    DILITHIUM5,
)
from repro.pqc.registry import get_sig
from repro.pqc.dilithium import poly, sig as dilithium_sig
from repro.pqc.dilithium.poly import D, N, Q

coeffs = st.integers(min_value=0, max_value=Q - 1)


@given(st.lists(coeffs, min_size=N, max_size=N))
def test_ntt_roundtrip(f):
    assert poly.intt(poly.ntt(f)) == f


def test_ntt_multiplication_matches_schoolbook():
    drbg = Drbg("dil-ntt")
    f = [drbg.randint_below(Q) for _ in range(N)]
    g = [drbg.randint_below(Q) for _ in range(N)]
    ref = [0] * N
    for i in range(N):
        for j in range(N):
            k = i + j
            if k < N:
                ref[k] = (ref[k] + f[i] * g[j]) % Q
            else:
                ref[k - N] = (ref[k - N] - f[i] * g[j]) % Q
    got = poly.intt(poly.pointwise(poly.ntt(f), poly.ntt(g)))
    assert got == ref


@given(coeffs)
def test_power2round_reconstruction(r):
    r1, r0 = poly.power2round(r)
    assert (r1 << D) + r0 == r % Q
    assert -(1 << (D - 1)) < r0 <= (1 << (D - 1))


@given(coeffs, st.sampled_from([2 * (Q - 1) // 88, 2 * (Q - 1) // 32]))
def test_decompose_reconstruction(r, alpha):
    r1, r0 = poly.decompose(r, alpha)
    assert (r1 * alpha + r0) % Q == r % Q
    assert abs(r0) <= alpha // 2 + 1
    assert 0 <= r1 < (Q - 1) // alpha


@given(coeffs, st.integers(min_value=-(Q - 1) // 88, max_value=(Q - 1) // 88),
       st.sampled_from([2 * (Q - 1) // 88, 2 * (Q - 1) // 32]))
def test_hint_recovers_highbits(r, z, alpha):
    """UseHint(MakeHint(z, r+... ), .) == HighBits(r + z): the core lemma."""
    if abs(z) > alpha // 2:
        return
    hint = poly.make_hint(z % Q, r, alpha)
    assert poly.use_hint(hint, r, alpha) == poly.highbits((r + z) % Q, alpha)


@given(st.lists(coeffs, min_size=4, max_size=4), st.sampled_from([3, 4, 13]))
def test_pack_unpack_roundtrip(values, bits):
    masked = [v & ((1 << bits) - 1) for v in values]
    assert poly.unpack_bits(poly.pack_bits(masked, bits), bits, count=4) == masked


def test_centered_and_norm():
    assert poly.centered(Q - 1) == -1
    assert poly.centered(1) == 1
    assert poly.inf_norm([1, Q - 5, 0]) == 5


@pytest.fixture(scope="module")
def d2_keypair():
    return DILITHIUM2.keygen(Drbg("d2-key"))


def test_sign_verify_roundtrip(d2_keypair):
    pk, sk = d2_keypair
    drbg = Drbg("d2-sign")
    sig = DILITHIUM2.sign(sk, b"message", drbg)
    assert len(sig) == DILITHIUM2.signature_bytes
    assert DILITHIUM2.verify(pk, b"message", sig)
    assert not DILITHIUM2.verify(pk, b"messagx", sig)


def test_tampered_signature_rejected(d2_keypair):
    pk, sk = d2_keypair
    sig = DILITHIUM2.sign(sk, b"m", Drbg("t"))
    for pos in (0, 100, len(sig) - 1):
        bad = sig[:pos] + bytes([sig[pos] ^ 1]) + sig[pos + 1:]
        assert not DILITHIUM2.verify(pk, b"m", bad)


def test_wrong_key_rejected(d2_keypair):
    pk, sk = d2_keypair
    other_pk, _ = DILITHIUM2.keygen(Drbg("other"))
    sig = DILITHIUM2.sign(sk, b"m", Drbg("w"))
    assert not DILITHIUM2.verify(other_pk, b"m", sig)


def test_randomized_signing(d2_keypair):
    pk, sk = d2_keypair
    drbg = Drbg("rand")
    s1 = DILITHIUM2.sign(sk, b"m", drbg)
    s2 = DILITHIUM2.sign(sk, b"m", drbg)
    assert s1 != s2 and DILITHIUM2.verify(pk, b"m", s1) and DILITHIUM2.verify(pk, b"m", s2)


def test_length_validation(d2_keypair):
    pk, sk = d2_keypair
    sig = DILITHIUM2.sign(sk, b"m", Drbg("l"))
    assert not DILITHIUM2.verify(pk, b"m", sig[:-1])
    assert not DILITHIUM2.verify(pk[:-1], b"m", sig)


def test_hint_packing_roundtrip_and_canonicality(d2_keypair):
    scheme = DILITHIUM2
    hints = np.zeros((scheme._p.k, N), dtype=np.int64)
    hints[0, 3] = hints[0, 250] = hints[2, 7] = 1
    packed = scheme._pack_hint(hints)
    assert len(packed) == scheme._p.omega + scheme._p.k
    assert packed[:3] == bytes([3, 250, 7])
    assert packed[scheme._p.omega:] == bytes([2, 2, 3, 3])
    assert np.array_equal(scheme._unpack_hint(packed), hints)
    # non-canonical encodings must be rejected
    corrupt = bytearray(packed)
    corrupt[scheme._p.omega] = scheme._p.omega + 1  # count beyond omega
    assert scheme._unpack_hint(bytes(corrupt)) is None
    corrupt = bytearray(packed)
    corrupt[5] = 60  # garbage in the zero-padding region (3 hints used)
    assert scheme._unpack_hint(bytes(corrupt)) is None


def test_sample_in_ball_shape():
    c = DILITHIUM2._sample_in_ball(b"\x07" * 32)
    nonzero = [x for x in c if x != 0]
    assert len(nonzero) == DILITHIUM2._p.tau
    assert all(x in (1, Q - 1) for x in nonzero)


def _sample_in_ball_one_digest(c_tilde: bytes, tau: int) -> list[int]:
    """SampleInBall over one long SHAKE256 digest (the spec's stream)."""
    stream = hashlib.shake_256(c_tilde).digest(4096)
    signs = int.from_bytes(stream[:8], "little")
    c, offset = [0] * N, 8
    for i in range(N - tau, N):
        while stream[offset] > i:
            offset += 1
        j = stream[offset]
        offset += 1
        c[i] = c[j]
        c[j] = 1 if signs & 1 == 0 else Q - 1
        signs >>= 1
    return c


@pytest.mark.parametrize("scheme", [DILITHIUM2, DILITHIUM5], ids=lambda s: s.name)
def test_sample_in_ball_continues_the_same_shake_stream(scheme, monkeypatch):
    c_tilde = hashlib.sha256(scheme.name.encode()).digest()
    expected = _sample_in_ball_one_digest(c_tilde, scheme._p.tau)
    assert scheme._sample_in_ball(c_tilde).tolist() == expected
    # a 9-byte first squeeze runs out after one position draw, so every
    # later draw comes from the continuation
    monkeypatch.setattr(dilithium_sig, "_ball_bytes", lambda tau: 9)
    assert scheme._sample_in_ball(c_tilde).tolist() == expected


EXPECTED = {
    "dilithium2": (1312, 2420),
    "dilithium3": (1952, 3293),
    "dilithium5": (2592, 4595),
}


@pytest.mark.parametrize("scheme", [DILITHIUM2, DILITHIUM3, DILITHIUM5],
                         ids=lambda s: s.name)
def test_spec_wire_sizes(scheme):
    assert (scheme.public_key_bytes, scheme.signature_bytes) == EXPECTED[scheme.name]


@pytest.mark.parametrize("scheme", [DILITHIUM3, DILITHIUM5, DILITHIUM2_AES],
                         ids=lambda s: s.name)
def test_higher_levels_and_aes_roundtrip(scheme):
    drbg = Drbg("lvl-" + scheme.name)
    pk, sk = scheme.keygen(drbg)
    sig = scheme.sign(sk, b"level test", drbg)
    assert len(sig) == scheme.signature_bytes
    assert scheme.verify(pk, b"level test", sig)
    assert not scheme.verify(pk, b"level tesT", sig)


def test_aes_variant_same_sizes_different_keys():
    std = DILITHIUM2.keygen(Drbg("suite"))
    aes = DILITHIUM2_AES.keygen(Drbg("suite"))
    assert len(std[0]) == len(aes[0])
    assert std[0] != aes[0]


# -- byte pins: keygen, sign and verify under both kernel modes --------------
#
# sha256 of (pk, sk, signature) at fixed DRBG seeds; each signature
# verifies and a copy with one flipped z bit does not. Any change to
# sampling, NTT arithmetic, rounding or packing shows up here.

BYTE_PINS = {
    "dilithium2": (
        "9ebe1fb31ee28cd7f7e5a79640c7934c37082e364fe36164090a8dd0f9240a5c",
        "e6650d6b21a6b9f90403b0825d63c3d6ee0557098efdc57a0b461d51363c1934",
        "7a4c76853115ba51e044a5b365886ab03fbeccb16f6759c718c0ecc0c3e1376d",
    ),
    "dilithium3": (
        "d0a888622201b2ce042ea768dbe96aac14f2fa2705f7a2055a21033e460d8cad",
        "5c2197022b622d3c7e3a98f2a7a1ecc2ef606d0f28aefda6180fcaa29b3a649f",
        "756f459ba30b9b551f0c4da88b5b0db6edbbaef1ae7ed0691b639caf73e8823a",
    ),
    "dilithium5": (
        "e35126eea2834f01734f2210ce74d83b6bfb2cf405d9083addb1b75709ff9977",
        "a3b58b33d5f19630e205ed91d22bc905a92f3f8c243483d0757c0b528e3bf351",
        "cc8f53e9abbbc9d42bae21466f87e755ba08a3fa848b23dc8350b99511ed6f6f",
    ),
    "dilithium2_aes": (
        "620e59ed21cff0ffe628b35c79ed2e8656f9fcd2cf75395d4b430911792833f8",
        "3ac810a6aa01c0b5c86fc5f1fd7343475dd7cb731541f07d58f2446fe43b4883",
        "26d640cc399e26ecb15367ad830534bbeeb32c389a8350644e28129ad62edaf6",
    ),
    "dilithium3_aes": (
        "421f267d8c2c47497850dfd2af0108570c55d46ebe89f65c8bbd3d643b9690a8",
        "a556b312104f44bc3f20f84996d7d420f6b4b92044641e38c405082bd533b175",
        "2459acc683a32a52792c44562f81e14d7aead13713a9d933250dde4248039b83",
    ),
    "dilithium5_aes": (
        "7f28c26a8063818a8ce50899d8848ee3831b1ec09827ade3d2c64a457cf2cf36",
        "3df2ed8787a8ecd717fa14838c217809f2fd3812f620cb7f028a069944ecbabb",
        "64dc76100618697e834a89781270779b428fb02183f2e4c186256093a09cd7ef",
    ),
}


@pytest.mark.kernels
@pytest.mark.parametrize("mode", ["ref", "fast"])
@pytest.mark.parametrize("name", sorted(BYTE_PINS))
def test_keygen_sign_verify_bytes_pinned(name, mode):
    sig = get_sig(name)
    msg = b"byte pin " + name.encode()
    with kernels.override(mode):
        pk, sk = sig.keygen(Drbg(b"pin-keygen-" + name.encode()))
        s = sig.sign(sk, msg, Drbg(b"pin-sign-" + name.encode()))
        tampered = bytearray(s)
        tampered[40] ^= 1
        verdicts = (sig.verify(pk, msg, s), sig.verify(pk, msg, bytes(tampered)))
    digests = tuple(hashlib.sha256(part).hexdigest() for part in (pk, sk, s))
    assert digests == BYTE_PINS[name]
    assert verdicts == (True, False)


# -- verify's early rejections -----------------------------------------------
#
# Each malformed input must be refused before any lattice work: the test
# replaces _expand_a (verify's first step past the parsing checks) with a
# tripwire, so a False that came only from the final hash comparison fails.

@pytest.fixture(scope="module")
def d2_signed(d2_keypair):
    pk, sk = d2_keypair
    return pk, DILITHIUM2.sign(sk, b"neg", Drbg("neg"))


@pytest.fixture(params=["ref", "fast"])
def tripwired(request, monkeypatch):
    def tripwire(rho):
        raise AssertionError("verify went past its parsing checks")
    monkeypatch.setattr(DILITHIUM2, "_expand_a", tripwire)
    with kernels.override(request.param):
        yield DILITHIUM2


def _with_hint(signature: bytes, hint: bytes) -> bytes:
    return signature[: len(signature) - len(hint)] + hint


def _hint_section(rows: list[list[int]], omega: int, padding=b"") -> bytes:
    """The spec hint encoding of explicit per-row positions."""
    positions = [pos for row in rows for pos in row]
    body = bytes(positions) + padding
    ends, total = [], 0
    for row in rows:
        total += len(row)
        ends.append(total)
    return body + bytes(omega - len(body)) + bytes(ends)


def test_verify_rejects_non_increasing_hint_positions(d2_signed, tripwired):
    pk, sig = d2_signed
    omega = tripwired._p.omega
    for row in ([9, 9], [9, 4]):
        bad = _with_hint(sig, _hint_section([row, [], [], []], omega))
        assert tripwired._unpack_hint(bad[-(omega + 4):]) is None
        assert tripwired.verify(pk, b"neg", bad) is False


def test_verify_rejects_nonzero_hint_padding(d2_signed, tripwired):
    pk, sig = d2_signed
    omega = tripwired._p.omega
    bad = _with_hint(sig, _hint_section([[1], [2], [], [3]], omega, padding=b"\x01"))
    assert tripwired.verify(pk, b"neg", bad) is False


def test_verify_rejects_row_end_above_omega(d2_signed, tripwired):
    pk, sig = d2_signed
    omega = tripwired._p.omega
    hint = bytearray(_hint_section([[1], [], [], []], omega))
    hint[omega + 3] = omega + 1
    assert tripwired.verify(pk, b"neg", _with_hint(sig, bytes(hint))) is False
    # a decreasing row end is refused the same way
    hint = bytearray(_hint_section([[1, 2], [], [], []], omega))
    hint[omega + 1] = 1
    assert tripwired.verify(pk, b"neg", _with_hint(sig, bytes(hint))) is False


def _with_z_coefficient(scheme, signature: bytes, value: int) -> bytes:
    """*signature* with z[0][0] set to the centered *value*."""
    bits = scheme._zbits
    row_bytes = N * bits // 8
    row = poly.unpack_bits(signature[32: 32 + row_bytes], bits)
    row[0] = scheme._p.gamma1 - value
    return signature[:32] + poly.pack_bits(row, bits) + signature[32 + row_bytes:]


def test_verify_rejects_z_norm_at_bound(d2_signed, tripwired):
    pk, sig = d2_signed
    p = tripwired._p
    bound = p.gamma1 - p.beta
    for value in (bound, -bound, p.gamma1):
        assert tripwired.verify(pk, b"neg", _with_z_coefficient(tripwired, sig, value)) is False
    # one below the bound passes the norm check and reaches the lattice work
    with pytest.raises(AssertionError, match="past its parsing checks"):
        tripwired.verify(pk, b"neg", _with_z_coefficient(tripwired, sig, bound - 1))


def test_verify_rejects_wrong_lengths(d2_signed, tripwired):
    pk, sig = d2_signed
    for bad_pk, bad_sig in ((pk[:-1], sig), (pk + b"\x00", sig),
                            (pk, sig[:-1]), (pk, sig + b"\x00"), (b"", b"")):
        assert tripwired.verify(bad_pk, b"neg", bad_sig) is False


# -- ExpandA's rare path: an entry short of 256 after the first squeeze ------

@pytest.mark.parametrize("mode", ["ref", "fast"])
@pytest.mark.parametrize("scheme", [DILITHIUM2, DILITHIUM2_AES], ids=lambda s: s.name)
def test_expand_a_short_entry_continues_its_stream(scheme, mode, monkeypatch):
    # 200 chunks decoding to 2^23 - 1 >= q: entry (2, 1) then accepts only
    # ~140 coefficients from its first 1020 bytes
    real = scheme._xof.expand_a
    junk = b"\xff" * 600
    calls = []

    def expand_a(rho, pairs, outlen):
        calls.append((len(pairs), outlen))
        return b"".join(
            (junk + real(rho, [pair], outlen))[:outlen] if pair == (2, 1)
            else real(rho, [pair], outlen)
            for pair in pairs)

    monkeypatch.setattr(scheme, "_xof", SimpleNamespace(expand_a=expand_a))
    rho = bytes(range(32))
    with kernels.override(mode):
        got = scheme._expand_a(rho)
    k, l = scheme._p.k, scheme._p.l
    expected = [poly.rej_uniform(expand_a(rho, [(i, j)], 4096), N)[0]
                for i in range(k) for j in range(l)]
    assert got.tolist() == np.array(expected).reshape(k, l, N).tolist()
    assert (k * l, dilithium_sig._EXPAND_A_BYTES) in calls
    assert any(n == 1 and outlen > dilithium_sig._EXPAND_A_BYTES for n, outlen in calls)
