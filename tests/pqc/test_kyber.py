"""Kyber: NTT algebra, sampling, codecs, KEM round trips, FO rejection."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.crypto import kernels
from repro.crypto.drbg import Drbg
from repro.pqc.kyber import (
    KYBER512,
    KYBER768,
    KYBER1024,
    KYBER90S512,
    KYBER90S768,
    KYBER90S1024,
)
from repro.pqc.kyber import kem as kyber_kem, poly
from repro.pqc.kyber.poly import N, Q
from repro.pqc.registry import get_kem

ALL = [KYBER512, KYBER768, KYBER1024, KYBER90S512, KYBER90S768, KYBER90S1024]

coeff_poly = st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=N, max_size=N)


@given(coeff_poly)
def test_ntt_roundtrip(f):
    assert poly.intt(poly.ntt(f)) == f


def _schoolbook_negacyclic(f, g):
    out = [0] * N
    for i in range(N):
        if not f[i]:
            continue
        for j in range(N):
            k = i + j
            if k < N:
                out[k] = (out[k] + f[i] * g[j]) % Q
            else:
                out[k - N] = (out[k - N] - f[i] * g[j]) % Q
    return out


def test_basemul_matches_schoolbook():
    drbg = Drbg("kyber-ntt")
    f = [drbg.randint_below(Q) for _ in range(N)]
    g = [drbg.randint_below(Q) for _ in range(N)]
    via_ntt = poly.intt(poly.basemul(poly.ntt(f), poly.ntt(g)))
    assert via_ntt == _schoolbook_negacyclic(f, g)


@given(coeff_poly, coeff_poly)
def test_poly_add_sub_inverse(f, g):
    assert poly.poly_sub(poly.poly_add(f, g), g) == f


def test_cbd_range_and_length():
    drbg = Drbg("cbd")
    for eta in (2, 3):
        coeffs = poly.cbd(drbg.random_bytes(64 * eta), eta)
        assert len(coeffs) == N
        centered = [c if c <= Q // 2 else c - Q for c in coeffs]
        assert all(-eta <= c <= eta for c in centered)


def test_cbd_input_length_enforced():
    with pytest.raises(ValueError):
        poly.cbd(b"\x00" * 100, 2)


@given(st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=N, max_size=N),
       st.sampled_from([1, 4, 5, 10, 11, 12]))
def test_pack_unpack_roundtrip(values, d):
    masked = [v & ((1 << d) - 1) for v in values]
    assert poly.unpack_bits(poly.pack_bits(masked, d), d) == masked


@given(st.sampled_from([1, 4, 5, 10, 11]))
def test_compress_decompress_error_bound(d):
    drbg = Drbg(f"compress{d}")
    f = [drbg.randint_below(Q) for _ in range(N)]
    recovered = poly.decompress(poly.compress(f, d), d)
    bound = (Q // (1 << (d + 1))) + 1
    for a, b in zip(f, recovered):
        delta = min((a - b) % Q, (b - a) % Q)
        assert delta <= bound


@pytest.mark.parametrize("kem", ALL, ids=lambda k: k.name)
def test_kem_roundtrip_and_sizes(kem):
    drbg = Drbg("kem-" + kem.name)
    pk, sk = kem.keygen(drbg)
    ct, ss_enc = kem.encaps(pk, drbg)
    ss_dec = kem.decaps(sk, ct)
    kem.check_sizes(pk, ct, ss_enc)
    assert ss_enc == ss_dec


EXPECTED_SIZES = {
    "kyber512": (800, 768), "kyber768": (1184, 1088), "kyber1024": (1568, 1568),
    "kyber90s512": (800, 768), "kyber90s768": (1184, 1088), "kyber90s1024": (1568, 1568),
}


@pytest.mark.parametrize("kem", ALL, ids=lambda k: k.name)
def test_spec_wire_sizes(kem):
    pk_len, ct_len = EXPECTED_SIZES[kem.name]
    assert (kem.public_key_bytes, kem.ciphertext_bytes) == (pk_len, ct_len)
    assert kem.shared_secret_bytes == 32


def test_implicit_rejection_on_tampered_ciphertext():
    drbg = Drbg("fo")
    pk, sk = KYBER512.keygen(drbg)
    ct, ss = KYBER512.encaps(pk, drbg)
    for position in (0, 100, len(ct) - 1):
        bad = ct[:position] + bytes([ct[position] ^ 1]) + ct[position + 1:]
        rejected = KYBER512.decaps(sk, bad)
        assert rejected != ss
        assert len(rejected) == 32
        # rejection is deterministic per ciphertext
        assert KYBER512.decaps(sk, bad) == rejected


def test_distinct_encapsulations_yield_distinct_secrets():
    drbg = Drbg("fresh")
    pk, _ = KYBER512.keygen(drbg)
    _, ss1 = KYBER512.encaps(pk, drbg)
    _, ss2 = KYBER512.encaps(pk, drbg)
    assert ss1 != ss2


def test_wrong_length_inputs_rejected():
    drbg = Drbg("len")
    pk, sk = KYBER512.keygen(drbg)
    with pytest.raises(ValueError):
        KYBER512.encaps(pk + b"\x00", drbg)
    with pytest.raises(ValueError):
        KYBER512.decaps(sk, b"\x00" * 767)


def test_90s_variant_interop_is_forbidden():
    """Standard and 90s suites must NOT produce compatible artifacts."""
    drbg = Drbg("suites")
    pk_std, _ = KYBER512.keygen(drbg.fork("a"))
    pk_90s, _ = KYBER90S512.keygen(drbg.fork("a"))
    # same sizes, but the derived keys differ given the same seed stream
    assert len(pk_std) == len(pk_90s)
    assert pk_std != pk_90s


def test_keygen_deterministic_from_drbg():
    assert KYBER768.keygen(Drbg("same")) == KYBER768.keygen(Drbg("same"))


# -- byte pins: keygen, encaps and decaps under both kernel modes -----------
#
# sha256 of (pk, sk, ciphertext, shared secret) at fixed DRBG seeds; the
# ciphertext decapsulates to the same secret and a copy with one flipped
# bit decapsulates to a different, deterministic one (FO implicit
# rejection). Any change to sampling, NTT arithmetic, compression or
# packing shows up here.

BYTE_PINS = {
    "kyber512": (
        "1390c6e598a7129d477b79a11e592f13e49b1db4e2e7b9e4b9fb090d0959c761",
        "06d4b62529e816fcf4268295076207f6be2e171edc5c6bcdd80b7011b4f2811f",
        "72a33f79015b124ee528ca94d418e93446337fa631ee64a58ea39d92b3fd7026",
        "9616d36d92c3eec5a877abe32797af668005004a2dd5eed94431b2affae005fb",
    ),
    "kyber768": (
        "969a4844ef5c71f9ff1095e79b48f67e3c044994e75bd461b0a515a76351be16",
        "f6ca86b4eb4e8279f3c6f8c0f900532498c6b7a29ab4fff3d2ba4e8aff3231f3",
        "a302a2e52dbdd5b62f1c7920fc3eac04d5f41535cd5939b100484c99b916da96",
        "bfed4fea524d574cb3d3f776f30d777ba24678f11191a581138d6c55f3687d63",
    ),
    "kyber1024": (
        "f710aaaf3547c77ea66f8526fdd345c4f343062a8c14790389c93d6361b7a4b8",
        "3f48bcab74f3a21ce2ed257896cebfc5bb3f8bba2ef494dd03dd6c64c43b3fe8",
        "fa8470a1ee9541884b47cd037abaa341232caf7abd8b3ea56ae513bb170e665f",
        "4cbbd283052f164ac978abda455cdd5545412430c598e4652b22ad78a7150359",
    ),
    "kyber90s512": (
        "a35956bccc9dad30649be7300fe37358ab3f49b56904b47b67e2cef5cc57dd75",
        "b0d60cc47f01bbfe12f35617087b20d9129f1407abb25b45a251474ce5a131b4",
        "e2bca3d9d0e4917d38feed0f81cb4fa8b999f1ea5711584351b57f84b9b32368",
        "bfb532c992e8e1b837cabc5bc4083deaf8857703ece019159d51b7c6a5dbdfe2",
    ),
    "kyber90s768": (
        "a0f21b685e9b207e9d3d76b7f0489f897cddc2a7c97c56da6397143c54b27595",
        "04a2c46a49617f36cf7c98b12ca0b29fd701d2e7cf6e303db760da792b4fad1c",
        "39857de4a5b5966457dd9c3f72f49ae0d1acdf12f7b762e4cb8142c97d7644b8",
        "57aaa9a6e2d467bfea41a863269ecafacda005b84895942783d638fab1a7f039",
    ),
    "kyber90s1024": (
        "2ddf7c04ac191cfae9765a0b3c0e231ee915cd39f8717fa0431b667bcb13108b",
        "8cdb574fdde38603d7197d1cc94d81677696eabaec6ccd03679b351e53350f39",
        "301f7f6511d52c7f38fefb05285d8417ca6435881240b451c16adda2505c0ef4",
        "459120773271800dbccd3d41ffb40528b3ecd5ffcb19fa4df7e93389ac9f686a",
    ),
}


@pytest.mark.kernels
@pytest.mark.parametrize("mode", ["ref", "fast"])
@pytest.mark.parametrize("name", sorted(BYTE_PINS))
def test_keygen_encaps_decaps_bytes_pinned(name, mode):
    kem = get_kem(name)
    with kernels.override(mode):
        pk, sk = kem.keygen(Drbg(b"pin-keygen-" + name.encode()))
        ct, ss = kem.encaps(pk, Drbg(b"pin-encaps-" + name.encode()))
        tampered = bytearray(ct)
        tampered[40] ^= 1
        decapsulated = kem.decaps(sk, ct)
        rejected = kem.decaps(sk, bytes(tampered))
        rejected_again = kem.decaps(sk, bytes(tampered))
    digests = tuple(hashlib.sha256(part).hexdigest() for part in (pk, sk, ct, ss))
    assert digests == BYTE_PINS[name]
    assert decapsulated == ss
    assert rejected != ss and len(rejected) == 32 and rejected_again == rejected


# -- GenMatrix's rare path: an entry short of 256 after the first squeeze ----

def _crafted_xof(real_xof, target, junk, calls):
    """*real_xof* with entry *target*'s stream led by *junk* (prefix-consistent)."""
    def xof(seed, pairs, length):
        calls.append((len(pairs), length))
        return b"".join(
            (junk + real_xof(seed, [pair], length))[:length] if pair == target
            else real_xof(seed, [pair], length)
            for pair in pairs)
    return xof


@pytest.mark.parametrize("mode", ["ref", "fast"])
@pytest.mark.parametrize("kem", [KYBER512, KYBER90S768], ids=lambda k: k.name)
def test_gen_matrix_short_entry_continues_its_stream(kem, mode, monkeypatch):
    # 60 chunks of 0xff are 120 rejected candidates: the first 504 bytes of
    # entry (1, 0) then hold ~175 accepted coefficients, short of 256
    calls = []
    xof = _crafted_xof(kem._sym.xof, (1, 0), b"\xff" * 180, calls)
    monkeypatch.setattr(kem, "_sym", SimpleNamespace(xof=xof))
    rho = bytes(range(32))
    k = kem._p.k
    with kernels.override(mode):
        for transpose in (False, True):
            got = kem._gen_matrix(rho, transpose)
            pairs = [(i, j) if transpose else (j, i) for i in range(k) for j in range(k)]
            expected = [poly.parse_uniform(xof(rho, [pair], 4096)) for pair in pairs]
            assert got.tolist() == np.array(expected).reshape(k, k, N).tolist()
    # each expansion was one batched squeeze plus the short entry's continuation
    assert (k * k, kyber_kem._XOF_BYTES) in calls
    assert any(n == 1 and length > kyber_kem._XOF_BYTES for n, length in calls)
