"""Fast kernels are byte-for-byte equivalent to their reference twins.

Every switch point registered in ``repro.crypto.kernels`` is exercised
under both modes with randomized (Drbg-derived, so reproducible) inputs
and compared exactly — the fast path must be an *observationally
invisible* substitution. The final test closes the loop at campaign
level: a handshake recorded under ``PQTLS_KERNELS=ref`` in a fresh
interpreter is identical to one recorded under ``fast``.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import kernels
from repro.crypto.drbg import Drbg

pytestmark = pytest.mark.kernels


def both_modes(fn):
    """Call ``fn`` under each kernel mode, return {mode: result}."""
    out = {}
    for mode in ("ref", "fast"):
        with kernels.override(mode):
            out[mode] = fn()
    return out


def assert_same(ref, fast):
    """Deep equality of nested tuples/lists of arrays, ints and bytes."""
    if isinstance(ref, np.ndarray) or isinstance(fast, np.ndarray):
        assert np.array_equal(ref, fast)
    elif isinstance(ref, (tuple, list)):
        assert isinstance(fast, (tuple, list)) and len(ref) == len(fast)
        for r, f in zip(ref, fast):
            assert_same(r, f)
    else:
        assert ref == fast


def _coeffs(drbg, *shape, bound=8380417):
    return np.array([drbg.randint(0, bound - 1) for _ in range(int(np.prod(shape)))],
                    dtype=np.int64).reshape(shape)


def test_mode_env_default_and_override():
    assert kernels.mode() in ("ref", "fast")
    with kernels.override("ref"):
        assert kernels.mode() == "ref"
    with kernels.override("fast"):
        assert kernels.mode() == "fast"


def test_warm_builds_every_kernel_table():
    # benchmark setup calls warm(); lazy tables build the same values later
    assert set(kernels.warm()) >= {"aes", "hqc", "dilithium", "kyber"}


def test_production_reaches_every_fast_twin(tmp_path, monkeypatch):
    """The first half of the keep rule: production calls every fast twin.

    Three recordings from an empty cache plus one SPHINCS+ keygen, under
    fast kernels with every registered fast callable wrapped in a
    counter. A binding whose fast side never runs here is code kept
    equivalent for nothing, and should go.
    """
    from repro.core.experiment import load_script
    from repro.crypto import gcm, haraka  # noqa: F401  (register their bindings)
    from repro.pqc.registry import get_sig
    from repro.tls.server import BufferPolicy

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    calls = Counter()

    def counted(key, fast):
        def call(*args, **kwargs):
            calls[key] += 1
            return fast(*args, **kwargs)
        return call

    registered = list(kernels._BINDINGS)
    names = [f"{getattr(owner, '__name__', owner)}.{name}"
             for owner, name, _, _ in registered]
    previous = kernels.mode()
    kernels._BINDINGS = [(owner, name, ref, counted(key, fast))
                         for key, (owner, name, ref, fast) in zip(names, registered)]
    try:
        kernels.set_mode("fast")
        for kem, sig in (("hqc128", "rsa:1024"),
                         ("kyber90s512", "dilithium2_aes"),
                         ("p256_kyber512", "p256_dilithium2")):
            load_script(kem, sig, BufferPolicy.OPTIMIZED)
        get_sig("sphincs128").keygen(Drbg(b"kernels-reach"))
    finally:
        kernels._BINDINGS = registered
        kernels.set_mode(previous)
    assert [key for key in names if not calls[key]] == []


# -- AES / GCM ---------------------------------------------------------------

def test_aes_block_ref_equals_fast():
    from repro.crypto.aes import AES

    drbg = Drbg(b"kernels-aes")
    for key_len in (16, 24, 32):
        key = drbg.random_bytes(key_len)
        blocks = [drbg.random_bytes(16) for _ in range(8)] + [bytes(16)]
        got = both_modes(lambda: [AES(key).encrypt_block(b) for b in blocks])
        assert got["ref"] == got["fast"]


def test_aes_ctr_keystream_ref_equals_fast():
    from repro.crypto import aes
    from repro.crypto.kernels.aes import _NUMPY_MIN_BLOCKS

    drbg = Drbg(b"kernels-ctr")
    key, nonce = drbg.random_bytes(16), drbg.random_bytes(12)
    # the last two straddle the scalar/numpy switch of ctr_keystream
    for length in (0, 1, 15, 16, 17, 500, 4096,
                   16 * (_NUMPY_MIN_BLOCKS - 1), 16 * _NUMPY_MIN_BLOCKS):
        got = both_modes(lambda: aes.aes_ctr_keystream(key, nonce, length))
        assert got["ref"] == got["fast"], length


@settings(max_examples=30, deadline=None)
@given(key_len=st.sampled_from([16, 24, 32]),
       prefix=st.binary(min_size=12, max_size=12),
       first=st.one_of(st.sampled_from([0, 2**32 - 2, 2**32 - 1]),
                       st.integers(0, 2**32 - 1)),
       nblocks=st.integers(0, 300), data=st.data())
def test_ctr_keystream_equals_reference_blocks(key_len, prefix, first, nblocks, data):
    # one vectorised pass across the threshold and the 32-bit counter wrap
    from repro.crypto.aes import AES
    from repro.crypto.kernels.aes import ctr_keystream

    cipher = AES(data.draw(st.binary(min_size=key_len, max_size=key_len)))
    expected = b"".join(
        cipher._encrypt_block_ref(prefix + ((first + i) % 2**32).to_bytes(4, "big"))
        for i in range(nblocks))
    assert ctr_keystream(cipher, prefix, first, nblocks) == expected


@settings(max_examples=30, deadline=None)
@given(prefixes=st.lists(st.binary(min_size=12, max_size=12), min_size=1, max_size=6),
       first=st.one_of(st.sampled_from([0, 2**32 - 3, 2**32 - 1]),
                       st.integers(0, 2**32 - 1)),
       nblocks=st.integers(0, 12), data=st.data())
def test_ctr_keystream_multi_prefix_equals_per_prefix_calls(prefixes, first, nblocks, data):
    # one (m * nblocks, 16) state against m single-prefix calls, across
    # the 5-block scalar threshold (small m * nblocks) and the 2^32 wrap
    from repro.crypto.aes import AES
    from repro.crypto.kernels.aes import ctr_keystream

    cipher = AES(data.draw(st.binary(min_size=32, max_size=32)))
    expected = b"".join(ctr_keystream(cipher, p, first, nblocks) for p in prefixes)
    assert ctr_keystream(cipher, b"".join(prefixes), first, nblocks) == expected


def test_aes_ctr_keystream_several_nonces_ref_equals_fast():
    from repro.crypto import aes

    drbg = Drbg(b"kernels-ctr-multi")
    key = drbg.random_bytes(32)
    for count in (1, 2, 9):
        nonces = drbg.random_bytes(12 * count)
        for length in (0, 5, 16, 168, 504, 1020):
            got = both_modes(lambda: aes.aes_ctr_keystream(key, nonces, length))
            assert got["ref"] == got["fast"], (count, length)
            assert got["fast"] == b"".join(
                aes.aes_ctr_keystream(key, nonces[i: i + 12], length)
                for i in range(0, len(nonces), 12))
    for mode in ("ref", "fast"):
        with kernels.override(mode), pytest.raises(ValueError):
            aes.aes_ctr_keystream(key, bytes(18), 16)


def test_gcm_ctr_wraps_like_inc32():
    from repro.crypto import gcm

    drbg = Drbg(b"kernels-gcm-wrap")
    key, nonce = drbg.random_bytes(16), drbg.random_bytes(12)
    initial = nonce + b"\xff\xff\xff\xfe"
    data = drbg.random_bytes(16 * 40 + 5)
    cipher = gcm.AesGcm(key)
    counter_block, stream = initial, b""
    while len(stream) < len(data):
        counter_block = gcm._inc32(counter_block)
        stream += cipher._aes._encrypt_block_ref(counter_block)
    expected = bytes(a ^ b for a, b in zip(data, stream))
    got = both_modes(lambda: cipher._ctr(initial, data))
    assert got["ref"] == got["fast"] == expected


def test_importing_aes_and_gcm_loads_no_numpy():
    # ctr_keystream imports numpy on its first vectorised call; code that
    # only imports the record layer must not pay numpy's import and RSS
    code = ("import sys, repro.crypto.aes, repro.crypto.gcm; "
            "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"


def test_aes_gcm_ref_equals_fast_and_tamper_detected():
    from repro.crypto.gcm import AesGcm

    drbg = Drbg(b"kernels-gcm")
    key = drbg.random_bytes(16)
    for pt_len, aad_len in [(0, 0), (1, 7), (16, 16), (100, 0), (4096, 13)]:
        nonce = drbg.random_bytes(12)
        pt, aad = drbg.random_bytes(pt_len), drbg.random_bytes(aad_len)
        got = both_modes(lambda: AesGcm(key).encrypt(nonce, pt, aad))
        assert got["ref"] == got["fast"], (pt_len, aad_len)
        ct = got["fast"]
        with kernels.override("fast"):
            assert AesGcm(key).decrypt(nonce, ct, aad) == pt
            flipped = bytes([ct[0] ^ 1]) + ct[1:]
            with pytest.raises(ValueError):
                AesGcm(key).decrypt(nonce, flipped, aad)


# -- Haraka ------------------------------------------------------------------

def test_haraka_ref_equals_fast():
    from repro.crypto import haraka

    drbg = Drbg(b"kernels-haraka")
    for _ in range(5):
        d64 = drbg.random_bytes(64)
        got = both_modes(lambda: haraka.haraka512(d64))
        assert got["ref"] == got["fast"]


def test_haraka_sponge_and_keyed_ref_equals_fast():
    from repro.crypto import haraka

    drbg = Drbg(b"kernels-harakas")
    seed = drbg.random_bytes(32)
    msg = drbg.random_bytes(177)

    def run():
        keyed = haraka.haraka_keyed(seed)
        return keyed.haraka_sponge(msg, 40), keyed.haraka512(msg[:64])
    got = both_modes(run)
    assert got["ref"] == got["fast"]


# -- Kyber batched vector ops -------------------------------------------------
#
# Like Dilithium below, production keeps every Kyber vector as a (rows, 256)
# int64 array, so both sides are fed arrays.

KYBER_Q = 3329


def test_kyber_poly_ops_ref_equals_fast():
    from repro.pqc.kyber import poly as kp

    drbg = Drbg(b"kernels-kyber")
    a = _coeffs(drbg, 3, 256, bound=KYBER_Q)
    b = _coeffs(drbg, 3, 256, bound=KYBER_Q)
    a[0, :5] = KYBER_Q - 1                       # the largest canonical value
    b[1] = 0

    def run():
        return (kp.add_vec(a, b), kp.sub_vec(a, b), kp.sub_vec(b, a),
                [kp.compress_vec(a, d) for d in (1, 4, 5, 10, 11)],
                [kp.decompress_vec(kp.compress_vec(a, d), d) for d in (1, 4, 5, 10, 11)])
    got = both_modes(run)
    assert_same(got["ref"], got["fast"])
    # the scalar reference, row by row
    assert got["fast"][3][3][0].tolist() == kp.compress(a[0].tolist(), 10)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kyber_vec_ntt_and_basemul_ref_equals_fast(k):
    from repro.pqc.kyber import poly as kp

    drbg = Drbg(b"kernels-kvec-%d" % k)
    vec = _coeffs(drbg, k, 256, bound=KYBER_Q)
    mat = _coeffs(drbg, k + 1, k, 256, bound=KYBER_Q)
    top = np.full((k, 256), KYBER_Q - 1, dtype=np.int64)
    # 12-bit unpacked keys may hold values up to 4095 (a malformed pk)
    wide = np.full((1, k, 256), 4095, dtype=np.int64)

    def run():
        v_hat = kp.ntt_vec(vec)
        return (v_hat, kp.intt_vec(v_hat), kp.ntt_vec(top), kp.intt_vec(top),
                kp.matvec_basemul(mat, v_hat), kp.matvec_basemul(mat[:1], top),
                kp.matvec_basemul(wide, top))
    got = both_modes(run)
    assert_same(got["ref"], got["fast"])
    for out in got["fast"]:
        assert isinstance(out, np.ndarray) and out.dtype == np.int64
    assert np.array_equal(got["fast"][1], vec)   # intt(ntt(v)) == v
    # the scalar reference on the first row and entry
    assert got["fast"][0][0].tolist() == kp.ntt(vec[0].tolist())
    expected = [0] * 256
    for j in range(k):
        expected = kp.poly_add(expected, kp.basemul(mat[0, j].tolist(),
                                                    got["fast"][0][j].tolist()))
    assert got["fast"][4][0].tolist() == expected


@pytest.mark.parametrize("bits", [1, 4, 5, 10, 11, 12])
def test_kyber_pack_vec_ref_equals_fast(bits):
    from repro.pqc.kyber import poly as kp

    drbg = Drbg(b"kernels-kpack-%d" % bits)
    vec = _coeffs(drbg, 4, 256, bound=1 << bits)
    vec[0, :3] = (1 << bits) - 1

    def run():
        packed = kp.pack_vec(vec, bits)
        return packed, kp.unpack_vec(packed, bits, 4), kp.unpack_vec(packed, bits, 1)
    got = both_modes(run)
    assert_same(got["ref"], got["fast"])
    assert got["fast"][0] == b"".join(kp.pack_bits(row, bits) for row in vec.tolist())


def test_kyber_cbd_and_parse_uniform_ref_equals_fast():
    from repro.pqc.kyber import poly as kp

    drbg = Drbg(b"kernels-cbd")
    for eta in (2, 3):
        data = drbg.random_bytes(3 * 64 * eta)
        edge = bytes([0xFF] * 64 * eta) + bytes(64 * eta)   # all ones, all zeros
        for blob in (data, edge):
            got = both_modes(lambda: kp.cbd_vec(blob, eta))
            assert_same(got["ref"], got["fast"])
        assert got["fast"][0].tolist() == kp.cbd(edge[: 64 * eta], eta)

    streams = drbg.random_bytes(4 * 504)
    # a row of rejectable chunks (both 12-bit candidates >= q) falls short
    short = bytearray(streams)
    short[504: 504 + 3 * 100] = b"\xff" * 300
    for data, nrows in ((streams, 4), (bytes(short), 4), (streams[:504], 1),
                        (streams[:3 * 100], 1)):
        got = both_modes(lambda: kp.parse_uniform_rows(data, nrows))
        assert_same(got["ref"], got["fast"])
    rows, full = got["fast"]
    assert not full[0] and not rows.any()
    rows, full = both_modes(lambda: kp.parse_uniform_rows(bytes(short), 4))["fast"]
    assert full.tolist() == [True, False, True, True]
    assert rows[0].tolist() == kp.parse_uniform(streams[:504])


def test_kyber90s_xof_roundtrip_ref_equals_fast():
    # the multi-nonce AES-CTR GenMatrix and PRF against the per-nonce loop
    from repro.pqc.registry import get_kem

    def run():
        kem = get_kem("kyber90s512")
        drbg = Drbg(b"kernels-90s")
        pk, sk = kem.keygen(drbg)
        ct, ss = kem.encaps(pk, drbg)
        return pk, sk, ct, ss, kem.decaps(sk, ct)
    got = both_modes(run)
    assert got["ref"] == got["fast"]


# -- RSA / EC ----------------------------------------------------------------

def test_rsa_crt_ref_equals_fast():
    from repro.pqc.registry import get_sig

    sig = get_sig("rsa:1024")
    pk, sk = sig.keygen(Drbg(b"kernels-rsa"))
    msg = b"kernel equivalence"

    def run():
        drbg = Drbg(b"kernels-rsa-sign")
        s = sig.sign(sk, msg, drbg)
        return s, sig.verify(pk, msg, s)
    got = both_modes(run)
    assert got["ref"] == got["fast"]
    assert got["fast"][1] is True


def test_ec_scalar_mult_ref_equals_fast():
    from repro.crypto.ec.curves import CURVES

    drbg = Drbg(b"kernels-ec")
    for name, curve in CURVES.items():
        ks = [1, 2, 3, curve.n - 1, curve.n + 5,
              drbg.randint(1, curve.n - 1)]

        def run():
            fixed = [curve.scalar_mult(k) for k in ks]
            p = curve.scalar_mult(ks[-1])
            arbitrary = [curve.scalar_mult(k, p) for k in ks]
            zero = curve.scalar_mult(0)
            return fixed, arbitrary, zero
        got = both_modes(run)
        assert got["ref"] == got["fast"], name
        assert got["fast"][2].x is None  # k = 0 -> point at infinity


# -- HQC sparse/dense products and RS-RM decode ------------------------------

def test_hqc_sparse_mul_ref_equals_fast():
    import numpy as np

    from repro.pqc.hqc import kem as hqc_kem

    drbg = Drbg(b"kernels-sparse")
    for n, weight in [(97, 5), (17669, 66)]:   # toy ring + real hqc-128 ring
        dense = np.array([drbg.randint(0, 1) for _ in range(n)], dtype=np.uint8)
        support = drbg.sample_distinct(n, weight)
        support = sorted(set(support) | {0, n - 1})  # edge shifts
        got = both_modes(lambda: hqc_kem._sparse_mul(support, dense))
        assert got["ref"].dtype == got["fast"].dtype
        assert np.array_equal(got["ref"], got["fast"]), n


def test_hqc_rm_decode_ref_equals_fast_on_corrupted_codewords():
    import numpy as np

    from repro.pqc.hqc import reedmuller

    drbg = Drbg(b"kernels-rm")
    for n1, multiplicity in [(46, 3), (56, 5)]:
        symbols = bytes(drbg.randint(0, 255) for _ in range(n1))
        bits = reedmuller.rm_encode(symbols, multiplicity)
        # flip a noisy-but-decodable fraction of the bits, then a heavy
        # fraction: the modes must agree even when decoding goes wrong
        for flips in (bits.shape[0] // 20, bits.shape[0] // 3):
            corrupted = bits.copy()
            for pos in drbg.sample_distinct(bits.shape[0], flips):
                corrupted[pos] ^= 1
            got = both_modes(
                lambda: reedmuller.rm_decode(corrupted, n1, multiplicity))
            assert got["ref"] == got["fast"], (n1, multiplicity, flips)
        with kernels.override("fast"):
            assert reedmuller.rm_decode(bits, n1, multiplicity) == symbols
            with pytest.raises(ValueError, match="expected"):
                reedmuller.rm_decode(bits[:-1], n1, multiplicity)


def _outcome(fn):
    """Result or (exception type, message): failure parity across modes."""
    try:
        return fn()
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def test_hqc_rs_decode_ref_equals_fast_across_error_weights():
    from repro.pqc.hqc.reedsolomon import ReedSolomon

    drbg = Drbg(b"kernels-rs")
    for n, k in [(46, 16), (56, 24)]:
        rs = ReedSolomon(n, k)
        message = bytes(drbg.randint(0, 255) for _ in range(k))
        codeword = both_modes(lambda: rs.encode(message))
        assert codeword["ref"] == codeword["fast"]
        # 0..delta errors decode; delta+2 and a blasted word must fail
        # with the same exception type and message under both modes
        for errors in (0, 1, rs.delta // 2, rs.delta, rs.delta + 2, n // 2):
            corrupted = bytearray(codeword["fast"])
            for pos in drbg.sample_distinct(n, errors):
                corrupted[pos] ^= drbg.randint(1, 255)
            got = both_modes(lambda: _outcome(
                lambda: rs.decode(bytes(corrupted))))
            assert got["ref"] == got["fast"], (n, k, errors)
            if errors <= rs.delta:
                assert got["fast"] == message


def test_hqc_kem_roundtrip_ref_equals_fast():
    from repro.pqc.registry import get_kem

    def run():
        kem = get_kem("hqc128")
        drbg = Drbg(b"kernels-hqc")
        pk, sk = kem.keygen(drbg)
        ct, ss = kem.encaps(pk, drbg)
        # tampered ciphertext drives the decode-failure / implicit-
        # rejection path; both modes must still agree byte-for-byte
        tampered = bytes([ct[0] ^ 1]) + ct[1:]
        return pk, sk, ct, ss, kem.decaps(sk, ct), kem.decaps(sk, tampered)
    got = both_modes(run)
    assert got["ref"] == got["fast"]
    assert got["fast"][3] == got["fast"][4]      # encaps ss == decaps ss
    assert got["fast"][5] != got["fast"][3]      # rejection key differs


# -- Dilithium batched vector ops --------------------------------------------
#
# Production keeps every Dilithium vector as a (rows, 256) int64 array, so
# both sides are fed arrays and compared with np.array_equal.

DILITHIUM_ALPHAS = (190464, 523776)   # 2*gamma2 for dilithium2 and 3/5
DILITHIUM_PACK_WIDTHS = (3, 4, 6, 10, 13, 18, 20)   # eta, w1, t1, t0, z


def test_dilithium_vec_ntt_and_matvec_ref_equals_fast():
    from repro.pqc.dilithium import poly as dp

    drbg = Drbg(b"kernels-dvec")
    vec = _coeffs(drbg, 4, 256)
    mat = _coeffs(drbg, 3, 4, 256)
    one = _coeffs(drbg, 256)
    # the challenge c (39 coefficients of +-1) goes through ntt_vec as one row
    ball = np.zeros(256, dtype=np.int64)
    for i in drbg.sample_distinct(256, 39):
        ball[i] = 1 if drbg.randint(0, 1) else dp.Q - 1
    # the NTT's lazy reduction is bounded by the largest inputs
    top = np.full((2, 256), dp.Q - 1, dtype=np.int64)

    def run():
        v_hat = dp.ntt_vec(vec)
        return (v_hat, dp.intt_vec(v_hat), dp.ntt_vec(top), dp.intt_vec(top),
                dp.ntt_vec(ball[None]), dp.ntt_vec(one[None]),
                dp.matvec_pointwise(mat, v_hat),
                dp.matvec_pointwise(np.full((2, 7, 256), dp.Q - 1), top[[0] * 7]),
                dp.pointwise_each(one, v_hat),
                dp.add_vec(vec, v_hat), dp.sub_vec(vec, v_hat),
                dp.neg_vec(vec), dp.inf_norm_vec(vec))
    got = both_modes(run)
    assert_same(got["ref"], got["fast"])
    for out in got["fast"][:-1]:
        assert isinstance(out, np.ndarray) and out.dtype == np.int64
    assert np.array_equal(got["fast"][1], vec)   # intt(ntt(v)) == v


@pytest.mark.parametrize("alpha", DILITHIUM_ALPHAS)
def test_dilithium_vec_decompose_and_hints_ref_equals_fast(alpha):
    from repro.pqc.dilithium import poly as dp

    drbg = Drbg(b"kernels-hints")
    # include the q-1 wraparound corner and the alpha boundary values
    specials = [0, 1, dp.Q - 1, dp.Q - 2, alpha, alpha - 1, alpha // 2,
                alpha // 2 + 1, dp.Q - alpha, dp.Q - alpha // 2]
    rows = np.array([specials + [drbg.randint(0, dp.Q - 1)
                                 for _ in range(256 - len(specials))]
                     for _ in range(4)], dtype=np.int64)
    z_rows = _coeffs(drbg, 4, 256)

    def run():
        hints = dp.make_hint_vec(z_rows, rows, alpha)
        return (dp.highbits_vec(rows, alpha), dp.lowbits_vec(rows, alpha),
                hints, dp.use_hint_vec(hints, rows, alpha),
                dp.power2round_vec(rows))
    got = both_modes(run)
    assert_same(got["ref"], got["fast"])
    # scalar reference cross-check on the first row
    with kernels.override("fast"):
        assert dp.highbits_vec(rows, alpha)[0].tolist() == \
            [dp.highbits(r, alpha) for r in rows[0].tolist()]


@pytest.mark.parametrize("bits", DILITHIUM_PACK_WIDTHS)
def test_dilithium_pack_vec_ref_equals_fast(bits):
    from repro.pqc.dilithium import poly as dp

    drbg = Drbg(b"kernels-pack-%d" % bits)
    top = (1 << bits) - 1
    vec = _coeffs(drbg, 5, 256, bound=top + 1)
    vec[0, :7] = top                     # the all-ones maximum value
    vec[1] = top
    vec[2, -1] = 0

    def run():
        packed = dp.pack_vec(vec, bits)
        # the head of a longer buffer decodes the same rows
        return (packed, dp.unpack_vec(packed, bits, 5),
                dp.unpack_vec(packed + b"\xff", bits, 5),
                dp.unpack_vec(packed, bits, 2), dp.pack_vec(vec[:1], bits))
    got = both_modes(run)
    assert_same(got["ref"], got["fast"])
    packed, back = got["fast"][:2]
    assert len(packed) == 5 * 256 * bits // 8
    assert np.array_equal(back, vec)
    # the per-row reference encodings, concatenated
    assert packed == b"".join(dp.pack_bits(row, bits) for row in vec.tolist())


def test_dilithium_unpack_vec_short_data_raises_like_unpack_bits():
    from repro.pqc.dilithium import poly as dp

    short = bytes(3 * 256 * 13 // 8 - 1)
    for mode in ("ref", "fast"):
        with kernels.override(mode), \
                pytest.raises(ValueError, match="unpack_vec: not enough data"):
            dp.unpack_vec(short, 13, 3)


def test_dilithium_rej_uniform_ref_equals_fast():
    from repro.pqc.dilithium import poly as dp

    drbg = Drbg(b"kernels-rej")
    stream = drbg.random_bytes(3 * 300)
    # force some rejections: 3-byte chunks decoding >= Q get skipped
    hot = bytearray(stream)
    for i in range(0, 90, 9):
        hot[i:i + 3] = b"\xff\xff\x7f"
    hot = bytes(hot)
    # the top bit of each third byte is cleared before the comparison
    masked = bytes(b | 0x80 if i % 3 == 2 else b for i, b in enumerate(stream))
    cases = [(stream, 1), (hot, 1), (stream + hot, 2), (masked, 1),
             (hot[: 3 * 260], 1), (stream[: 3 * 256], 1), (stream[:3 * 4], 4)]
    for data, nrows in cases:
        got = both_modes(lambda: dp.rej_uniform_rows(data, nrows))
        assert_same(got["ref"], got["fast"])
        coeffs, full = got["fast"]
        assert coeffs.shape == (nrows, 256) and (coeffs < dp.Q).all()
    # each row equals the scalar sampler's first 256 acceptances
    coeffs, full = both_modes(lambda: dp.rej_uniform_rows(stream + hot, 2))["fast"]
    assert full.all() and coeffs[1].tolist() == dp.rej_uniform(hot, 256)[0]
    assert np.array_equal(dp.rej_uniform_rows(masked, 1)[0], coeffs[:1])
    # 260 chunks with 10 rejected fall short: the row is reported, all zeros
    coeffs, full = both_modes(lambda: dp.rej_uniform_rows(hot[: 3 * 260], 1))["fast"]
    assert not full[0] and not coeffs.any()


@pytest.mark.parametrize("eta", [2, 4])
def test_dilithium_rej_eta_ref_equals_fast(eta):
    from repro.pqc.dilithium import poly as dp

    drbg = Drbg(b"kernels-rej-eta-%d" % eta)
    stream = drbg.random_bytes(192)
    reject = 15 if eta == 2 else 9          # the smallest rejected nibble
    hot = bytearray(stream)
    hot[0] = reject | (reject << 4)           # both nibbles rejected
    hot[1] = 0xF0 | 1                         # low kept, high rejected
    hot[2] = (reject << 4) | 0x0F if eta == 2 else 0xFF
    hot = bytes(hot)
    # limit 3: byte 1 gives two acceptances and byte 2's low nibble the
    # third, so byte 2 is consumed with its high nibble unread
    low_hit = bytes([reject | (reject << 4), 0x11, 0x32, 0x44])
    cases = [(stream, 256), (hot, 256), (hot, 1), (hot, 2), (low_hit, 3),
             (stream, 0), (b"", 4), (stream[:10], 256), (hot[:3], 256),
             (bytes([0xFF] * 16), 8)]
    for data, limit in cases:
        got = both_modes(lambda: dp.rej_eta(data, eta, limit))
        assert_same(got["ref"], got["fast"])
        coeffs, used = got["fast"]
        assert used <= len(data) and len(coeffs) <= limit
        centered = [c - dp.Q if c > dp.Q // 2 else c for c in coeffs]
        assert all(-eta <= c <= eta for c in centered)
    coeffs, used = both_modes(lambda: dp.rej_eta(low_hit, eta, 3))["fast"]
    assert used == 3 and list(coeffs) == [(eta - 1) % dp.Q, (eta - 1) % dp.Q,
                                          (eta - 2) % dp.Q]
    # a stream too short to finish is consumed whole
    coeffs, used = both_modes(lambda: dp.rej_eta(stream[:10], eta, 256))["fast"]
    assert len(coeffs) < 256 and used == 10


@pytest.mark.parametrize("name", ["dilithium2", "dilithium3", "dilithium5"])
def test_dilithium_sign_roundtrip_ref_equals_fast(name):
    from repro.pqc.registry import get_sig

    sig = get_sig(name)
    msg = b"kernel equivalence " + name.encode()

    def run():
        drbg = Drbg(b"kernels-dsig-" + name.encode())
        pk, sk = sig.keygen(drbg)
        s = sig.sign(sk, msg, Drbg(b"sign-" + name.encode()))
        return pk, sk, s, sig.verify(pk, msg, s), sig.verify(pk, msg + b"!", s)
    got = both_modes(run)
    assert got["ref"] == got["fast"]
    assert got["fast"][3] is True and got["fast"][4] is False


# -- campaign-level equivalence ----------------------------------------------

_RECORD_SNIPPET = """
import hashlib, pickle, sys
from repro.core.experiment import ExperimentConfig, run_experiment
digest = hashlib.sha256()
# the SHAKE pair, then the AES-CTR pair (multi-nonce keystreams)
for kem, sig in (("kyber512", "dilithium2"), ("kyber90s512", "dilithium2_aes")):
    result = run_experiment(ExperimentConfig(kem=kem, sig=sig, duration=5.0))
    digest.update(pickle.dumps(result))
sys.stdout.write(digest.hexdigest())
"""


def test_recording_bit_identical_across_kernel_modes(tmp_path):
    """A fresh-interpreter recording under ref == one under fast.

    This is the contract the whole PR rests on: kernel selection may
    change wall-clock time, never a single byte of any artifact.
    """
    digests = {}
    for mode in ("ref", "fast"):
        env = dict(os.environ,
                   PQTLS_KERNELS=mode,
                   REPRO_CACHE_DIR=str(tmp_path / mode),
                   PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
        proc = subprocess.run([sys.executable, "-c", _RECORD_SNIPPET],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests[mode] = proc.stdout.strip()
    assert digests["ref"] == digests["fast"]
