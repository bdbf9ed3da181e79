"""Haraka v2: structural properties (constants are substituted, DESIGN.md)."""

import pytest

from repro.crypto.haraka import Haraka, RC, haraka512, haraka_keyed


def test_output_lengths():
    assert len(haraka512(bytes(64))) == 32


def test_input_lengths_enforced():
    with pytest.raises(ValueError):
        haraka512(bytes(63))
    with pytest.raises(ValueError):
        Haraka().haraka512_perm(bytes(65))


def test_512_diffusion():
    base = haraka512(bytes(64))
    flipped = haraka512(bytes(63) + b"\x01")
    differing = sum(bin(a ^ b).count("1") for a, b in zip(base, flipped))
    assert differing > 80  # ~128 of the 256 output bits expected


def test_permutation_is_invertible_by_construction():
    """haraka512_perm must be a bijection: distinct inputs map distinctly."""
    h = Haraka()
    seen = {h.haraka512_perm(i.to_bytes(1, "big") + bytes(63)) for i in range(64)}
    assert len(seen) == 64


def test_round_constants_shape():
    assert len(RC) == 40
    assert all(len(rc) == 16 for rc in RC)
    assert len(set(RC)) == 40  # no repeated constants


def test_keyed_instance_differs_and_is_deterministic():
    keyed = haraka_keyed(b"\xAB" * 16)
    keyed2 = haraka_keyed(b"\xAB" * 16)
    other = haraka_keyed(b"\xCD" * 16)
    data = bytes(range(64))
    assert keyed.haraka512(data) == keyed2.haraka512(data)
    assert keyed.haraka512(data) != haraka512(data)
    assert keyed.haraka512(data) != other.haraka512(data)


def test_sponge_lengths_and_domain_separation():
    h = Haraka()
    assert len(h.haraka_sponge(b"msg", 100)) == 100
    assert h.haraka_sponge(b"a", 32) != h.haraka_sponge(b"b", 32)
    # pad10*1: a message and the message plus a zero byte must differ
    assert h.haraka_sponge(b"x", 32) != h.haraka_sponge(b"x\x00", 32)


def test_sponge_not_prefix_extendable():
    h = Haraka()
    out64 = h.haraka_sponge(b"data", 64)
    out32 = h.haraka_sponge(b"data", 32)
    assert out64[:32] == out32  # squeezing more extends the same stream


def test_custom_constants_require_forty():
    with pytest.raises(ValueError):
        Haraka([b"\x00" * 16] * 39)
