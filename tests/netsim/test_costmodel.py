"""Cost model: complete coverage, additivity, attributions."""

import pytest

from repro.netsim.costmodel import PROFILING_OVERHEAD, CostModel
from repro.pqc.registry import ALL_KEM_NAMES, ALL_SIG_NAMES
from repro.tls.actions import CryptoOp


@pytest.fixture(scope="module")
def model():
    return CostModel()


@pytest.mark.parametrize("kem", ALL_KEM_NAMES)
@pytest.mark.parametrize("op", ["kem_keygen", "kem_encaps", "kem_decaps"])
def test_every_kem_has_costs(model, kem, op):
    cost = model.op_cost(CryptoOp(op, kem), "client")
    assert cost.ms > 0
    assert cost.library in ("libcrypto", "libssl")


@pytest.mark.parametrize("sig", ALL_SIG_NAMES)
@pytest.mark.parametrize("op", ["sig_sign", "sig_verify", "cert_verify"])
def test_every_sig_has_costs(model, sig, op):
    cost = model.op_cost(CryptoOp(op, sig), "server")
    assert cost.ms > 0
    assert cost.library == "libcrypto"


def test_hybrid_costs_are_component_sums(model):
    hybrid = model.op_cost(CryptoOp("kem_encaps", "p256_kyber512"), "server").ms
    p256 = model.op_cost(CryptoOp("kem_encaps", "p256"), "server").ms
    kyber = model.op_cost(CryptoOp("kem_encaps", "kyber512"), "server").ms
    assert hybrid == pytest.approx(p256 + kyber)


def test_composite_sig_costs_are_component_sums(model):
    combo = model.op_cost(CryptoOp("sig_sign", "p521_dilithium5"), "server").ms
    d5 = model.op_cost(CryptoOp("sig_sign", "dilithium5"), "server").ms
    assert combo > d5  # ECDSA P-521 share included


def test_bike_client_attribution_is_libssl(model):
    client = model.op_cost(CryptoOp("kem_decaps", "bikel1"), "client")
    server = model.op_cost(CryptoOp("kem_encaps", "bikel1"), "server")
    assert client.library == "libssl"      # the paper's Table 3 quirk
    assert server.library == "libcrypto"
    hybrid_client = model.op_cost(CryptoOp("kem_decaps", "p256_bikel1"), "client")
    assert hybrid_client.library == "libssl"


def test_size_proportional_generic_ops(model):
    small = model.op_cost(CryptoOp("tls_frame", size=100), "client").ms
    large = model.op_cost(CryptoOp("tls_frame", size=100_000), "client").ms
    assert large > small
    assert model.op_cost(CryptoOp("tls_frame", size=0), "client").library == "libssl"
    assert model.op_cost(CryptoOp("record_crypt", size=0), "client").library == "libcrypto"


def test_unknown_op_rejected(model):
    with pytest.raises(KeyError):
        model.op_cost(CryptoOp("quantum_teleport"), "client")


def test_packet_and_tooling_costs(model):
    assert {library for _, library in model.packet_prices} == {"kernel", "ixgbe"}
    assert model.tooling_price[1] == "python"


def test_profiling_overhead_scales_everything():
    plain = CostModel(profiling=False)
    prof = CostModel(profiling=True)
    op = CryptoOp("sig_sign", "rsa:2048")
    assert prof.op_cost(op, "server").ms == pytest.approx(
        plain.op_cost(op, "server").ms * PROFILING_OVERHEAD)


def test_paper_anchors(model):
    """Spot-check the calibration anchors documented in DESIGN.md."""
    assert model.op_cost(CryptoOp("sig_sign", "rsa:2048"), "server").ms == pytest.approx(1.15)
    assert model.op_cost(CryptoOp("kem_encaps", "p521"), "server").ms == pytest.approx(6.8)
    assert model.op_cost(CryptoOp("sig_sign", "sphincs128"), "server").ms == pytest.approx(13.5)
    assert model.op_cost(CryptoOp("kem_decaps", "bikel1"), "client").ms == pytest.approx(2.1)
    # relative orderings the paper's conclusions rest on
    sign = lambda name: model.op_cost(CryptoOp("sig_sign", name), "server").ms
    assert sign("falcon512") < sign("rsa:2048") < sign("rsa:3072")
    assert sign("dilithium2") < sign("rsa:2048")
    assert sign("sphincs128") > 10 * sign("rsa:2048")
    enc = lambda name: model.op_cost(CryptoOp("kem_encaps", name), "server").ms
    assert enc("kyber512") < enc("x25519") < enc("p384") < enc("p521")
