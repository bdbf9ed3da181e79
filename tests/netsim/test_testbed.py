"""Testbed end-to-end: real handshakes, scripted replay, determinism."""

import pytest

from repro.crypto.drbg import Drbg
from repro.netsim.costmodel import CostModel
from repro.netsim.netem import SCENARIOS
from repro.netsim.scripted import record_script, scripted_apps
from repro.netsim.testbed import Testbed, run_simulated_handshake
from repro.obs.flame import library_breakdown
from repro.obs.tracer import Tracer
from repro.tls.certs import make_server_credentials
from repro.tls.server import BufferPolicy


@pytest.fixture(scope="module")
def rsa_creds():
    return make_server_credentials("rsa:1024", Drbg("testbed-creds"))


def _bed(creds, kem="x25519", sig="rsa:1024", **kwargs):
    cert, sk, store = creds
    return Testbed(kem, sig, cert, sk, store, **kwargs)


def test_real_handshake_trace_sanity(rsa_creds):
    trace = _bed(rsa_creds).run_handshake()
    assert 0 < trace.part_a < trace.total
    assert 0 < trace.part_b < trace.total
    assert trace.total == pytest.approx(trace.part_a + trace.part_b)
    assert trace.wall_end >= trace.total
    assert trace.client_wire_bytes > 200
    assert trace.server_wire_bytes > trace.client_wire_bytes
    assert trace.client_packets >= 4 and trace.server_packets >= 3


def test_deterministic_across_runs(rsa_creds):
    t1 = _bed(rsa_creds).run_handshake()
    t2 = _bed(rsa_creds).run_handshake()
    assert t1.part_a == t2.part_a
    assert t1.part_b == t2.part_b
    assert t1.client_wire_bytes == t2.client_wire_bytes


def test_cpu_attribution_present(rsa_creds):
    trace = _bed(rsa_creds).run_handshake()
    assert "libcrypto" in trace.server_cpu
    assert "libssl" in trace.server_cpu
    assert "kernel" in trace.client_cpu
    assert trace.server_cpu["libcrypto"] > trace.client_cpu["libcrypto"]  # RSA sign


def test_scenario_delay_dominates(rsa_creds):
    none = _bed(rsa_creds).run_handshake()
    delayed = _bed(rsa_creds, scenario="high-delay").run_handshake()
    assert delayed.total == pytest.approx(1.0 + none.total, abs=0.05)


def test_scenario_bandwidth_slows_by_bytes(rsa_creds):
    slow = _bed(rsa_creds, scenario="low-bandwidth").run_handshake()
    total_bytes = slow.client_wire_bytes + slow.server_wire_bytes
    assert slow.total > 0.8 * (8 * total_bytes / 1e6) * 0.5


def test_handshake_completes_under_loss(rsa_creds):
    bed = _bed(rsa_creds, scenario="lte-m")
    for _ in range(5):
        trace = bed.run_handshake()
        assert trace.total >= 0.2  # at least one RTT


def test_default_policy_changes_flights_not_bytes(rsa_creds):
    optimized = _bed(rsa_creds).run_handshake()
    default = _bed(rsa_creds, policy=BufferPolicy.DEFAULT).run_handshake()
    # TLS payload identical; packet boundaries and (slightly) header counts differ
    assert abs(default.server_wire_bytes - optimized.server_wire_bytes) < 400
    assert default.flight_labels != optimized.flight_labels


def test_scripted_replay_matches_real(rsa_creds):
    """The regression that justifies the replay architecture."""
    from repro.netsim.scripted import load_credentials

    creds = load_credentials("dilithium2")
    bed = Testbed("kyber512", "dilithium2", creds[0], creds[1], creds[2],
                  drbg=Drbg("script:kyber512:dilithium2:optimized:paper"))
    real = bed.run_handshake()
    script = record_script("kyber512", "dilithium2")
    client, server = scripted_apps(script)
    replay = run_simulated_handshake(
        client, server, scenario=SCENARIOS["none"], netem_drbg=Drbg("n"),
        cost_model=CostModel())
    assert replay.part_a == pytest.approx(real.part_a, rel=1e-9)
    assert replay.part_b == pytest.approx(real.part_b, rel=1e-9)
    assert replay.client_wire_bytes == real.client_wire_bytes
    assert replay.server_wire_bytes == real.server_wire_bytes
    assert replay.client_packets == real.client_packets


def test_scripted_replay_under_loss_completes():
    script = record_script("x25519", "rsa:1024")
    for i in range(10):
        client, server = scripted_apps(script)
        trace = run_simulated_handshake(
            client, server, scenario=SCENARIOS["high-loss"],
            netem_drbg=Drbg(f"loss{i}"), cost_model=CostModel())
        assert trace.total > 0


@pytest.mark.parametrize("session", ["full", "resume"])
def test_cpu_ledger_equals_leaf_spans_exactly(session):
    """Each host's ledger is bit-for-bit the sum of its CPU leaf spans,
    retransmitted packets' charges included."""
    script = record_script("x25519", "rsa:1024", session=session)
    client, server = scripted_apps(script)
    tracer = Tracer()
    trace = run_simulated_handshake(
        client, server, scenario=SCENARIOS["high-loss"],
        netem_drbg=Drbg("ledger:3"), cost_model=CostModel(), tracer=tracer)
    assert trace.outcome.ok
    assert any(i.name == "retransmit" for i in tracer.instants)
    assert trace.client_cpu == library_breakdown(tracer, "client-cpu")
    assert trace.server_cpu == library_breakdown(tracer, "server-cpu")


def test_cwnd_overflow_dilithium5_two_rtt():
    """The paper's §5.4 headline: big PQ flights exceed initcwnd."""
    creds = make_server_credentials("dilithium5", Drbg("d5-creds"))
    bed = Testbed("x25519", "dilithium5", *creds, scenario="high-delay")
    trace = bed.run_handshake()
    assert 1.9 < trace.total < 2.2  # 2 RTT

    small = make_server_credentials("rsa:1024", Drbg("small-creds"))
    bed2 = Testbed("x25519", "rsa:1024", *small, scenario="high-delay")
    assert 0.9 < bed2.run_handshake().total < 1.2  # 1 RTT
