"""Testbed end-to-end: real handshakes, scripted replay, determinism."""

import hashlib
import json

import pytest

from repro.crypto.drbg import Drbg
from repro.netsim.costmodel import CostModel
from repro.netsim.netem import SCENARIOS
from repro.netsim.scripted import ScriptReplay, record_script
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
    client, server = ScriptReplay(script).apps()
    replay = run_simulated_handshake(
        client, server, scenario=SCENARIOS["none"], netem_drbg=Drbg("n"),
        cost_model=CostModel())
    assert replay.part_a == pytest.approx(real.part_a, rel=1e-9)
    assert replay.part_b == pytest.approx(real.part_b, rel=1e-9)
    assert replay.client_wire_bytes == real.client_wire_bytes
    assert replay.server_wire_bytes == real.server_wire_bytes
    assert replay.client_packets == real.client_packets


def test_scripted_replay_under_loss_completes():
    replay = ScriptReplay(record_script("x25519", "rsa:1024"))
    for i in range(10):
        client, server = replay.apps()
        trace = run_simulated_handshake(
            client, server, scenario=SCENARIOS["high-loss"],
            netem_drbg=Drbg(f"loss{i}"), cost_model=CostModel())
        assert trace.total > 0


@pytest.mark.parametrize("session", ["full", "resume"])
def test_cpu_ledger_equals_leaf_spans_exactly(session):
    """Each host's ledger is bit-for-bit the sum of its CPU leaf spans,
    retransmitted packets' charges included."""
    script = record_script("x25519", "rsa:1024", session=session)
    client, server = ScriptReplay(script).apps()
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


# client_cpu / server_cpu of three real-TLS kyber512/dilithium2 handshakes
# on high-loss, bit for bit. Real endpoints emit fresh CryptoOp objects on
# every handshake, so these also pin that an op's price depends on its
# value alone (and that per-packet charges still sum in the same order).
PINNED_REAL_CPU = (
    ({"python": 8e-05, "kernel": 0.00029999999999998897,
      "ixgbe": 7.000000000000055e-05, "libcrypto": 0.000349076300000002,
      "libssl": 0.000274580000000002},
     {"python": 8e-05, "kernel": 0.00026999999999999144,
      "ixgbe": 6.300000000000043e-05, "libssl": 0.000323140000000003,
      "libcrypto": 0.0004190763000000014}),
    ({"python": 8e-05, "kernel": 0.00027000000000000006,
      "ixgbe": 6.300000000000005e-05, "libcrypto": 0.00034907630000000013,
      "libssl": 0.00027458000000000007},
     {"python": 8e-05, "kernel": 0.0002100000000000003,
      "ixgbe": 4.9000000000000256e-05, "libssl": 0.0003231400000000001,
      "libcrypto": 0.00041907630000000015}),
    ({"python": 8e-05, "kernel": 0.0002699999999997704,
      "ixgbe": 6.30000000008124e-05, "libcrypto": 0.0003490763000002506,
      "libssl": 0.0002745799999996912},
     {"python": 8e-05, "kernel": 0.0002699999999997959,
      "ixgbe": 6.300000000072213e-05, "libssl": 0.0003231399999998885,
      "libcrypto": 0.0004190763000002651}),
)


@pytest.mark.kernels
def test_real_handshake_cpu_is_pinned():
    creds = make_server_credentials("dilithium2", Drbg("testbed-creds"))
    bed = Testbed("kyber512", "dilithium2", *creds, scenario="high-loss")
    for client_cpu, server_cpu in PINNED_REAL_CPU:
        trace = bed.run_handshake()
        assert trace.outcome.ok
        assert trace.client_cpu == client_cpu
        assert trace.server_cpu == server_cpu


def test_frames_on_the_wire_after_the_horizon_are_not_counted():
    """A frame handed to the link before ``max_sim_seconds`` but fully on
    the wire only after it was never seen by the tap: it counts in neither
    the wire bytes and packets nor ``wall_end``."""
    from repro.core.experiment import load_script

    script = load_script("kyber1024", "dilithium5", BufferPolicy.OPTIMIZED)
    client, server = ScriptReplay(script).apps()
    trace = run_simulated_handshake(
        client, server, scenario=SCENARIOS["low-bandwidth"],
        netem_drbg=Drbg("horizon"), cost_model=CostModel(),
        max_sim_seconds=0.04)
    assert trace.outcome.key == "timeout"
    # the server's first flight is still serializing at 1 Mbit/s: only the
    # frames fully on the wire by 40 ms count (the whole run sends 14,826
    # bytes in 16 frames)
    assert (trace.server_wire_bytes, trace.server_packets) == (2007, 5)
    assert trace.wall_end == pytest.approx(0.03192, abs=1e-9)


def _wire_digest(kem, sig, policy, scenario, seed):
    """sha256 over what the tap shows of one traced scripted handshake:
    every ``wire-*`` instant (track, name, time, args) and the trace's
    tap-derived fields."""
    from repro.core.experiment import load_script

    client, server = ScriptReplay(load_script(kem, sig, policy)).apps()
    tracer = Tracer()
    trace = run_simulated_handshake(
        client, server, scenario=SCENARIOS[scenario], netem_drbg=Drbg(seed),
        cost_model=CostModel(), tracer=tracer)
    wire = [[i.track, i.name, i.time, list(i.args)] for i in tracer.instants
            if i.track.startswith("wire-")]
    fields = [trace.client_wire_bytes, trace.server_wire_bytes,
              trace.client_packets, trace.server_packets,
              list(trace.flight_labels), trace.t_ch, trace.t_sh, trace.t_fin,
              trace.wall_end]
    encoded = json.dumps([wire, fields]).encode()
    return hashlib.sha256(encoded).hexdigest(), tracer


# the wire as the tap records it, for a multi-flight lossy handshake with
# retransmissions and for one coalesced default-policy server flight
PINNED_WIRE = {
    ("x25519", "sphincs128", BufferPolicy.OPTIMIZED, "lte-m"):
        "1e6b0045b116b8fc89753f5361b58591dd4c4fc5b1349ae0e6883a55a4991649",
    ("kyber512", "dilithium2", BufferPolicy.DEFAULT, "none"):
        "072c59d31527f64670a4a561515893df09e896355c8c73c8fdf9d79c48f0f6fa",
}


@pytest.mark.parametrize("case", list(PINNED_WIRE), ids=lambda c: "/".join(
    part.value if isinstance(part, BufferPolicy) else part for part in c))
def test_what_the_wire_shows_is_pinned(case):
    digest, tracer = _wire_digest(*case, seed="wire-pin")
    if case[3] == "lte-m":
        assert any(i.name == "retransmit" for i in tracer.instants)
    assert digest == PINNED_WIRE[case]
