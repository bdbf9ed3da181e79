"""Rules the TCP model must keep on whole lossy handshakes, as properties.

Hypothesis draws netem seeds and loss rates in [0, 0.2] over scripted
replays of a few pairs, one of them a multi-flight SPHINCS+ handshake,
and checks every run against:

* after every ACK, the in-flight segments are keyed in ascending order
  and contiguous (``seq + len(payload)`` is the next key), which is what
  lets ``_handle_ack`` stop at the first unacked segment;
* a handshake whose links dropped nothing retransmits nothing.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.experiment import load_script
from repro.crypto.drbg import Drbg
from repro.netsim.costmodel import CostModel
from repro.netsim.netem import SCENARIOS, NetemConfig
from repro.netsim.scripted import ScriptReplay
from repro.netsim.tcp import TcpEndpoint
from repro.netsim.testbed import run_simulated_handshake
from repro.obs.metrics import Metrics
from repro.tls.server import BufferPolicy

PAIRS = (("kyber512", "dilithium2"), ("kyber1024", "dilithium5"),
         ("x25519", "sphincs128"), ("x25519", "rsa:1024"))
# delay and rate of the paper's lossy scenarios; the loss rate is drawn
SHAPES = ("high-loss", "lte-m", "5g")


def _inflight_violations(endpoint: TcpEndpoint) -> list[str]:
    keys = list(endpoint._inflight)
    found = []
    if keys != sorted(keys):
        found.append(f"{endpoint.name}: in-flight keys out of order {keys}")
    for seq, following in zip(keys, keys[1:]):
        end = seq + len(endpoint._inflight[seq].payload)
        if end != following:
            found.append(f"{endpoint.name}: segment {seq} ends at {end}, "
                         f"next in flight starts at {following}")
    return found


def _run_checked(pair, shape: str, loss: float, seed: int):
    """One replay with every ACK checked; (counters, ACKs checked, violations)."""
    base = SCENARIOS[shape]
    scenario = NetemConfig(f"{shape}@{loss}", loss=loss, rtt=base.rtt,
                           rate_bps=base.rate_bps)
    original = TcpEndpoint._handle_ack
    checked, violations = [0], []

    def handle_ack(self, ack):
        original(self, ack)
        checked[0] += 1
        violations.extend(_inflight_violations(self))

    metrics = Metrics()
    with mock.patch.object(TcpEndpoint, "_handle_ack", handle_ack):
        client, server = ScriptReplay(
            load_script(*pair, BufferPolicy.OPTIMIZED)).apps()
        run_simulated_handshake(
            client, server, scenario=scenario,
            netem_drbg=Drbg(f"tcp-invariants:{seed}"),
            cost_model=CostModel(), max_sim_seconds=60.0, metrics=metrics)
    return metrics.snapshot()["counters"], checked[0], violations


def _count(counters, suffix: str) -> int:
    return sum(value for name, value in counters.items()
               if name.endswith(suffix))


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(PAIRS), shape=st.sampled_from(SHAPES),
       loss=st.floats(min_value=0.0, max_value=0.2),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_inflight_stays_contiguous_and_drop_free_runs_never_retransmit(
        pair, shape, loss, seed):
    counters, checked, violations = _run_checked(pair, shape, loss, seed)
    assert checked > 0
    assert violations == []
    if _count(counters, ".dropped") == 0:
        assert _count(counters, "retransmits") == 0


def test_the_counters_the_property_reads_are_live():
    """A lossy run shows drops and retransmits in the counters the
    property reads, so its drop-free branch is not vacuously true."""
    counters, _, violations = _run_checked(("x25519", "sphincs128"),
                                           "lte-m", 0.2, 0)
    assert violations == []
    assert _count(counters, ".dropped") > 0
    assert _count(counters, "retransmits") > 0
