"""Rules the TCP model must keep on whole lossy handshakes, as properties.

Hypothesis draws netem seeds, loss rates in [0, 0.2] and a checksum-mode
fault plan over scripted replays of a few pairs, one of them a
multi-flight SPHINCS+ handshake, and checks every run against:

* after every ACK, the in-flight segments are keyed in ascending order
  and contiguous (``seq + len(payload)`` is the next key), which is what
  lets ``_handle_ack`` stop at the first unacked segment;
* every data segment lies inside one ``send()`` range of its endpoint
  and carries that send's label (segments never span a push boundary);
* on a segment's first transmission, the in-flight count, this segment
  included, is at most ``int(cwnd)`` (so the first flight is at most the
  initial window);
* a handshake whose links dropped nothing and ran no fault plan
  retransmits nothing (reordering alone triggers duplicate ACKs).

The rules are observed through wrappers of ``TcpEndpoint.send``,
``_transmit`` and ``_handle_ack``, so they hold the model to its wire
behaviour, not to how it stores its queue.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.experiment import load_script
from repro.crypto.drbg import Drbg
from repro.faults.plan import FAULT_PLANS
from repro.netsim.costmodel import CostModel
from repro.netsim.netem import SCENARIOS, NetemConfig
from repro.netsim.packets import Segment
from repro.netsim.scripted import ScriptReplay
from repro.netsim.tcp import TcpEndpoint
from repro.netsim.testbed import run_simulated_handshake
from repro.obs.metrics import Metrics
from repro.tls.server import BufferPolicy

PAIRS = (("kyber512", "dilithium2"), ("kyber1024", "dilithium5"),
         ("x25519", "sphincs128"), ("x25519", "rsa:1024"))
# delay and rate of the paper's lossy scenarios; the loss rate is drawn
SHAPES = ("high-loss", "lte-m", "5g")
# checksum-mode plans only: deliver-mode corruption needs real TLS to
# reject the flipped bytes, which a scripted replay does not model
PLANS = ("none", "bit-rot", "dup", "reorder", "chaos")


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


class _WireRules:
    """Wrappers that check each data segment against the sends it came from."""

    def __init__(self):
        self.sends: dict = {}      # endpoint -> [(start, end, label)]
        self.first_sent: dict = {}  # endpoint -> seqs transmitted so far
        self.checked = 0
        self.violations: list[str] = []

    def patches(self):
        original_send = TcpEndpoint.send
        original_transmit = TcpEndpoint._transmit
        rules = self

        def send(endpoint, data, label=""):
            if data:
                ranges = rules.sends.setdefault(endpoint, [])
                start = ranges[-1][1] if ranges else 0
                ranges.append((start, start + len(data), label))
            original_send(endpoint, data, label)

        def transmit(endpoint, segment):
            if segment.payload:
                rules.check(endpoint, segment)
            original_transmit(endpoint, segment)

        return (mock.patch.object(TcpEndpoint, "send", send),
                mock.patch.object(TcpEndpoint, "_transmit", transmit))

    def check(self, endpoint, segment) -> None:
        self.checked += 1
        seq, end = segment.seq, segment.seq + len(segment.payload)
        where = f"{endpoint.name}: segment [{seq}, {end})"
        owner = [r for r in self.sends.get(endpoint, ()) if r[0] <= seq < r[1]]
        if not owner or end > owner[0][1]:
            self.violations.append(f"{where} is not inside one send() range")
        elif segment.label != owner[0][2]:
            self.violations.append(f"{where} carries {segment.label!r}, its "
                                   f"send() was labelled {owner[0][2]!r}")
        sent = self.first_sent.setdefault(endpoint, set())
        if seq not in sent:
            sent.add(seq)
            if len(endpoint._inflight) > int(endpoint._cwnd):
                self.violations.append(
                    f"{where} first sent with {len(endpoint._inflight)} in "
                    f"flight past cwnd {endpoint._cwnd}")


def _run_checked(pair, shape: str, loss: float, seed: int, plan: str = "none"):
    """One replay with every ACK and data segment checked; (counters, ACKs
    checked, data segments checked, violations)."""
    base = SCENARIOS[shape]
    scenario = NetemConfig(f"{shape}@{loss}", loss=loss, rtt=base.rtt,
                           rate_bps=base.rate_bps)
    original = TcpEndpoint._handle_ack
    checked, violations = [0], []

    def handle_ack(self, ack):
        original(self, ack)
        checked[0] += 1
        violations.extend(_inflight_violations(self))

    rules = _WireRules()
    send_patch, transmit_patch = rules.patches()
    metrics = Metrics()
    with mock.patch.object(TcpEndpoint, "_handle_ack", handle_ack), \
            send_patch, transmit_patch:
        client, server = ScriptReplay(
            load_script(*pair, BufferPolicy.OPTIMIZED)).apps()
        run_simulated_handshake(
            client, server, scenario=scenario,
            netem_drbg=Drbg(f"tcp-invariants:{seed}"),
            cost_model=CostModel(), max_sim_seconds=60.0,
            plan=FAULT_PLANS[plan], metrics=metrics)
    return (metrics.snapshot()["counters"], checked[0], rules.checked,
            violations + rules.violations)


def _count(counters, suffix: str) -> int:
    return sum(value for name, value in counters.items()
               if name.endswith(suffix))


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(PAIRS), shape=st.sampled_from(SHAPES),
       loss=st.floats(min_value=0.0, max_value=0.2),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       plan=st.sampled_from(PLANS))
def test_inflight_stays_contiguous_and_drop_free_runs_never_retransmit(
        pair, shape, loss, seed, plan):
    counters, checked, segments, violations = _run_checked(
        pair, shape, loss, seed, plan)
    assert checked > 0 and segments > 0
    assert violations == []
    if plan == "none" and _count(counters, ".dropped") == 0:
        assert _count(counters, "retransmits") == 0


def test_the_counters_the_property_reads_are_live():
    """A lossy run shows drops and retransmits in the counters the
    property reads, so its drop-free branch is not vacuously true."""
    counters, _, _, violations = _run_checked(("x25519", "sphincs128"),
                                              "lte-m", 0.2, 0)
    assert violations == []
    assert _count(counters, ".dropped") > 0
    assert _count(counters, "retransmits") > 0


def test_the_wire_rules_catch_segments_that_break_them():
    """Each wire rule reports a segment that breaks it, so a clean run is
    not vacuously clean."""
    endpoint = TcpEndpoint(None, "client", "server", on_deliver=None)
    endpoint._cwnd = 1.0
    endpoint._inflight = {0: None, 10: None}
    rules = _WireRules()
    rules.sends[endpoint] = [(0, 10, "ClientHello"), (10, 20, "")]
    # spans two sends, then carries the wrong label; both past cwnd
    rules.check(endpoint, Segment("client", "server", seq=5, payload=b"x" * 10,
                                  ack=0, label="ClientHello"))
    rules.check(endpoint, Segment("client", "server", seq=10, payload=b"x" * 10,
                                  ack=0, label="ClientHello"))
    assert len(rules.violations) == 4
    assert "not inside one send() range" in rules.violations[0]
    assert "carries 'ClientHello'" in rules.violations[2]
    assert all("past cwnd" in v for v in rules.violations[1::2])
