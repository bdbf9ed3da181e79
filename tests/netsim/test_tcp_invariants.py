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
  retransmits nothing (reordering alone triggers duplicate ACKs);
* every retransmission timer that fires either retransmits or fails the
  connection, and retransmits no earlier than the deadline of the
  latest arm (the loop's own ``now + delay``, not ``now - t_arm``,
  which rounds);
* consecutive timer retransmissions of one kind (SYN or data) with no
  advancing ACK between them back off: the armed delays, less the 2 ms
  margin, double while ``_retries`` is at most 6 and stay flat after;
* after every loss signal (a recovery episode or a timer expiry), cwnd
  is ``max(0.7 * segments in flight at the signal, 2)``.

A run whose client never sees a SYN-ACK sends no data and handles no
ACK; it must time out after backed-off SYN retransmissions only.

The rules are observed through wrappers of ``TcpEndpoint.send``,
``_transmit``, ``_handle_ack``, ``_arm_pto``, ``_on_pto``,
``_enter_recovery`` and ``EventLoop.schedule``, so they hold the model
to its wire and timer behaviour, not to how it stores its queue.
"""

import contextlib
import math
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.core.experiment import load_script
from repro.crypto.drbg import Drbg
from repro.faults.plan import FAULT_PLANS
from repro.netsim.costmodel import CostModel
from repro.netsim.eventloop import EventLoop
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


class _TimerRules:
    """Wrappers that check each timer expiry against the arm it fired on,
    and each loss signal against the window it leaves."""

    MARGIN = 0.002      # _arm_pto's additive safety margin

    def __init__(self):
        self.arming = None      # the endpoint inside _arm_pto, if any
        self.arms: dict = {}    # endpoint -> (deadline, delay, retries)
        # endpoint -> (kind, delay) of its last timer retransmission since
        # its last advancing ACK
        self.previous: dict = {}
        # timer callbacks, timer retransmissions, backoff pairs, loss signals
        self.counts: Counter = Counter()
        self.violations: list[str] = []

    def patches(self):
        original_arm = TcpEndpoint._arm_pto
        original_schedule = EventLoop.schedule
        original_on_pto = TcpEndpoint._on_pto
        original_enter = TcpEndpoint._enter_recovery
        rules = self

        def arm_pto(endpoint, override=None):
            rules.arming = endpoint
            try:
                original_arm(endpoint, override)
            finally:
                rules.arming = None

        def schedule(loop, delay, callback):
            if rules.arming is not None:
                rules.arms[rules.arming] = (loop.now + delay, delay,
                                            rules.arming._retries)
            return original_schedule(loop, delay, callback)

        def on_pto(endpoint):
            tally = endpoint.tally
            before = (tally["retransmits"], tally["syn_retransmits"])
            failed = tally["failed"]
            kind = "syn" if endpoint.state == "syn-sent" else "data"
            arm = rules.arms.get(endpoint)
            original_on_pto(endpoint)
            rules.fired(endpoint, kind, arm, endpoint._loop.now,
                        retransmitted=(tally["retransmits"],
                                       tally["syn_retransmits"]) != before,
                        failed=tally["failed"] != failed)

        def enter_recovery(endpoint):
            flight = len(endpoint._inflight)
            original_enter(endpoint)
            rules.cut(endpoint, flight)

        return (mock.patch.object(TcpEndpoint, "_arm_pto", arm_pto),
                mock.patch.object(EventLoop, "schedule", schedule),
                mock.patch.object(TcpEndpoint, "_on_pto", on_pto),
                mock.patch.object(TcpEndpoint, "_enter_recovery", enter_recovery))

    def ack_advanced(self, endpoint) -> None:
        self.previous.pop(endpoint, None)

    def fired(self, endpoint, kind: str, arm, now: float, *,
              retransmitted: bool, failed: bool) -> None:
        self.counts["timer callbacks"] += 1
        where = f"{endpoint.name}: {kind} timer at {now!r}"
        if failed:
            return
        if not retransmitted:
            self.violations.append(f"{where} neither retransmitted nor failed")
            return
        self.counts["timer retransmissions"] += 1
        deadline, delay, retries = arm
        if now < deadline:
            self.violations.append(f"{where} retransmitted before the armed "
                                   f"deadline {deadline!r}")
        previous = self.previous.get(endpoint)
        if previous is not None and previous[0] == kind:
            self.counts["backoff pairs"] += 1
            ratio = (delay - self.MARGIN) / (previous[1] - self.MARGIN)
            expected = 2.0 if retries <= 6 else 1.0
            if not math.isclose(ratio, expected, rel_tol=1e-9):
                self.violations.append(
                    f"{where}: delay {delay!r} after {previous[1]!r} backs off "
                    f"by {ratio!r} at retries {retries}, want {expected}")
        self.previous[endpoint] = (kind, delay)

    def cut(self, endpoint, flight: int) -> None:
        self.counts["loss signals"] += 1
        expected = max(0.7 * flight, 2.0)
        if endpoint._cwnd != expected:
            self.violations.append(
                f"{endpoint.name}: cwnd {endpoint._cwnd!r} after a loss signal "
                f"with {flight} in flight, want {expected!r}")


def _run_checked(pair, shape: str, loss: float, seed: int, plan: str = "none"):
    """One replay with every ACK, data segment and timer checked; (counters,
    ACKs checked, data segments checked, timer counts, violations)."""
    base = SCENARIOS[shape]
    scenario = NetemConfig(f"{shape}@{loss}", loss=loss, rtt=base.rtt,
                           rate_bps=base.rate_bps)
    original = TcpEndpoint._handle_ack
    checked, violations = [0], []

    def handle_ack(self, ack):
        before = self._snd_una
        original(self, ack)
        checked[0] += 1
        violations.extend(_inflight_violations(self))
        if self._snd_una > before:
            timers.ack_advanced(self)

    rules = _WireRules()
    timers = _TimerRules()
    metrics = Metrics()
    with contextlib.ExitStack() as stack:
        for patch in (mock.patch.object(TcpEndpoint, "_handle_ack", handle_ack),
                      *rules.patches(), *timers.patches()):
            stack.enter_context(patch)
        client, server = ScriptReplay(
            load_script(*pair, BufferPolicy.OPTIMIZED)).apps()
        run_simulated_handshake(
            client, server, scenario=scenario,
            netem_drbg=Drbg(f"tcp-invariants:{seed}"),
            cost_model=CostModel(), max_sim_seconds=60.0,
            plan=FAULT_PLANS[plan], metrics=metrics)
    return (metrics.snapshot()["counters"], checked[0], rules.checked,
            timers.counts, violations + rules.violations + timers.violations)


def _count(counters, suffix: str) -> int:
    return sum(value for name, value in counters.items()
               if name.endswith(suffix))


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(PAIRS), shape=st.sampled_from(SHAPES),
       loss=st.floats(min_value=0.0, max_value=0.2),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       plan=st.sampled_from(PLANS))
# every SYN-ACK the server sends is dropped: the client never establishes
@example(pair=("kyber512", "dilithium2"), shape="high-loss", loss=0.1875,
         seed=3_180_542_454, plan="dup")
def test_inflight_stays_contiguous_and_drop_free_runs_never_retransmit(
        pair, shape, loss, seed, plan):
    counters, checked, segments, timers, violations = _run_checked(
        pair, shape, loss, seed, plan)
    assert violations == []
    if segments == 0:
        # no data segment left the client, so it never saw a SYN-ACK: the
        # run times out with only backed-off SYN timers, and those are checked
        syn_retransmits = _count(counters, "syn_retransmits")
        assert checked == 0
        assert counters.get("handshake.failures.timeout") == 1
        assert _count(counters, ".dropped") > 0
        assert syn_retransmits > 0
        assert timers["timer retransmissions"] == syn_retransmits
        assert timers["backoff pairs"] == syn_retransmits - 1
    else:
        assert checked > 0
    if plan == "none" and _count(counters, ".dropped") == 0:
        assert _count(counters, "retransmits") == 0


def test_the_counters_the_property_reads_are_live():
    """A lossy run shows drops and retransmits in the counters the
    property reads, so its drop-free branch is not vacuously true."""
    counters, _, _, _, violations = _run_checked(("x25519", "sphincs128"),
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


def test_the_timer_rules_are_live():
    """A lossy run has timer retransmissions, backoff pairs and loss
    signals, so the timer rules are not vacuously kept."""
    _, _, _, timers, violations = _run_checked(("x25519", "sphincs128"),
                                               "lte-m", 0.2, 5)
    assert violations == []
    assert timers["timer retransmissions"] > 0
    assert timers["backoff pairs"] > 0
    assert timers["loss signals"] > 0


def test_the_timer_rules_catch_timers_that_break_them():
    """Each timer rule reports an expiry or a cut that breaks it."""
    endpoint = TcpEndpoint(None, "client", "server", on_deliver=None)
    rules = _TimerRules()
    # a timer that does nothing; one that retransmits early; then a data
    # timer whose delay backs off by 3, not 2
    rules.fired(endpoint, "data", (1.0, 0.1, 0), 1.0,
                retransmitted=False, failed=False)
    rules.fired(endpoint, "data", (1.0, 0.102, 0), 0.5,
                retransmitted=True, failed=False)
    rules.fired(endpoint, "data", (2.0, 0.302, 1), 2.0,
                retransmitted=True, failed=False)
    endpoint._cwnd = 10.0
    endpoint._inflight = {0: None}
    rules.cut(endpoint, 10)
    assert len(rules.violations) == 4
    assert "neither retransmitted nor failed" in rules.violations[0]
    assert "before the armed deadline" in rules.violations[1]
    assert "backs off by" in rules.violations[2]
    assert "want 7.0" in rules.violations[3]
    # an advancing ACK ends the backoff run; a failure is no violation
    rules.ack_advanced(endpoint)
    rules.fired(endpoint, "data", (3.0, 0.052, 0), 3.0,
                retransmitted=True, failed=False)
    rules.fired(endpoint, "data", (4.0, 0.1, 30), 4.0,
                retransmitted=False, failed=True)
    assert len(rules.violations) == 4
