"""netem-style link emulation: loss, delay, rate limiting — and faults.

Mirrors the paper's §5.4 scenarios, which place ``tc netem`` between client
and server. A link serializes frames at its rate (sequential: a frame waits
for the previous one to finish transmitting), applies one-way propagation
delay (RTT/2 per direction), and drops frames i.i.d. with the loss
probability — all driven by a forkable DRBG so runs are reproducible.

Stage order follows the real qdisc: netem decides loss *before* the rate
stage, so a dropped frame never occupies the serializer (the seed code had
this backwards, which overcharged the 1 Mbit/s lossy scenarios). The
remaining ``tc netem`` knobs — per-frame corruption, duplication, and
reordering — come from an optional :class:`repro.faults.FaultPlan`:

* **corrupt** flips one DRBG-chosen bit in the payload. In ``checksum``
  mode the frame still consumes link capacity but is discarded at the
  receiver (TCP checksum); in ``deliver`` mode the flipped bytes reach
  the TLS layer (the checksum-collision case that provokes alerts).
* **dup** re-enqueues the frame once, right behind itself — the duplicate
  serializes separately, exactly like ``tc netem duplicate``.
* **reorder** holds the selected frame back by ``reorder_delay`` so it
  arrives behind its successors. (``tc`` fast-paths the selected frame
  past the delayed ones instead; same reordering pressure, and holding
  back composes more simply with the serializer — see DESIGN.md §9.)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.crypto.drbg import Drbg
from repro.faults.plan import CORRUPT_DELIVER, FaultPlan
from repro.netsim.eventloop import EventLoop
from repro.netsim.packets import Segment


@dataclass(frozen=True)
class NetemConfig:
    """One emulated scenario (loss applies per frame, per direction)."""

    name: str
    loss: float = 0.0          # probability in [0, 1]
    rtt: float = 0.0           # seconds, split evenly across directions
    rate_bps: float = 10e9     # link rate in bits/second

    @property
    def one_way_delay(self) -> float:
        return self.rtt / 2.0


# The paper's Table 4 scenarios (Appendix A footnotes give LTE-M and 5G).
SCENARIOS = {
    "none": NetemConfig("none", loss=0.0, rtt=0.0, rate_bps=10e9),
    "high-loss": NetemConfig("high-loss", loss=0.10, rtt=0.0, rate_bps=10e9),
    "low-bandwidth": NetemConfig("low-bandwidth", loss=0.0, rtt=0.0, rate_bps=1e6),
    "high-delay": NetemConfig("high-delay", loss=0.0, rtt=1.0, rate_bps=10e9),
    "lte-m": NetemConfig("lte-m", loss=0.10, rtt=0.200, rate_bps=1e6),
    "5g": NetemConfig("5g", loss=0.04, rtt=0.044, rate_bps=880e6),
}


def split_scenario(spec: str) -> tuple[str, str]:
    """Parse a combined ``--scenario`` spec into (netem name, session name).

    Accepts a netem scenario (``lte-m``), a session scenario
    (``resume``), or a ``+``-joined combination (``lte-m+resume``), in
    either order. Missing components default to ``none`` / ``full``.
    """
    from repro.tls.scenarios import SESSION_SCENARIOS

    netem_name, session_name = "none", "full"
    netem_seen = session_seen = False
    for part in filter(None, (spec or "").split("+")):
        if part in SCENARIOS:
            if netem_seen:
                raise ValueError(
                    f"scenario spec {spec!r} names two netem scenarios")
            netem_name, netem_seen = part, True
        elif part in SESSION_SCENARIOS:
            if session_seen:
                raise ValueError(
                    f"scenario spec {spec!r} names two session scenarios")
            session_name, session_seen = part, True
        else:
            raise ValueError(
                f"unknown scenario component {part!r}; netem scenarios: "
                f"{sorted(SCENARIOS)}, session scenarios: "
                f"{sorted(SESSION_SCENARIOS)}")
    return netem_name, session_name


class Link:
    """One direction of the emulated path, with an optional passive tap."""

    def __init__(self, loop: EventLoop, config: NetemConfig, drbg: Drbg,
                 deliver: Callable[[Segment], None],
                 tap: Callable[[float, Segment], None] | None = None,
                 plan: FaultPlan | None = None, name: str = ""):
        self._loop = loop
        self._config = config
        self._drbg = drbg
        self._deliver = deliver
        self._tap = tap
        self._plan = plan if plan is not None and plan.active else None
        self.name = name or "link"
        # fault events (dropped, duplicated, reordered, corrupted); the
        # caller names and records them
        self.tally: Counter = Counter()
        self._busy_until = 0.0
        self._data_frames = 0  # corrupt_nth counts payload-bearing frames

    def _flip_bit(self, segment: Segment) -> Segment:
        """A copy of *segment* with one DRBG-chosen payload bit flipped."""
        payload = bytearray(segment.payload)
        index = self._drbg.randint_below(len(payload))
        payload[index] ^= 1 << self._drbg.randint_below(8)
        return Segment(segment.src, segment.dst, seq=segment.seq,
                       payload=bytes(payload), ack=segment.ack,
                       syn=segment.syn, push=segment.push,
                       is_ack_only=segment.is_ack_only, label=segment.label)

    def transmit(self, segment: Segment, _is_dup: bool = False) -> None:
        """Send one frame: fault stages, maybe drop, serialize, propagate.

        Fault draws happen only when the corresponding knob is active, so
        a plan-free link consumes exactly one DRBG value per frame (the
        loss draw) — the paper scenarios replay bit-identically.

        The tap is called here, at send time, with the moment the frame
        is on the wire (no event is scheduled for it). Those times never
        decrease along one link, so the tap sees frames in wire order; a
        frame timed after the run's horizon was never seen, and the
        caller drops its record after the run.
        """
        plan = self._plan
        corrupted = False
        duplicate = False
        extra_delay = 0.0
        if plan is not None:
            if segment.payload:
                self._data_frames += 1
                if plan.corrupt_nth and self._data_frames == plan.corrupt_nth:
                    corrupted = True
                elif plan.corrupt and self._drbg.random() < plan.corrupt:
                    corrupted = True
            # a duplicate is never duplicated again (tc netem semantics)
            if plan.dup and not _is_dup and self._drbg.random() < plan.dup:
                duplicate = True
            if plan.reorder and self._drbg.random() < plan.reorder:
                extra_delay = plan.reorder_delay
                self.tally["reordered"] += 1
        # netem drops in the qdisc, before the rate stage: a dropped frame
        # never occupies the serializer. The tap still records it (taps sit
        # on the fiber before the receiver-side emulation) at the moment it
        # would have reached the wire.
        if self._drbg.random() < self._config.loss:
            self.tally["dropped"] += 1
            if self._tap is not None:
                self._tap(max(self._loop.now, self._busy_until), segment)
            if duplicate:
                self.tally["duplicated"] += 1
                self.transmit(segment, _is_dup=True)
            return
        serialization = 8.0 * segment.wire_bytes / self._config.rate_bps
        start = max(self._loop.now, self._busy_until)
        done = start + serialization
        self._busy_until = done
        if self._tap is not None:
            # The optical tap sits right after the sender's NIC: it sees the
            # frame when fully on the wire (loss/corruption are emulated at
            # the receiving endpoint via tc, so the tap sees what was sent).
            self._tap(done, segment)
        deliverable = segment
        if corrupted:
            self.tally["corrupted"] += 1
            if plan.corrupt_mode == CORRUPT_DELIVER:
                deliverable = self._flip_bit(segment)
            else:
                # checksum mode: the frame burned link capacity but the
                # receiver's TCP checksum rejects it — never delivered
                deliverable = None
        if deliverable is not None:
            arrival = done + self._config.one_way_delay + extra_delay
            deliver = self._deliver
            self._loop.schedule(max(0.0, arrival - self._loop.now),
                                lambda: deliver(deliverable))
        if duplicate:
            self.tally["duplicated"] += 1
            self.transmit(segment, _is_dup=True)
