"""Simplified TCP with the features the paper's results hinge on.

- 3-way handshake (every measured TLS handshake rides a fresh connection,
  so the congestion window is always at its initial value — §5.4),
- MSS segmentation with PSH boundaries at TLS flush points,
- slow start from initcwnd = 10 segments (the Linux default), growing by
  segments acknowledged (ABC), so sparse ACKs don't stunt the window,
- GRO-style cumulative ACKs: immediate on PSH or out-of-order, every 8th
  in-order segment, otherwise a short delayed-ACK — matching a 10 Gbit/s
  receiver that coalesces segment trains (this is what keeps the client's
  byte count low and the paper's §5.5 amplification factors high),
- NewReno recovery episodes: three duplicate ACKs open an episode that
  cuts the window to 0.7 × the segments in flight and retransmits the
  oldest hole; each partial ACK inside the episode repairs exactly the
  next hole (no duplicate retransmissions into a fat bottleneck queue);
  a tail-loss-probe timer with exponential backoff is the last resort.
  This is what keeps the paper's lossy-scenario medians within a few
  RTTs.

CUBIC-style multiplicative decrease on every loss signal (ssthresh and
cwnd = 0.7 × flight, the Linux default β, floored at 2 segments, for
both a recovery episode and a probe-timer expiry) and linear growth
above ssthresh keep rate-limited lossy links (LTE-M) from collapsing
under retransmissions; receive-window flow control is omitted (handshake
flows never fill buffers).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable

from repro.faults.errors import TransportError
from repro.netsim.eventloop import EventLoop
from repro.netsim.packets import Segment
from repro.obs.tracer import NULL_TRACER

MSS = 1448
INIT_CWND = 10
INITIAL_RTO = 1.0
PTO_FLOOR = 0.025    # ~Linux TLP floor; dup-ACK (RACK) recovery is the
                     # fast path, the timer only catches tail losses
MAX_RETRIES = 30
ACK_EVERY = 8            # GRO-coalesced trains get one ACK per ~8 segments
DELAYED_ACK = 0.0002     # 200 us flush for trains that end without a PSH


class TcpEndpoint:
    """One side of a single TCP connection."""

    def __init__(self, loop: EventLoop, name: str, peer: str, *,
                 on_deliver: Callable[[bytes], None],
                 on_established: Callable[[], None] | None = None,
                 tracer=NULL_TRACER):
        self._loop = loop
        self.name = name
        self.peer = peer
        self._on_deliver = on_deliver
        self._on_established = on_established
        self._tracer = tracer
        self._track = f"tcp-{name}"
        self._link = None
        self.state = "closed"
        # sender: the flights send() was given and not yet fully sent, as
        # (seq of the first byte, data, label); sent segments live in
        # _inflight until acked, so a flight leaves once it is cut up
        self._unsent: deque[tuple[int, bytes, str]] = deque()
        self._snd_end = 0           # seq just past the last queued byte
        self._snd_nxt = 0
        self._snd_una = 0
        self._inflight: dict[int, Segment] = {}
        # MSS and INIT_CWND are module attributes read at call time, so
        # tests and ablations can patch them
        self._cwnd = float(INIT_CWND)
        self._ssthresh = float("inf")
        self._dup_acks = 0
        self._last_ack_seen = -1
        self._srtt: float | None = None
        self._rttvar = 0.0
        self._send_times: dict[int, float] = {}
        self._retransmitted: set[int] = set()
        self._in_recovery = False
        self._recover_point = 0
        self._pto_token = 0
        self._retries = 0
        # receiver
        self._rcv_nxt = 0
        self._ooo: dict[int, Segment] = {}
        self._segs_since_ack = 0
        self._delack_token = 0
        # the connection's facts, keyed by event (segments_sent, wire_bytes
        # including headers, retransmits, ...), and the length of each
        # send(); the caller names and records them
        self.tally: Counter = Counter()
        self.flights: list[int] = []
        # terminal failure (retransmission exhaustion): recorded, not raised
        self.failure: TransportError | None = None

    def attach_link(self, link) -> None:
        self._link = link

    # -- connection establishment ------------------------------------------
    def connect(self) -> None:
        if self.state != "closed":
            raise TransportError("connect on non-closed endpoint")
        self.state = "syn-sent"
        self._syn_time = self._loop.now
        self._transmit(Segment(self.name, self.peer, seq=0, payload=b"",
                               ack=0, syn=True))
        self._arm_pto(INITIAL_RTO)

    def listen(self) -> None:
        if self.state != "closed":
            raise TransportError("listen on non-closed endpoint")
        self.state = "listen"

    # -- application interface ------------------------------------------------
    def send(self, data: bytes, label: str = "") -> None:
        """Queue application bytes ending in a PSH boundary."""
        if not data:
            return
        self.flights.append(len(data))
        self._unsent.append((self._snd_end, data, label))
        self._snd_end += len(data)
        if self.state == "established":
            self._pump()

    # -- internals --------------------------------------------------------------
    def _transmit(self, segment: Segment) -> None:
        self.tally["segments_sent"] += 1
        self.tally["wire_bytes"] += segment.wire_bytes
        self._link.transmit(segment)

    def _pump(self) -> None:
        """Send as much queued data as the congestion window allows."""
        while self._unsent and len(self._inflight) < int(self._cwnd):
            # segments are cut from one flight and never span a push
            # boundary: each TLS flush goes out as its own segment train
            # (as a real socket write does), which is what makes
            # multi-push server flights exceed initcwnd
            start, data, label = self._unsent[0]
            seq = self._snd_nxt
            offset = seq - start
            end = min(offset + MSS, len(data))
            push = end == len(data)
            if push:
                self._unsent.popleft()
            segment = Segment(self.name, self.peer, seq=seq,
                              payload=data[offset:end], ack=self._rcv_nxt,
                              push=push, label=label)
            self._inflight[seq] = segment
            self._send_times[seq] = self._loop.now
            self._snd_nxt = start + end
            self._transmit(segment)
        if self._inflight:
            self._arm_pto()

    def _arm_pto(self, override: float | None = None) -> None:
        self._pto_token += 1
        token = self._pto_token
        if override is not None:
            delay = override
        elif self._srtt is None:
            delay = INITIAL_RTO
        else:
            delay = max(self._srtt + 4.0 * self._rttvar, 2.0 * self._srtt, PTO_FLOOR)
        delay *= 2 ** min(self._retries, 6)  # Linux-style RTO cap
        # safety margin: a timer must never tie with the ACK it guards
        # (ties resolve in schedule order and would fire spuriously)
        delay = delay * 1.1 + 0.002
        self._loop.schedule(delay, lambda: self._on_pto(token))

    def _fail(self, reason: str) -> None:
        """Give up on the connection: terminal state, typed failure recorded.

        Raising here would unwind through the event loop and kill the whole
        campaign; instead the endpoint goes quiet and the testbed reads
        ``failure`` into a transport-error outcome.
        """
        self.failure = TransportError(reason)
        self.state = "failed"
        self._pto_token += 1     # cancel the retransmission timer
        self._delack_token += 1  # and any pending delayed ACK
        self.tally["failed"] += 1
        if self._tracer.enabled:
            self._tracer.instant(self._track, "transport-failed", self._loop.now,
                                 reason=reason, retries=self._retries)

    def _on_pto(self, token: int) -> None:
        if token != self._pto_token:
            return
        if self.state == "syn-sent":
            self._retries += 1
            if self._retries > MAX_RETRIES:
                self._fail("SYN retransmission limit reached")
                return
            if self._tracer.enabled:
                self._tracer.instant(self._track, "syn-retransmit",
                                     self._loop.now, retries=self._retries)
            self.tally["syn_retransmits"] += 1
            self._transmit(Segment(self.name, self.peer, seq=0, payload=b"",
                                   ack=0, syn=True))
            self._arm_pto(INITIAL_RTO)
            return
        if not self._inflight:
            return
        self._retries += 1
        if self._retries > MAX_RETRIES:
            self._fail("retransmission limit reached")
            return
        if self._tracer.enabled:
            self._tracer.instant(self._track, "pto-fired", self._loop.now,
                                 retries=self._retries)
        self._enter_recovery()
        first = min(self._inflight)
        self._retransmit(first)
        self._arm_pto()

    def _enter_recovery(self) -> None:
        """CUBIC-style multiplicative decrease (beta = 0.7, the Linux
        default congestion control) on a loss signal."""
        self._ssthresh = max(len(self._inflight) * 0.7, 2.0)
        self._cwnd = max(self._ssthresh, 2.0)
        if self._tracer.enabled:
            self._tracer.instant(self._track, "enter-recovery", self._loop.now,
                                 cwnd=self._cwnd, ssthresh=self._ssthresh)
            self._tracer.counter(self._track, "cwnd", self._loop.now, self._cwnd)
        self.tally["recovery_episodes"] += 1

    def _retransmit(self, seq: int) -> None:
        segment = self._inflight[seq]
        self._retransmitted.add(seq)
        if self._tracer.enabled:
            self._tracer.instant(self._track, "retransmit", self._loop.now,
                                 seq=seq, bytes=segment.wire_bytes)
        self.tally["retransmits"] += 1
        self._transmit(segment)

    # -- segment reception ---------------------------------------------------------
    def on_segment(self, segment: Segment) -> None:
        if self.state == "failed":
            return  # terminal: late arrivals are dead letters
        if segment.syn and not segment.payload:
            self._handle_syn(segment)
            return
        if self.state != "established":
            if self.state == "syn-rcvd":
                # any non-SYN segment from the peer completes our handshake
                self._become_established()
            else:
                return  # stray segment in listen/syn-sent/closed
        self._handle_ack(segment.ack)
        if segment.payload:
            self._handle_data(segment)

    def _handle_syn(self, segment: Segment) -> None:
        if self.state == "listen":
            self.state = "syn-rcvd"
            self._transmit(Segment(self.name, self.peer, seq=0, payload=b"",
                                   ack=0, syn=True))
            self._arm_pto(INITIAL_RTO)
        elif self.state == "syn-sent":
            # SYN-ACK: complete the handshake (and take an RTT sample)
            if self._retries == 0:
                self._srtt = self._loop.now - self._syn_time
            self._become_established()
            self._send_ack()
            if self._on_established is not None:
                self._on_established()
            self._pump()
        elif self.state == "syn-rcvd":
            # duplicate SYN (our SYN-ACK was lost): resend SYN-ACK
            self._transmit(Segment(self.name, self.peer, seq=0, payload=b"",
                                   ack=0, syn=True))

    def _become_established(self) -> None:
        self.state = "established"
        self._retries = 0
        self._pto_token += 1  # cancel handshake timer

    def _handle_ack(self, ack: int) -> None:
        if ack > self._snd_una:
            partial = self._in_recovery and ack < self._recover_point
            if self._in_recovery and ack >= self._recover_point:
                self._in_recovery = False
            # in-flight segments are contiguous and keyed in ascending seq
            # order (a retransmission keeps its slot), so the acked ones
            # are a prefix: stop at the first that ends past the ACK
            newly_acked = []
            for seq, segment in self._inflight.items():
                if seq + len(segment.payload) > ack:
                    break
                newly_acked.append(seq)
            for seq in newly_acked:
                sent_at = self._send_times.pop(seq, None)
                if sent_at is not None and seq not in self._retransmitted:
                    sample = self._loop.now - sent_at
                    if self._srtt is None:
                        self._srtt = sample
                        self._rttvar = sample / 2
                    else:
                        self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
                        self._srtt = 0.875 * self._srtt + 0.125 * sample
                del self._inflight[seq]
                if self._cwnd < self._ssthresh:
                    self._cwnd += 1          # slow start
                else:
                    self._cwnd += 1.0 / self._cwnd  # congestion avoidance
            if newly_acked and self._tracer.enabled:
                # one cwnd sample per ACK that moved the window, not per segment
                self._tracer.counter(self._track, "cwnd", self._loop.now, self._cwnd)
            self._snd_una = ack
            self._retransmitted = {r for r in self._retransmitted if r >= ack}
            self._dup_acks = 0
            self._last_ack_seen = ack
            self._retries = 0
            if partial and self._inflight:
                # NewReno partial ACK: the next in-flight segment is the
                # next hole — repair it immediately, exactly once
                hole = min(self._inflight)
                if hole not in self._retransmitted:
                    self._retransmit(hole)
            if self._inflight:
                self._arm_pto()
            else:
                self._pto_token += 1  # nothing outstanding: cancel timer
            self._pump()
        elif ack == self._last_ack_seen and self._inflight:
            # Duplicate ACK: the receiver holds out-of-order data. The only
            # reordering source in this simulator is loss, so the first
            # dup-ACK already identifies a hole (RACK with a zero reorder
            # window). Inside the episode, each further dup-ACK repairs the
            # next not-yet-retransmitted hole — approximating SACK's
            # one-RTT multi-hole recovery.
            self._dup_acks += 1
            if not self._in_recovery:
                self._in_recovery = True
                self._recover_point = self._snd_nxt
                self._enter_recovery()
                self._retransmit(min(self._inflight))
            else:
                # in-flight keys ascend, so the first match is the oldest hole
                hole = next((seq for seq in self._inflight
                             if seq < self._recover_point
                             and seq not in self._retransmitted), None)
                if hole is not None:
                    self._retransmit(hole)

    def _handle_data(self, segment: Segment) -> None:
        seq = segment.seq
        if seq == self._rcv_nxt:
            self._rcv_nxt += len(segment.payload)
            deliverable = bytearray(segment.payload)
            while self._rcv_nxt in self._ooo:
                queued = self._ooo.pop(self._rcv_nxt)
                deliverable.extend(queued.payload)
                self._rcv_nxt += len(queued.payload)
            self._segs_since_ack += 1
            if segment.push or self._segs_since_ack >= ACK_EVERY or self._ooo:
                self._send_ack()
            else:
                self._arm_delayed_ack()
            self._on_deliver(bytes(deliverable))
        elif seq > self._rcv_nxt:
            self._ooo[seq] = segment
            self._send_ack()  # dup ack signals the gap
        else:
            self._send_ack()  # duplicate data: re-ack

    def _arm_delayed_ack(self) -> None:
        self._delack_token += 1
        token = self._delack_token
        self._loop.schedule(DELAYED_ACK, lambda: self._on_delayed_ack(token))

    def _on_delayed_ack(self, token: int) -> None:
        if token == self._delack_token and self._segs_since_ack:
            self._send_ack()

    def _send_ack(self) -> None:
        self._segs_since_ack = 0
        self._delack_token += 1  # cancel any pending delayed ACK
        self._transmit(Segment(self.name, self.peer, seq=self._snd_nxt, payload=b"",
                               ack=self._rcv_nxt, is_ack_only=True))
