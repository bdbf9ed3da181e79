"""Simulated single-core hosts running the sans-io TLS state machines.

A host's CPU serializes all work: crypto operations advance a busy-until
mark by the cost model's price, and outgoing TLS flights reach TCP only
once the CPU gets there. This is what makes the paper's §5.2 effect
emerge: with the optimized flush policy the *client* burns its decaps /
verification time while the *server* is still signing.

Every charge lands in one running ledger, :attr:`Host.cpu_by_library`
(library -> seconds, the white-box split of Table 3), and, while
tracing, in one leaf span on the host's CPU track. Charges arrive as
``(seconds, library)`` prices: ops are priced once per
:class:`~repro.netsim.costmodel.CostModel` (:meth:`CostModel.price`),
packet and tooling work when the model is built.
"""

from __future__ import annotations

from repro.netsim.costmodel import CostModel, op_label
from repro.netsim.eventloop import EventLoop
from repro.obs.tracer import NULL_TRACER
from repro.tls.actions import Compute, CryptoOp, Send
from repro.tls.errors import TlsError


class Host:
    """Glue between a TLS state machine, TCP, and the cost model."""

    def __init__(self, name: str, role: str, loop: EventLoop, cost_model: CostModel,
                 tracer=NULL_TRACER):
        self.name = name
        self.role = role  # "client" | "server"
        self._loop = loop
        self._cost = cost_model
        self._tracer = tracer
        self._track = f"{name}-cpu"
        # per-packet kernel + driver work is the same for every packet:
        # the model's prices, with their span names
        self._packet_costs = tuple((seconds, library, f"packet:{library}")
                                   for seconds, library in cost_model.packet_prices)
        self.cpu_by_library: dict[str, float] = {}
        self._cpu_free = 0.0
        self.tcp = None   # attached later
        self._tls_receive = None
        self.failure: Exception | None = None

    def attach(self, tcp, tls_receive) -> None:
        self.tcp = tcp
        self._tls_receive = tls_receive

    # -- CPU accounting ------------------------------------------------------
    def _charge(self, at: float, seconds: float, library: str,
                name: str | CryptoOp) -> float:
        """Run *seconds* of *library* work on the CPU from *at*; return
        when it finishes.

        The ledger adds ``end - at`` (not *seconds*) so each library's sum
        is the one the trace's leaf spans add up to. *name* is the span
        name, or the CryptoOp whose label it is (formatted, with the op's
        size, only while tracing).
        """
        end = at + seconds
        if seconds > 0:
            ledger = self.cpu_by_library
            ledger[library] = ledger.get(library, 0.0) + (end - at)
            if self._tracer.enabled and end > at:
                if isinstance(name, str):
                    self._tracer.span(self._track, name, at, end, cat=library)
                else:
                    self._tracer.span(self._track, op_label(name), at, end,
                                      cat=library, size=name.size)
        return end

    def _run_ops(self, at: float, ops) -> float:
        price, role = self._cost.price, self.role
        for op in ops:
            seconds, library = price(op, role)
            at = self._charge(at, seconds, library, op)
        return at

    def charge_packet(self) -> None:
        """Per-packet kernel + driver work (tally; negligible latency)."""
        at = max(self._loop.now, self._cpu_free)
        for seconds, library, name in self._packet_costs:
            at = self._charge(at, seconds, library, name)
        self._cpu_free = at

    def charge_tooling(self) -> None:
        at = max(self._loop.now, self._cpu_free)
        seconds, library = self._cost.tooling_price
        self._cpu_free = self._charge(at, seconds, library, "tooling")

    # -- TLS action processing ---------------------------------------------------
    def process_actions(self, actions) -> None:
        """Execute a TLS action list starting when the CPU is free."""
        at = max(self._loop.now, self._cpu_free)
        tracing = self._tracer.enabled and bool(actions)
        if tracing:
            # container span wrapping the whole batch; its children are the
            # per-op spans _run_ops records (flame.CONTAINER_CAT excludes it
            # from library sums)
            sends = [a.label for a in actions if isinstance(a, Send)]
            self._tracer.begin(self._track, "tls-actions"
                               + (f" →{'/'.join(sends)}" if sends else ""),
                               at, cat="batch")
        for action in actions:
            if isinstance(action, Compute):
                at = self._run_ops(at, action.ops)
            elif isinstance(action, Send):
                data, label = action.data, action.label
                delay = max(0.0, at - self._loop.now)
                self._loop.schedule(delay, lambda d=data, l=label: self.tcp.send(d, l))
        if tracing:
            self._tracer.end(self._track, at)
        self._cpu_free = at

    def on_tcp_deliver(self, data: bytes) -> None:
        """TCP hands up in-order bytes; run the TLS machine on them."""
        if self.failure is not None:
            return
        try:
            actions = self._tls_receive(data)
        except TlsError as exc:  # handshake failure: record, stop driving
            self.failure = exc
            return
        self.process_actions(actions)
