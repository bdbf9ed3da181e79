"""The 3-node testbed: client host, server host, tapped links between them.

``Testbed.run_handshake`` executes one complete TLS 1.3 handshake over
simulated TCP and returns a :class:`HandshakeTrace` with everything the
paper measures: the two wire-visible phases, data volumes and packet
counts (tallied once from the tap), and per-library CPU time on both
hosts (each host's ledger, :attr:`repro.netsim.hosts.Host.cpu_by_library`).

Any :class:`App` can sit on a host: the real ``TlsClient``/``TlsServer``
run as they are, and *scripted* endpoints (recorded action scripts, see
:mod:`repro.netsim.scripted`) replay them, so a 60-second measurement
period does not have to re-run heavyweight crypto for every sequential
handshake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.crypto.drbg import Drbg
from repro.faults.outcome import SUCCESS, HandshakeOutcome
from repro.faults.plan import FaultPlan
from repro.netsim.costmodel import CostModel
from repro.netsim.eventloop import EventLoop
from repro.netsim.hosts import Host
from repro.netsim.netem import Link, NetemConfig, SCENARIOS
from repro.netsim.packets import HEADER_OVERHEAD
from repro.netsim.tcp import MSS, TcpEndpoint
from repro.netsim.timestamper import Timestamper
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.tls.certs import Certificate, TrustStore
from repro.tls.errors import PeerAlert, TlsError
from repro.tls.server import BufferPolicy


class App(Protocol):
    """What a host runs: produce actions on connect / on received bytes."""

    def start(self) -> list: ...          # client only: its first flight
    def receive(self, data: bytes) -> list: ...
    @property
    def handshake_complete(self) -> bool: ...
    # terminal failure bookkeeping (False/None on apps that cannot fail)
    failed: bool
    failure: Exception | None


@dataclass(frozen=True)
class HandshakeTrace:
    part_a: float                  # CH -> SH (seconds)
    part_b: float                  # SH -> client Finished
    total: float                   # CH -> client Finished
    wall_end: float                # when the last event settled (incl. ACKs)
    client_wire_bytes: int
    server_wire_bytes: int
    client_packets: int
    server_packets: int
    client_cpu: dict               # library -> seconds
    server_cpu: dict
    flight_labels: tuple[str, ...]
    outcome: HandshakeOutcome = SUCCESS  # how the handshake ended
    # absolute phase timestamps on the simulated clock (0 = TCP connect);
    # zeroed, like the phase durations, when no complete handshake happened
    t_ch: float = 0.0                    # ClientHello on the wire
    t_sh: float = 0.0                    # ServerHello flight starts
    t_fin: float = 0.0                   # client Finished on the wire
    # connect -> first application byte back at the client: the client
    # Finished timestamp plus one analytic MSS transit of the response
    ttfb: float = 0.0


def first_byte_transit(scenario: NetemConfig) -> float:
    """One-way flight time of the first application-data segment: one
    full MSS with TCP/IP/Ethernet framing."""
    wire_bits = 8.0 * (MSS + HEADER_OVERHEAD)
    return scenario.one_way_delay + wire_bits / scenario.rate_bps


def _trace_wire(tracer, records) -> None:
    """One instant per tapped frame on its direction's ``wire-*`` track."""
    for record in records:
        segment = record.segment
        if segment.syn:
            name = "SYN"
        elif segment.label:
            name = segment.label
        elif segment.is_ack_only:
            name = "ACK"
        else:
            name = "seg"
        tracer.instant(f"wire-{record.direction}", name, record.time,
                       cat="wire", seq=segment.seq, bytes=segment.wire_bytes)


def _determine_outcome(client_app, server_app, client_tcp, server_tcp,
                       client_host, server_host, *, scenario_name: str,
                       max_sim_seconds: float) -> HandshakeOutcome:
    """Classify how a non-successful run ended (checked in causal order)."""
    # a TLS endpoint aborted: the alert originator is authoritative
    for app in (client_app, server_app):
        failure = app.failure if app.failed else None
        if isinstance(failure, TlsError) and not isinstance(failure, PeerAlert):
            return HandshakeOutcome.from_alert(failure.alert, detail=str(failure))
    for app in (client_app, server_app):
        if app.failed and isinstance(app.failure, PeerAlert):
            return HandshakeOutcome.from_alert(app.failure.code,
                                               detail=str(app.failure))
    # host backstop (a TlsError that escaped the endpoint's own guard)
    for host in (client_host, server_host):
        if isinstance(host.failure, TlsError):
            return HandshakeOutcome.from_alert(host.failure.alert,
                                               detail=str(host.failure))
    # the transport gave up
    for tcp in (client_tcp, server_tcp):
        if tcp.failure is not None:
            return HandshakeOutcome.transport(f"{tcp.name}: {tcp.failure}")
    # nothing failed, nothing finished: the clock ran out
    return HandshakeOutcome.timeout(
        f"incomplete after {max_sim_seconds} simulated seconds "
        f"(scenario {scenario_name})")


def run_simulated_handshake(client_app: App, server_app: App, *,
                            scenario: NetemConfig, netem_drbg: Drbg,
                            cost_model: CostModel,
                            max_sim_seconds: float = 120.0,
                            plan: FaultPlan | None = None,
                            tracer=NULL_TRACER,
                            metrics=NULL_METRICS) -> HandshakeTrace:
    """Wire two apps through TCP + netem + taps and run to a typed outcome.

    Never raises on handshake failure: every run ends in the trace's
    ``outcome`` (success, alert, timeout, or transport-error), with the
    timing fields zeroed when no complete handshake happened. *plan*
    layers fault injection (corruption/duplication/reordering) on both
    link directions. *tracer* / *metrics* default to the null
    implementations: an un-observed run takes exactly the
    pre-observability code paths and produces bit-identical traces.
    This is the one writer of per-handshake instruments: TCP and netem
    keep per-connection tallies, named here after the event loop settles.
    The links tap each frame as they send it; after the loop, the records
    timed past *max_sim_seconds* are cut (those frames were not on the
    wire when the run ended) and the kept ones become the ``wire-*``
    trace instants.
    """
    loop = EventLoop()
    tap = Timestamper()
    client_host = Host("client", "client", loop, cost_model, tracer=tracer)
    server_host = Host("server", "server", loop, cost_model, tracer=tracer)

    def client_established():
        client_host.process_actions(client_app.start())

    client_tcp = TcpEndpoint(loop, "client", "server",
                             on_deliver=client_host.on_tcp_deliver,
                             on_established=client_established,
                             tracer=tracer)
    server_tcp = TcpEndpoint(loop, "server", "client",
                             on_deliver=server_host.on_tcp_deliver,
                             tracer=tracer)

    def deliver_to_server(segment):
        server_host.charge_packet()
        server_tcp.on_segment(segment)

    def deliver_to_client(segment):
        client_host.charge_packet()
        client_tcp.on_segment(segment)

    c2s = Link(loop, scenario, netem_drbg.fork("c2s"),
               deliver=deliver_to_server, tap=tap.tap("c2s"),
               plan=plan, name="c2s")
    s2c = Link(loop, scenario, netem_drbg.fork("s2c"),
               deliver=deliver_to_client, tap=tap.tap("s2c"),
               plan=plan, name="s2c")
    client_tcp.attach_link(c2s)
    server_tcp.attach_link(s2c)
    client_host.attach(client_tcp, client_app.receive)
    server_host.attach(server_tcp, server_app.receive)
    client_host.charge_tooling()
    server_host.charge_tooling()

    server_tcp.listen()
    client_tcp.connect()
    loop.run(until=max_sim_seconds)
    tap.cut(max_sim_seconds)
    if tracer.enabled:
        _trace_wire(tracer, tap.records)

    outcome = SUCCESS
    if not (client_app.handshake_complete and server_app.handshake_complete):
        outcome = _determine_outcome(
            client_app, server_app, client_tcp, server_tcp,
            client_host, server_host,
            scenario_name=scenario.name, max_sim_seconds=max_sim_seconds)

    reading = tap.read()
    # end of the handshake's wire activity (stale cancelled timers may have
    # advanced loop.now far beyond the last real packet)
    wall_end = reading.last_time if reading.last_time is not None else loop.now
    ttfb = 0.0
    if outcome.ok:
        t_ch, t_sh, t_fin = reading.phase_times()
        ttfb = t_fin + first_byte_transit(scenario)
    else:
        t_ch = t_sh = t_fin = 0.0  # no complete handshake: no phase timings
        if tracer.enabled:
            tracer.instant("phases", f"failed:{outcome.key}", wall_end,
                           cat="phase", detail=outcome.detail)
    if tracer.enabled and outcome.ok:
        # the phase lane Figure 1 defines, nested under one root span that
        # covers the entire simulated run (SYN to last trailing ACK)
        tracer.begin("phases", "handshake", 0.0, cat="batch",
                     scenario=scenario.name)
        tracer.span("phases", "tcp-connect", 0.0, t_ch, cat="phase")
        tracer.span("phases", "partA (CH..SH)", t_ch, t_sh, cat="phase")
        tracer.span("phases", "partB (SH..CliFin)", t_sh, t_fin, cat="phase")
        tracer.span("phases", "tail (trailing ACKs)", t_fin, wall_end, cat="phase")
        tracer.end("phases", wall_end)
    client_wire_bytes = reading.wire_bytes["c2s"]
    server_wire_bytes = reading.wire_bytes["s2c"]
    client_packets = reading.packets["c2s"]
    server_packets = reading.packets["s2c"]
    if metrics.enabled:
        for tcp in (client_tcp, server_tcp):
            for event, count in tcp.tally.items():
                metrics.inc(f"tcp.{tcp.name}.{event}", count)
            if tcp.flights:
                metrics.histogram(f"tcp.{tcp.name}.flight_bytes").observe_many(
                    tcp.flights)
        for link in (c2s, s2c):
            for event, count in link.tally.items():
                metrics.inc(f"netem.{link.name}.{event}", count)
        if outcome.ok:
            metrics.observe("handshake.part_a", t_sh - t_ch)
            metrics.observe("handshake.part_b", t_fin - t_sh)
            metrics.observe("handshake.total", t_fin - t_ch)
            metrics.observe("handshake.ttfb", ttfb)
            for host in (client_host, server_host):
                for lib, seconds in host.cpu_by_library.items():
                    metrics.inc(f"cpu.{host.role}.{lib}", seconds)
        else:
            metrics.inc(f"handshake.failures.{outcome.key}")
        metrics.inc("wire.c2s.bytes", client_wire_bytes)
        metrics.inc("wire.s2c.bytes", server_wire_bytes)
        metrics.inc("wire.c2s.packets", client_packets)
        metrics.inc("wire.s2c.packets", server_packets)
        metrics.inc("handshake.count")
    return HandshakeTrace(
        part_a=t_sh - t_ch,
        part_b=t_fin - t_sh,
        total=t_fin - t_ch,
        wall_end=wall_end,
        client_wire_bytes=client_wire_bytes,
        server_wire_bytes=server_wire_bytes,
        client_packets=client_packets,
        server_packets=server_packets,
        client_cpu=client_host.cpu_by_library,
        server_cpu=server_host.cpu_by_library,
        flight_labels=reading.server_labels,
        outcome=outcome,
        t_ch=t_ch,
        t_sh=t_sh,
        t_fin=t_fin,
        ttfb=ttfb,
    )


class Testbed:
    """One (KA, SA, scenario, policy) configuration running *real* TLS."""

    __test__ = False  # not a pytest collection target

    def __init__(self, kem_name: str, sig_name: str, certificate: Certificate,
                 server_secret: bytes, trust_store: TrustStore, *,
                 scenario: NetemConfig | str = "none",
                 policy: BufferPolicy = BufferPolicy.OPTIMIZED,
                 profiling: bool = False,
                 drbg: Drbg | None = None,
                 session: str = "full",
                 client_credentials=None):
        self.kem_name = kem_name
        self.sig_name = sig_name
        self._certificate = certificate
        self._server_secret = server_secret
        self._trust_store = trust_store
        self.scenario = SCENARIOS[scenario] if isinstance(scenario, str) else scenario
        self.policy = policy
        self.session = session
        self._client_credentials = client_credentials
        self._cost_model = CostModel(profiling=profiling)
        self._drbg = drbg if drbg is not None else Drbg(
            f"testbed:{kem_name}:{sig_name}:{self.scenario.name}:{policy.value}"
        )
        self._handshake_index = 0

    def run_handshake(self, max_sim_seconds: float = 120.0, *,
                      plan: FaultPlan | None = None,
                      tracer=NULL_TRACER, metrics=NULL_METRICS) -> HandshakeTrace:
        from repro.tls.scenarios import build_session_endpoints

        index = self._handshake_index
        self._handshake_index += 1
        tls_drbg = self._drbg.fork(f"tls:{index}")
        # build_session_endpoints forks "client"/"server" exactly like the
        # pre-lifecycle testbed, so session="full" stays byte-identical
        tls_client, tls_server = build_session_endpoints(
            self.session, self.kem_name, self.sig_name, self._certificate,
            self._server_secret, self._trust_store, tls_drbg,
            policy=self.policy, client_credentials=self._client_credentials)
        return run_simulated_handshake(  # pqtls: allow[LEAK001] — outcome labels are alert codes, not key material (object-granularity taint over the credential)
            tls_client, tls_server,
            scenario=self.scenario,
            netem_drbg=self._drbg.fork(f"netem:{index}"),
            cost_model=self._cost_model,
            max_sim_seconds=max_sim_seconds,
            plan=plan,
            tracer=tracer, metrics=metrics,
        )
