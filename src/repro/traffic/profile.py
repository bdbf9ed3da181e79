"""Calibration: one full-fidelity handshake per pair -> a queueing profile.

Replaying the complete TCP/netem simulation per handshake costs
milliseconds of host time — three orders of magnitude too slow for a
million-handshake run. But under load the *only* shared resource is the
server's CPU: every other component of handshake latency (client
compute, propagation, serialization) is private to the connection and
identical to the uncontended case. So the engine runs the full
simulation **once** per (KA, SA, scenario, policy) and compresses it
into a :class:`HandshakeProfile`:

* the calibrated uncontended phase latencies (part A, part B, total) and
  the derived time-to-first-byte;
* the server's two CPU *bursts* — phase A (accept + ClientHello through
  the ServerHello..Finished flight: KEM keygen/encaps, CertificateVerify
  signing, record protection) and phase B (client Finished processing) —
  split analytically from the recorded script's milestones priced by the
  cost model, with the trace's total server CPU (which also carries
  per-packet kernel/driver and tooling costs) assigned to phase A's
  burst so the two bursts sum to the measured total;
* the wire offsets that place those bursts on the arrival timeline.

Under load, each handshake's latency is then ``base + queueing wait`` of
its bursts on the shared :class:`~repro.traffic.server.ServerCores` —
exact at zero contention by construction, M/G/k-style queueing beyond.

Calibration always runs the scenario's *lossless* twin (loss forced to
0): the baseline must be the deterministic common case, not one random
draw of a retransmit distribution. Loss-induced tail effects remain the
experiment layer's subject (`repro.core`); this layer isolates
contention. Profiles are cached per process, so a worker prices each
pair once no matter how many shards it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.experiment import load_script
from repro.crypto.drbg import Drbg
from repro.netsim.costmodel import CostModel
from repro.netsim.netem import SCENARIOS, NetemConfig
from repro.netsim.scripted import HandshakeScript, ScriptedSend, ScriptReplay
from repro.netsim.packets import HEADER_OVERHEAD
from repro.netsim.tcp import MSS
from repro.netsim.testbed import first_byte_transit, run_simulated_handshake
from repro.tls.actions import Compute
from repro.tls.server import BufferPolicy


class CalibrationError(RuntimeError):
    """The calibration handshake failed — lossless replay must succeed."""


@dataclass(frozen=True)
class HandshakeProfile:
    """Everything the traffic engine needs to know about one pair."""

    kem: str
    sig: str
    scenario: str
    policy: str
    # uncontended baselines (seconds), from the calibration trace
    part_a: float                # CH -> SH
    part_b: float                # SH -> client Finished
    total: float                 # CH -> client Finished
    ttfb: float                  # connect -> first application byte
    # server CPU bursts (seconds)
    burst_a: float               # accept + CH processing + server flight
    burst_b: float               # client Finished processing
    # timeline offsets (seconds from the handshake's arrival)
    a_enqueue: float             # when the CH reaches the server
    b_gap: float                 # end of burst A -> burst B enqueue
    resp_transit: float          # end of burst B -> first byte at client
    # per-handshake totals for reporting
    server_cpu: float
    client_cpu: float
    wire_bytes: int
    session: str = "full"        # handshake shape (repro.tls.scenarios)


def _transit(stream_bytes: int, scenario: NetemConfig) -> float:
    """One-way flight time of a TLS stream chunk: propagation + wire, with
    the simulator's TCP/IPv4/Ethernet framing on every MSS segment."""
    if stream_bytes <= 0:
        return scenario.one_way_delay
    segments = (stream_bytes + MSS - 1) // MSS
    wire_bits = 8.0 * (stream_bytes + HEADER_OVERHEAD * segments)
    return scenario.one_way_delay + wire_bits / scenario.rate_bps


def _client_hello_bytes(script: HandshakeScript) -> int:
    """Stream length of the client's first flight (the CH milestone)."""
    first = script.client_milestones[0]
    return sum(action.length for action in first.actions
               if isinstance(action, ScriptedSend))


def _phase_b_cost(script: HandshakeScript, ch_bytes: int,
                  cost_model: CostModel) -> float:
    """Analytic server CPU of the milestones the client Finished triggers."""
    seconds = 0.0
    for milestone in script.server_milestones:
        if milestone.after_bytes <= ch_bytes:
            continue
        for action in milestone.actions:
            if isinstance(action, Compute):
                for op in action.ops:
                    seconds += cost_model.op_cost(op, "server").seconds
    return seconds


def build_profile(kem: str, sig: str, scenario: str = "none",
                  policy: str = "optimized",
                  seed: str = "paper",
                  session: str = "full") -> HandshakeProfile:
    """Run the calibration handshake and derive the queueing profile."""
    netem = SCENARIOS[scenario]
    if netem.loss:
        netem = NetemConfig(name=netem.name, loss=0.0, rtt=netem.rtt,
                            rate_bps=netem.rate_bps)
    buffer_policy = BufferPolicy(policy)
    script = load_script(kem, sig, buffer_policy, seed, session)
    cost_model = CostModel()
    client_app, server_app = ScriptReplay(script).apps()
    label = f"traffic-profile:{kem}:{sig}:{scenario}:{policy}:{seed}"
    if session != "full":
        # appended only when non-default: full-session labels (and the
        # netem draws they seed) stay identical to pre-lifecycle runs
        label += f":{session}"
    drbg = Drbg(label)
    trace = run_simulated_handshake(
        client_app, server_app, scenario=netem,
        netem_drbg=drbg.fork("netem:0"), cost_model=cost_model)
    if not trace.outcome.ok:
        raise CalibrationError(
            f"calibration handshake failed for {kem}/{sig} on "
            f"{scenario}: {trace.outcome.key} ({trace.outcome.detail})")

    ch_bytes = _client_hello_bytes(script)
    fin_bytes = script.server_total_in - ch_bytes
    burst_b = _phase_b_cost(script, ch_bytes, cost_model)
    server_cpu = sum(trace.server_cpu.values())
    # phase A absorbs everything else the server measurably spent —
    # analytic phase-A ops plus per-packet kernel/driver and tooling —
    # so the bursts sum exactly to the calibrated server CPU
    burst_a = max(server_cpu - burst_b, 0.0)

    a_enqueue = trace.t_ch + _transit(ch_bytes, netem)
    b_enqueue = trace.t_fin + _transit(fin_bytes, netem)
    # burst B can never start before burst A finished; if the analytic
    # burst A overruns the calibrated SH timing (tooling is charged at
    # accept time, before the CH fully arrived) the gap clamps to zero
    b_gap = max(0.0, b_enqueue - (a_enqueue + burst_a))
    resp_transit = first_byte_transit(netem)
    ttfb = (a_enqueue + burst_a + b_gap) + burst_b + resp_transit

    return HandshakeProfile(
        kem=kem,
        sig=sig,
        scenario=scenario,
        policy=policy,
        session=session,
        part_a=trace.part_a,
        part_b=trace.part_b,
        total=trace.total,
        ttfb=ttfb,
        burst_a=burst_a,
        burst_b=burst_b,
        a_enqueue=a_enqueue,
        b_gap=b_gap,
        resp_transit=resp_transit,
        server_cpu=server_cpu,
        client_cpu=sum(trace.client_cpu.values()),
        wire_bytes=trace.client_wire_bytes + trace.server_wire_bytes,
    )


_PROFILES: dict[tuple, HandshakeProfile] = {}


def handshake_profile(kem: str, sig: str, scenario: str = "none",
                      policy: str = "optimized",
                      seed: str = "paper",
                      session: str = "full") -> HandshakeProfile:
    """Per-process cached :func:`build_profile` (pure, so caching is safe)."""
    key = (kem, sig, scenario, policy, seed, session)
    profile = _PROFILES.get(key)
    if profile is None:
        profile = _PROFILES[key] = build_profile(
            kem, sig, scenario=scenario, policy=policy, seed=seed,
            session=session)
    return profile
