"""Recorded handshake scripts: run real crypto once, replay its shape.

A 60-second measurement period covers up to ~30 000 sequential handshakes
(Table 2); re-running pure-Python SPHINCS+ for each would be absurd when
the simulated clock is driven by the cost model anyway. Instead we run
*one* real handshake per (KA, SA, policy) through the record-by-record
lockstep loop :func:`repro.tls.scenarios.run_lockstep`, keep each TLS
endpoint's deliveries that made it act as byte-offset milestones — "after
N cumulative in-order bytes, perform these Compute ops and Send these
flight lengths" — and replay that script through TCP/netem with fresh
loss randomness.

Replay is exact because a sans-io TLS endpoint is a deterministic function
of the in-order byte stream: message sizes, flush boundaries, and crypto
op sequences do not depend on network behaviour. A regression test checks
real-vs-scripted traces match.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.drbg import Drbg
from repro.tls.actions import Send
from repro.tls.certs import (
    make_chain_credentials,
    make_client_credentials,
    make_server_credentials,
)
from repro.tls.scenarios import DEFAULT_SESSION, build_session_endpoints, run_lockstep
from repro.tls.server import BufferPolicy


class RecordingError(RuntimeError):
    """Lockstep script recording went off the rails (a real-endpoint bug —
    recording runs on a perfect link, so it must always complete)."""


@dataclass(frozen=True)
class ScriptedSend:
    length: int
    label: str


@dataclass(frozen=True)
class Milestone:
    after_bytes: int                  # fire once this many in-order bytes arrived
    actions: tuple                    # Compute | ScriptedSend, in order


@dataclass(frozen=True)
class HandshakeScript:
    kem_name: str
    sig_name: str
    policy: str
    client_milestones: tuple[Milestone, ...]
    server_milestones: tuple[Milestone, ...]
    client_total_in: int              # bytes the client must consume to finish
    server_total_in: int
    session: str                      # handshake shape: full/resume/mtls/hrr
    chain: str                        # certificate chain profile


def _milestones(deliveries) -> tuple[Milestone, ...]:
    """The deliveries that made an endpoint act, with Sends cut to lengths."""
    return tuple(
        Milestone(offset, tuple(
            ScriptedSend(len(action.data), action.label)
            if isinstance(action, Send) else action
            for action in actions))
        for offset, actions in deliveries if actions)


def load_credentials(sig_name: str, seed: str = "paper"):
    """Per-SA credentials (CA + leaf + trust store), cached on disk.

    Key generation and CA issuance dominate recording time for the slow
    signature schemes (Falcon keygen, SPHINCS+ signing), and credentials
    are shared across every experiment using the same SA — so generation
    is single-flighted under a per-key file lock: concurrent recorders of
    different (KA, SA) scripts with the same SA wait for one generator
    instead of each re-deriving the same keys.
    """
    from repro import cache

    return cache.load_or_build(
        "creds", f"{sig_name}|{seed}",
        lambda: make_server_credentials(sig_name,
                                        Drbg(f"creds:{sig_name}:{seed}")))


def load_chain_credentials(sig_name: str, chain: str = "direct",
                           seed: str = "paper"):
    """Credentials for one chain profile; ``direct`` is :func:`load_credentials`,
    whose ``creds:{sig}:{seed}`` DRBG label the paper's recordings come from."""
    if chain == "direct":
        return load_credentials(sig_name, seed)
    from repro import cache

    return cache.load_or_build(
        "creds", f"{sig_name}|{seed}|chain={chain}",
        lambda: make_chain_credentials(
            sig_name, Drbg(f"creds:{sig_name}:{seed}:chain={chain}"),
            chain=chain))


def load_client_credentials(sig_name: str, seed: str = "paper"):
    """Client chain + key + server-side trust store for mutual TLS."""
    from repro import cache

    return cache.load_or_build(
        "creds", f"{sig_name}|{seed}|client",
        lambda: make_client_credentials(
            sig_name, Drbg(f"creds:{sig_name}:{seed}:client")))


def record_script(kem_name: str, sig_name: str,
                  policy: BufferPolicy = BufferPolicy.OPTIMIZED,
                  seed: str = "paper", session: str = DEFAULT_SESSION,
                  chain: str = "direct") -> HandshakeScript:
    """Run one real handshake in lockstep and capture both endpoint scripts.

    *session* selects the handshake shape (full / resume / mtls / hrr, see
    :mod:`repro.tls.scenarios`); *chain* the server's certificate-chain
    profile. Defaults reproduce the pre-lifecycle recordings bit-exactly
    (same DRBG label, same fork structure).
    """
    label = f"script:{kem_name}:{sig_name}:{policy.value}:{seed}"
    if session != DEFAULT_SESSION:
        label += f":{session}"
    if chain != "direct":
        label += f":chain={chain}"
    drbg = Drbg(label)
    cert, sk, store = load_chain_credentials(sig_name, chain, seed)
    client_credentials = None
    if session == "mtls":
        client_credentials = load_client_credentials(sig_name, seed)
    client, server = build_session_endpoints(
        session, kem_name, sig_name, cert, sk, store, drbg,
        policy=policy, client_credentials=client_credentials)

    client_log, server_log = run_lockstep(client, server)
    if not (client.handshake_complete and server.handshake_complete):
        for endpoint in (client, server):
            if endpoint.failed:
                raise RecordingError(
                    f"lockstep recording aborted: {endpoint.failure}"
                ) from endpoint.failure
        raise RecordingError("lockstep recording did not complete the handshake")

    return HandshakeScript(
        kem_name=kem_name,
        sig_name=sig_name,
        policy=policy.value,
        client_milestones=_milestones(client_log),
        server_milestones=_milestones(server_log),
        client_total_in=client_log[-1][0],
        server_total_in=server_log[-1][0],
        session=session,
        chain=chain,
    )


def replay_steps(milestones: tuple[Milestone, ...]) -> tuple[tuple[int, tuple], ...]:
    """One side's milestones as ``(after_bytes, actions)`` replay steps,
    with each :class:`ScriptedSend` built into a zero-filled ``Send``."""
    return tuple(
        (milestone.after_bytes, tuple(
            Send(bytes(action.length), action.label)
            if isinstance(action, ScriptedSend) else action
            for action in milestone.actions))
        for milestone in milestones)


class ScriptedApp:
    """Replays one side of a recorded script against the byte stream."""

    # scripts replay successful recordings, so a replay app never fails on
    # its own — the attributes exist so hosts treat both app kinds uniformly
    failed = False
    failure = None

    def __init__(self, steps: tuple[tuple[int, tuple], ...], total_in: int):
        self._steps = steps
        self._total_in = total_in
        self._received = 0
        self._next = 0

    def start(self):
        return self._fire()

    def receive(self, data: bytes):
        self._received += len(data)
        return self._fire()

    def _fire(self):
        steps, index = self._steps, self._next
        actions = []
        while index < len(steps) and steps[index][0] <= self._received:
            actions.extend(steps[index][1])
            index += 1
        self._next = index
        return actions

    @property
    def handshake_complete(self) -> bool:
        return self._next >= len(self._steps) and self._received >= self._total_in


class ScriptReplay:
    """A script's replay steps, built once: fresh apps for each handshake.

    The steps, their ``Send`` objects included, are immutable and shared
    by every handshake replayed from this object; an app only keeps its
    own byte count and position.
    """

    def __init__(self, script: HandshakeScript):
        self._client = (replay_steps(script.client_milestones),
                        script.client_total_in)
        self._server = (replay_steps(script.server_milestones),
                        script.server_total_in)

    def apps(self) -> tuple[ScriptedApp, ScriptedApp]:
        """Fresh (client, server) replay apps for one handshake."""
        return ScriptedApp(*self._client), ScriptedApp(*self._server)
