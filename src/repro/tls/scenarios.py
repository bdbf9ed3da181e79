"""Session-lifecycle scenarios: full, resume, mtls, hrr.

The paper measures one handshake shape — a full ECDHE handshake with
server-only authentication. Real deployments run a *mix* of session
shapes, and the post-quantum cost of each differs sharply: PSK
resumption removes the certificate chain (the dominant PQ bytes) from
the wire, mutual TLS doubles the signature traffic, and a
HelloRetryRequest adds a round trip before any cryptography helps.
This registry names those shapes once so the recording layer
(:mod:`repro.netsim.scripted`), the experiment configs, and the traffic
engine all agree on what ``--scenario resume`` means.

The module also declares the scenarios' *expected wire deltas* — how
many bytes each shape adds to the ClientHello/ServerHello relative to
``full`` — computed from the message encoders and pinned as constants.
``pqtls-lint``'s WIRE005 audit recomputes the deltas and flags drift, so
a change to the PSK extension layout cannot silently skew the
per-scenario byte accounting.

:func:`run_lockstep` is the one loop that runs a client/server pair on
a perfect link, record by record. The ``resume`` shape mints its ticket
through it, and :func:`repro.netsim.scripted.record_script` turns the
(bytes received, actions) pairs it returns into replayable milestones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.drbg import Drbg
from repro.tls import messages as msg
from repro.tls.actions import Action, Send
from repro.tls.errors import HandshakeFailure
from repro.tls.records import decode_records
from repro.tls.server import BufferPolicy, TlsServer
from repro.tls.client import TlsClient
from repro.tls.ticket import ServerSessionStore, SessionCache

DEFAULT_SESSION = "full"

# record framing added per encrypted record: 5B header + 1B inner
# content type + 16B AEAD tag (records.py)
ENCRYPTED_RECORD_OVERHEAD = 22

# Declared wire deltas vs the full handshake, audited by WIRE005:
# the resumed ClientHello grows by the psk_key_exchange_modes extension
# plus a pre_shared_key extension carrying one 32-byte identity and one
# 32-byte binder; the resumed ServerHello grows by the empty-bodied
# pre_shared_key selection extension.
CLIENT_HELLO_RESUME_DELTA = 85
SERVER_HELLO_RESUME_DELTA = 6


@dataclass(frozen=True)
class SessionScenario:
    """One named handshake shape."""

    name: str
    resumption: bool = False    # redeem a NewSessionTicket PSK (ECDHE+PSK)
    client_auth: bool = False   # CertificateRequest + client chain
    hello_retry: bool = False   # first CH omits the key share
    description: str = ""


SESSION_SCENARIOS: dict[str, SessionScenario] = {
    "full": SessionScenario(
        name="full",
        description="full ECDHE handshake, server-only authentication "
                    "(the paper's testbed)"),
    "resume": SessionScenario(
        name="resume",
        resumption=True,
        description="PSK resumption (psk_dhe_ke): a prior session's "
                    "NewSessionTicket replaces the certificate chain"),
    "mtls": SessionScenario(
        name="mtls",
        client_auth=True,
        description="mutual TLS: CertificateRequest plus a client "
                    "certificate chain and CertificateVerify"),
    "hrr": SessionScenario(
        name="hrr",
        hello_retry=True,
        description="HelloRetryRequest: the first ClientHello offers no "
                    "key share, adding a round trip"),
}


def session_scenario(name: str) -> SessionScenario:
    try:
        return SESSION_SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown session scenario {name!r}; "
                       f"known: {sorted(SESSION_SCENARIOS)}") from None


Delivery = tuple[int, list[Action]]   # (cumulative bytes received, actions)


def _collect(actions) -> bytes:
    return b"".join(a.data for a in actions if isinstance(a, Send))


def _deliver(endpoint, stream: bytes, log: list[Delivery]) -> bytes:
    """Feed *stream* record by record; log each delivery, return the replies."""
    received = log[-1][0] if log else 0
    out = b""
    records, _rest = decode_records(stream)  # endpoints send whole records
    for record in records:
        wire = record.encode()
        received += len(wire)
        actions = endpoint.receive(wire)
        log.append((received, actions))
        out += _collect(actions)
    return out


def run_lockstep(client: TlsClient,
                 server: TlsServer) -> tuple[list[Delivery], list[Delivery]]:
    """Run one handshake on a perfect link, record by record, until quiet.

    A sans-io endpoint acts only on complete records, so record boundaries
    are the exact points where it can act. Directions alternate until the
    client has nothing to send (the HelloRetryRequest shape needs an extra
    round trip). Returns each endpoint's deliveries as (cumulative bytes
    received, actions) pairs, in order; the client's ``start()`` is its
    first delivery, at offset 0. Callers check the endpoints' outcome.
    """
    start = client.start()
    client_log: list[Delivery] = [(0, start)]
    server_log: list[Delivery] = []
    to_server = _collect(start)
    for _round in range(12):  # a bound, far above any shape's round trips
        if not to_server:
            break
        to_client = _deliver(server, to_server, server_log)
        to_server = _deliver(client, to_client, client_log)
    return client_log, server_log


def build_session_endpoints(
    session: str, kem_name: str, sig_name: str, certificate, server_secret,
    trust_store, drbg: Drbg, *,
    policy: BufferPolicy = BufferPolicy.OPTIMIZED,
    client_credentials=None,
    server_name: str = "server.repro.test",
) -> tuple[TlsClient, TlsServer]:
    """Fresh endpoints ready to run one handshake of the given shape.

    The final endpoints always fork the DRBG as ``client``/``server`` —
    the exact labels the pre-scenario recorder used — so ``full``
    endpoints are byte-identical to the seed's. The ``resume`` shape
    runs a *mint* handshake first (on ``mint:*`` forks) to obtain a
    ticket, then returns the redeeming pair; the mint server issues
    exactly one ticket and the redeeming server issues none, so the
    recorded wire delta vs ``full`` is purely the certificate flight.
    """
    scenario = session_scenario(session)
    client_kwargs: dict = {}
    server_kwargs: dict = {"policy": policy}
    if scenario.resumption:
        cache = SessionCache()
        store = ServerSessionStore()
        mint_client = TlsClient(kem_name, sig_name, trust_store,
                                drbg.fork("mint:client"),
                                server_name=server_name, session_cache=cache)
        mint_server = TlsServer(kem_name, sig_name, certificate, server_secret,
                                drbg.fork("mint:server"), policy=policy,
                                session_store=store, issue_tickets=1)
        run_lockstep(mint_client, mint_server)
        ticket = cache.take(server_name)
        if ticket is None:
            raise HandshakeFailure("mint handshake issued no ticket") from (
                mint_client.failure or mint_server.failure)
        client_kwargs["ticket"] = ticket
        server_kwargs["session_store"] = store
    if scenario.client_auth:
        if client_credentials is None:
            raise ValueError("session 'mtls' needs client_credentials "
                             "(chain, secret key, trust store)")
        chain, client_sk, client_trust = client_credentials
        client_kwargs["credentials"] = (chain, client_sk)
        server_kwargs["client_auth"] = client_trust
    if scenario.hello_retry:
        client_kwargs["offer_share"] = False
    client = TlsClient(kem_name, sig_name, trust_store, drbg.fork("client"),
                       server_name=server_name, **client_kwargs)
    server = TlsServer(kem_name, sig_name, certificate, server_secret,
                       drbg.fork("server"), **server_kwargs)
    return client, server


# -- wire-delta audit (WIRE005) -------------------------------------------

def _hello_pair(psk: bool) -> tuple[int, int]:
    """Encoded CH/SH lengths for a synthetic handshake, with/without PSK."""
    hello = msg.ClientHello(
        random=bytes(32), session_id=bytes(32),
        group_name_to_share={"synthetic": bytes(32)},
        group_ids=[0x0100], key_shares=[(0x0100, bytes(32))],
        sig_scheme_ids=[0x0807],
        psk_identity=bytes(32) if psk else None,
        psk_obfuscated_age=0,
        psk_binder=bytes(32) if psk else b"",
    )
    server_hello = msg.ServerHello(
        random=bytes(32), session_id=bytes(32), group_id=0x0100,
        key_share=bytes(32), psk_selected=psk,
    )
    return len(hello.encode()), len(server_hello.encode())


def computed_wire_deltas() -> dict[str, int]:
    """Recompute the declared deltas from the live message encoders."""
    ch_full, sh_full = _hello_pair(psk=False)
    ch_resume, sh_resume = _hello_pair(psk=True)
    return {
        "client_hello_resume_delta": ch_resume - ch_full,
        "server_hello_resume_delta": sh_resume - sh_full,
    }


def declared_wire_deltas() -> dict[str, int]:
    return {
        "client_hello_resume_delta": CLIENT_HELLO_RESUME_DELTA,
        "server_hello_resume_delta": SERVER_HELLO_RESUME_DELTA,
    }
