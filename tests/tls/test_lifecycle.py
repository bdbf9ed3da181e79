"""Session-lifecycle handshakes: PSK resumption, HRR, mTLS, tickets.

These are the protocol-level goldens for the scenario subsystem: a
resumed handshake must skip the certificate chain entirely (its server
flight shrinks by exactly the Certificate + CertificateVerify wire
bytes), mutual TLS must add the client chain, and HelloRetryRequest must
complete in two round trips with the synthetic-message transcript.
"""

import pytest

from repro.crypto.drbg import Drbg
from repro.tls.actions import Send
from repro.tls.certs import (
    make_chain_credentials,
    make_client_credentials,
    make_server_credentials,
)
from repro.tls.client import TlsClient
from repro.tls.errors import CertificateRequired, HandshakeFailure
from repro.tls.scenarios import run_lockstep
from repro.tls.server import TlsServer
from repro.tls.session import establish_channels
from repro.tls.ticket import ServerSessionStore, SessionCache

KEM = "kyber512"
SIG = "dilithium2"


def _sends(actions) -> bytes:
    return b"".join(a.data for a in actions if isinstance(a, Send))


def pump(client, server, check: bool = True):
    """Lockstep a sans-io client/server pair until quiescent.

    Returns the concatenated (client wire, server wire) byte streams;
    ``check`` asserts neither endpoint failed.
    """
    client_log, server_log = run_lockstep(client, server)
    if check:
        assert not client.failed, client.failure
        assert not server.failed, server.failure
    return tuple(b"".join(_sends(actions) for _offset, actions in log)
                 for log in (client_log, server_log))


@pytest.fixture(scope="module")
def credentials():
    drbg = Drbg("lifecycle-test")
    cert, sk, store = make_server_credentials(SIG, drbg.fork("ca"))
    return cert, sk, store


def _mint_ticket(credentials, label="mint"):
    """Run a full handshake that issues one ticket; returns (cache, store)."""
    cert, sk, trust = credentials
    drbg = Drbg(f"lifecycle-{label}")
    session_store = ServerSessionStore()
    session_cache = SessionCache()
    client = TlsClient(KEM, SIG, trust, drbg.fork("c"),
                       session_cache=session_cache)
    server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"),
                       session_store=session_store, issue_tickets=1)
    pump(client, server)
    assert client.handshake_complete and server.handshake_complete
    return client, server, session_cache, session_store


def test_ticket_minting_and_cache(credentials):
    client, server, cache, store = _mint_ticket(credentials)
    assert len(cache) == 1 and len(store) == 1
    ticket = cache.peek("server.repro.test")
    assert ticket.kem == KEM and ticket.sig == SIG
    assert len(ticket.psk) == 32
    # both sides derived the same PSK without it touching the wire
    state = store.redeem(ticket.identity)
    assert state.psk == ticket.psk


def test_resumption_skips_certificate_chain(credentials):
    cert, sk, trust = credentials
    _c, _s, cache, store = _mint_ticket(credentials, label="resume")
    ticket = cache.take("server.repro.test")
    drbg = Drbg("lifecycle-resumed")
    client = TlsClient(KEM, SIG, trust, drbg.fork("c"), ticket=ticket)
    server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"), session_store=store)
    resume_c2s, resume_s2c = pump(client, server)
    assert client.handshake_complete and server.handshake_complete
    assert client.resumed and server.resumed
    assert len(store) == 0  # ticket is single-use

    # the resumed server flight must shrink by *exactly* the Certificate
    # and CertificateVerify contribution of the full flight: their message
    # payloads, the record framing of the CV record they no longer need,
    # minus the ServerHello's pre_shared_key selection extension
    drbg = Drbg("lifecycle-full-twin")
    full_client = TlsClient(KEM, SIG, trust, drbg.fork("c"))
    full_server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"))
    full_c2s, full_s2c = pump(full_client, full_server)
    import repro.tls.messages as msg
    from repro.pqc.registry import get_sig
    from repro.tls.records import decode_records
    from repro.tls.scenarios import (
        CLIENT_HELLO_RESUME_DELTA,
        ENCRYPTED_RECORD_OVERHEAD,
        SERVER_HELLO_RESUME_DELTA,
    )

    cert_msg = len(msg.encode_certificate([cert.encode()]))  # framed message
    cv_msg = len(msg.encode_certificate_verify(
        0, bytes(get_sig(SIG).signature_bytes)))
    full_records, _ = decode_records(full_s2c)
    resume_records, _ = decode_records(resume_s2c)
    # the Certificate rides in the EE record, the CV gets its own record:
    # one fewer encrypted record on the resumed flight
    assert len(full_records) - len(resume_records) == 1
    delta = len(full_s2c) - len(resume_s2c)
    assert delta == (cert_msg + cv_msg + ENCRYPTED_RECORD_OVERHEAD
                     - SERVER_HELLO_RESUME_DELTA)
    # and the resumed ClientHello grows by exactly the PSK extensions
    assert len(resume_c2s) - len(full_c2s) == CLIENT_HELLO_RESUME_DELTA

    # resumed channels still interoperate
    cchan, schan = establish_channels(client, server)
    assert schan.receive(cchan.send(b"resumed!")) == b"resumed!"


def test_unknown_ticket_falls_back_to_full_handshake(credentials):
    cert, sk, trust = credentials
    _c, _s, cache, _store = _mint_ticket(credentials, label="fallback")
    ticket = cache.take("server.repro.test")
    drbg = Drbg("lifecycle-fallback2")
    # fresh store: the server has never seen this ticket
    client = TlsClient(KEM, SIG, trust, drbg.fork("c"), ticket=ticket)
    server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"),
                       session_store=ServerSessionStore())
    pump(client, server)
    assert client.handshake_complete and server.handshake_complete
    assert not client.resumed and not server.resumed


def test_tampered_binder_aborts(credentials):
    cert, sk, trust = credentials
    _c, _s, cache, store = _mint_ticket(credentials, label="binder")
    good = cache.take("server.repro.test")
    bad = type(good)(identity=good.identity, psk=bytes(32), kem=good.kem,
                     sig=good.sig, age_add=good.age_add, lifetime=good.lifetime)
    drbg = Drbg("lifecycle-binder2")
    client = TlsClient(KEM, SIG, trust, drbg.fork("c"), ticket=bad)
    server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"), session_store=store)
    to_server = _sends(client.start())
    server.receive(to_server)
    assert server.failed
    assert isinstance(server.failure, HandshakeFailure)


def test_hello_retry_request_completes(credentials):
    cert, sk, trust = credentials
    drbg = Drbg("lifecycle-hrr")
    client = TlsClient(KEM, SIG, trust, drbg.fork("c"), offer_share=False)
    server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"))
    pump(client, server)
    assert client.handshake_complete and server.handshake_complete
    assert client._retried and server._retry_sent
    # both transcripts agreed (Finished verified) and channels work
    cchan, schan = establish_channels(client, server)
    assert cchan.receive(schan.send(b"after retry")) == b"after retry"


def test_second_hello_without_share_fails(credentials):
    cert, sk, trust = credentials
    drbg = Drbg("lifecycle-hrr-bad")
    client = TlsClient(KEM, SIG, trust, drbg.fork("c"), offer_share=False)
    server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"))
    ch1 = _sends(client.start())
    hrr = _sends(server.receive(ch1))
    assert not server.failed
    # replay CH1 (still no share) instead of the updated CH2
    server._hs_stream = b""
    server.receive(ch1)
    assert server.failed


def test_mutual_tls(credentials):
    cert, sk, trust = credentials
    drbg = Drbg("lifecycle-mtls")
    client_chain, client_sk, client_trust = make_client_credentials(
        SIG, drbg.fork("client-ca"))
    client = TlsClient(KEM, SIG, trust, drbg.fork("c"),
                       credentials=(client_chain, client_sk))
    server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"),
                       client_auth=client_trust)
    pump(client, server)
    assert client.handshake_complete and server.handshake_complete
    assert server._peer_cert is not None
    assert server._peer_cert.subject == "client.repro.test"

    # client bytes grow by at least its certificate chain vs a plain run
    drbg = Drbg("lifecycle-mtls-twin")
    plain_client = TlsClient(KEM, SIG, trust, drbg.fork("c"))
    plain_server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"))
    pump(plain_client, plain_server)
    chain_bytes = sum(len(c.encode()) for c in client_chain)
    assert client.bytes_out - plain_client.bytes_out > chain_bytes

    cchan, schan = establish_channels(client, server)
    assert schan.receive(cchan.send(b"mutually authed")) == b"mutually authed"


def test_mtls_without_client_credentials_fails(credentials):
    cert, sk, trust = credentials
    drbg = Drbg("lifecycle-mtls-anon")
    _chain, _sk, client_trust = make_client_credentials(
        SIG, drbg.fork("client-ca"))
    client = TlsClient(KEM, SIG, trust, drbg.fork("c"))  # no credentials
    server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"),
                       client_auth=client_trust)
    to_server = _sends(client.start())
    to_client = _sends(server.receive(to_server))
    to_server = _sends(client.receive(to_client))
    server.receive(to_server)
    assert server.failed
    assert isinstance(server.failure, CertificateRequired)


# Both roles authenticate their peer: each row breaks one side's proof and
# names the endpoint that must reject it with handshake_failure (40).
AUTH_FAILURES = {
    "server-cv-key": ("client", "CertificateVerify signature invalid"),
    "client-cv-key": ("server", "client CertificateVerify signature invalid"),
    "client-chain-untrusted": (
        "server", "bad issuer signature on 'client.repro.test'"),
    "server-chain-untrusted": (
        "client", "bad issuer signature on 'server.repro.test'"),
}


@pytest.mark.parametrize("case", sorted(AUTH_FAILURES))
def test_peer_authentication_failures(case):
    auth_kem, auth_sig = "x25519", "dilithium2"
    drbg = Drbg(f"lifecycle-auth-{case}")
    cert, sk, trust = make_server_credentials(auth_sig, drbg.fork("ca"))
    _rogue_cert, rogue_sk, rogue_trust = make_server_credentials(
        auth_sig, drbg.fork("rogue-ca"))
    client_chain, client_sk, client_trust = make_client_credentials(
        auth_sig, drbg.fork("client-ca"))
    _rogue_chain, rogue_client_sk, rogue_client_trust = make_client_credentials(
        auth_sig, drbg.fork("rogue-client-ca"))
    if case == "server-cv-key":
        sk = rogue_sk
    elif case == "client-cv-key":
        client_sk = rogue_client_sk
    elif case == "client-chain-untrusted":
        client_trust = rogue_client_trust
    else:
        trust = rogue_trust
    client = TlsClient(auth_kem, auth_sig, trust, drbg.fork("c"),
                       credentials=(client_chain, client_sk))
    server = TlsServer(auth_kem, auth_sig, cert, sk, drbg.fork("s"),
                       client_auth=client_trust)
    pump(client, server, check=False)

    side, message = AUTH_FAILURES[case]
    failing, peer = (client, server) if side == "client" else (server, client)
    assert failing.failed and not failing.handshake_complete
    assert type(failing.failure) is HandshakeFailure
    assert str(failing.failure) == message
    assert failing.alert_sent == 40 and failing.alert_received is None
    assert peer.failed and peer.alert_received == 40
    assert peer.alert_sent is None


def test_intermediate_chain_verifies():
    drbg = Drbg("lifecycle-chain")
    chain, sk, store = make_chain_credentials(SIG, drbg.fork("pki"),
                                              chain="intermediate")
    assert len(chain) == 2
    client = TlsClient(KEM, SIG, store, drbg.fork("c"))
    server = TlsServer(KEM, SIG, chain, sk, drbg.fork("s"))
    pump(client, server)
    assert client.handshake_complete and server.handshake_complete


def test_suppressed_chain_is_leaf_only_on_wire():
    drbg = Drbg("lifecycle-suppress")
    chain, sk, store = make_chain_credentials(SIG, drbg.fork("pki"),
                                              chain="suppressed")
    assert len(chain) == 1
    assert chain[0].issuer in store.cached
    client = TlsClient(KEM, SIG, store, drbg.fork("c"))
    server = TlsServer(KEM, SIG, chain, sk, drbg.fork("s"))
    pump(client, server)
    assert client.handshake_complete and server.handshake_complete

    # the long twin carries the intermediate on the wire and costs more
    drbg = Drbg("lifecycle-suppress-twin")
    lchain, lsk, lstore = make_chain_credentials(SIG, drbg.fork("pki"),
                                                 chain="intermediate")
    lclient = TlsClient(KEM, SIG, lstore, drbg.fork("c"))
    lserver = TlsServer(KEM, SIG, lchain, lsk, drbg.fork("s"))
    pump(lclient, lserver)
    assert lserver.bytes_out > server.bytes_out


def test_resumed_handshake_can_mint_fresh_tickets(credentials):
    """Ticket reissue on resumption keeps the session chain alive."""
    cert, sk, trust = credentials
    _c, _s, cache, store = _mint_ticket(credentials, label="chain2")
    ticket = cache.take("server.repro.test")
    drbg = Drbg("lifecycle-chain2-resume")
    fresh_cache = SessionCache()
    client = TlsClient(KEM, SIG, trust, drbg.fork("c"), ticket=ticket,
                       session_cache=fresh_cache)
    server = TlsServer(KEM, SIG, cert, sk, drbg.fork("s"),
                       session_store=store, issue_tickets=1)
    pump(client, server)
    assert client.resumed and server.resumed
    assert len(fresh_cache) == 1  # a new ticket for the next connection
