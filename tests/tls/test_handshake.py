"""Full sans-io handshakes: lockstep client/server over every family."""

import pytest

from repro.crypto.drbg import Drbg
from repro.tls.actions import Send
from repro.tls.certs import TrustStore, make_server_credentials
from repro.tls.client import TlsClient
from repro.tls.errors import (
    ALERT_BAD_RECORD_MAC,
    ALERT_HANDSHAKE_FAILURE,
    BadRecordMac,
    HandshakeFailure,
)
from repro.tls.scenarios import run_lockstep
from repro.tls.server import BufferPolicy, TlsServer


def lockstep(kem, sig, policy=BufferPolicy.OPTIMIZED, seed="hs-test",
             client_kwargs=None, creds=None):
    drbg = Drbg(seed)
    if creds is None:
        creds = make_server_credentials(sig, drbg.fork("ca"))
    cert, sk, store = creds
    client = TlsClient(kem, sig, store, drbg.fork("client"), **(client_kwargs or {}))
    server = TlsServer(kem, sig, cert, sk, drbg.fork("server"), policy=policy)
    _client_log, server_log = run_lockstep(client, server)
    return client, server, [a for _offset, actions in server_log
                            for a in actions if isinstance(a, Send)]


FAST_COMBOS = [
    ("x25519", "rsa:1024"),
    ("p256", "rsa:1024"),
    ("kyber512", "dilithium2"),
    ("kyber90s512", "dilithium2_aes"),
    ("bikel1", "falcon512"),
    ("hqc128", "falcon512"),
    ("p256_kyber512", "p256_dilithium2"),
]


@pytest.mark.parametrize("kem,sig", FAST_COMBOS)
def test_handshake_completes_and_secrets_agree(kem, sig):
    client, server, _ = lockstep(kem, sig)
    assert client.handshake_complete and server.handshake_complete
    assert client.application_secrets == server.application_secrets


def test_application_secrets_unavailable_before_completion():
    client = TlsClient("x25519", "rsa:1024", TrustStore(roots={}), Drbg("x"))
    with pytest.raises(HandshakeFailure):
        _ = client.application_secrets


def test_group_mismatch_fails_closed():
    drbg = Drbg("mismatch")
    cert, sk, store = make_server_credentials("rsa:1024", drbg.fork("ca"))
    client = TlsClient("x25519", "rsa:1024", store, drbg.fork("c"))
    server = TlsServer("kyber512", "rsa:1024", cert, sk, drbg.fork("s"))
    actions = client.start()
    wire = b"".join(a.data for a in actions if isinstance(a, Send))
    sends = [a for a in server.receive(wire) if isinstance(a, Send)]
    assert server.failed and not server.handshake_complete
    assert isinstance(server.failure, HandshakeFailure)
    assert "offered" in str(server.failure)
    assert server.alert_sent == ALERT_HANDSHAKE_FAILURE
    assert sends and "Alert" in sends[-1].label
    # terminal: further bytes are dead letters
    assert server.receive(wire) == []


def test_sig_scheme_mismatch_fails_closed():
    drbg = Drbg("sigmismatch")
    cert, sk, store = make_server_credentials("falcon512", drbg.fork("ca"))
    client = TlsClient("x25519", "rsa:1024", store, drbg.fork("c"))
    server = TlsServer("x25519", "falcon512", cert, sk, drbg.fork("s"))
    wire = b"".join(a.data for a in client.start() if isinstance(a, Send))
    server.receive(wire)
    assert server.failed and "does not accept" in str(server.failure)
    assert server.alert_sent == ALERT_HANDSHAKE_FAILURE


def test_client_rejects_untrusted_certificate():
    drbg = Drbg("untrusted")
    cert, sk, _ = make_server_credentials("rsa:1024", drbg.fork("real-ca"))
    _, _, other_store = make_server_credentials("rsa:1024", drbg.fork("other-ca"))
    client = TlsClient("x25519", "rsa:1024", other_store, drbg.fork("c"))
    server = TlsServer("x25519", "rsa:1024", cert, sk, drbg.fork("s"))
    wire = b"".join(a.data for a in client.start() if isinstance(a, Send))
    server_out = b"".join(a.data for a in server.receive(wire) if isinstance(a, Send))
    client.receive(server_out)
    assert client.failed and not client.handshake_complete
    assert isinstance(client.failure, HandshakeFailure)
    assert client.alert_sent == ALERT_HANDSHAKE_FAILURE


def test_client_rejects_wrong_server_name():
    drbg = Drbg("sni")
    creds = make_server_credentials("rsa:1024", drbg.fork("ca"))
    client, server, _ = lockstep("x25519", "rsa:1024", creds=creds, seed="sni-run",
                                 client_kwargs={"server_name": "other.host"})
    assert client.failed and "subject" in str(client.failure)
    # the client's alert reached the server, which closed without echoing
    assert server.failed and server.alert_received == client.alert_sent
    assert server.alert_sent is None


def test_tampered_server_flight_detected():
    drbg = Drbg("tamper-flight")
    cert, sk, store = make_server_credentials("rsa:1024", drbg.fork("ca"))
    client = TlsClient("x25519", "rsa:1024", store, drbg.fork("c"))
    server = TlsServer("x25519", "rsa:1024", cert, sk, drbg.fork("s"))
    wire = b"".join(a.data for a in client.start() if isinstance(a, Send))
    server_out = bytearray(
        b"".join(a.data for a in server.receive(wire) if isinstance(a, Send)))
    server_out[-20] ^= 0x01  # corrupt an encrypted byte near the Finished
    client.receive(bytes(server_out))
    assert client.failed and not client.handshake_complete
    assert isinstance(client.failure, BadRecordMac)
    assert client.alert_sent == ALERT_BAD_RECORD_MAC


def test_hybrid_handshake_secret_length():
    client, server, _ = lockstep("p256_kyber512", "rsa:1024", seed="hyb-len")
    assert client.handshake_complete
    # hybrid shared secret = 32 (p256 x-coord) + 32 (kyber) fed the schedule;
    # application secrets still hash-sized
    assert len(client.application_secrets[0]) == 32


def test_fragmented_delivery_any_chunking():
    """The sans-io machines must accept arbitrary TCP chunk boundaries."""
    drbg = Drbg("chunks")
    cert, sk, store = make_server_credentials("dilithium2", drbg.fork("ca"))
    client = TlsClient("kyber512", "dilithium2", store, drbg.fork("c"))
    server = TlsServer("kyber512", "dilithium2", cert, sk, drbg.fork("s"))
    wire = b"".join(a.data for a in client.start() if isinstance(a, Send))
    server_sends = []
    for i in range(0, len(wire), 100):
        server_sends.extend(
            a for a in server.receive(wire[i: i + 100]) if isinstance(a, Send))
    server_out = b"".join(a.data for a in server_sends)
    fin = b""
    for i in range(0, len(server_out), 333):
        actions = client.receive(server_out[i: i + 333])
        fin += b"".join(a.data for a in actions if isinstance(a, Send))
    server.receive(fin)
    assert client.handshake_complete and server.handshake_complete
    assert client.application_secrets == server.application_secrets


def test_server_bytes_accounting():
    client, server, sends = lockstep("x25519", "rsa:1024", seed="acct")
    assert server.bytes_out == sum(len(s.data) for s in sends)
    assert client.bytes_out > 0
