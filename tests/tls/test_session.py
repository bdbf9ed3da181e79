"""Application-data channel over completed PQ handshakes."""

import pytest

from repro.crypto.drbg import Drbg
from repro.tls.actions import Send
from repro.tls.certs import make_server_credentials
from repro.tls.client import TlsClient
from repro.tls.errors import BadRecordMac, DecodeError, PeerAlert, TlsError
from repro.tls.records import CONTENT_ALERT, CONTENT_APPLICATION_DATA
from repro.tls.server import TlsServer
from repro.tls.session import SecureChannel, establish_channels


@pytest.fixture
def completed_handshake():
    # one handshake per test: channels adopt the endpoints' application
    # record protections, so their sequence numbers are per-session state
    drbg = Drbg("session-test")
    cert, sk, store = make_server_credentials("dilithium2", drbg.fork("ca"))
    client = TlsClient("kyber512", "dilithium2", store, drbg.fork("c"))
    server = TlsServer("kyber512", "dilithium2", cert, sk, drbg.fork("s"))
    out = b"".join(a.data for a in client.start() if isinstance(a, Send))
    server_out = b"".join(a.data for a in server.receive(out) if isinstance(a, Send))
    fin = b"".join(a.data for a in client.receive(server_out) if isinstance(a, Send))
    server.receive(fin)
    assert client.handshake_complete and server.handshake_complete
    return client, server


def test_bidirectional_application_data(completed_handshake):
    client_chan, server_chan = establish_channels(*completed_handshake)
    wire = client_chan.send(b"GET / HTTP/1.1\r\n\r\n")
    assert server_chan.receive(wire) == b"GET / HTTP/1.1\r\n\r\n"
    reply = server_chan.send(b"HTTP/1.1 200 OK\r\n\r\nhello pq world")
    assert client_chan.receive(reply) == b"HTTP/1.1 200 OK\r\n\r\nhello pq world"


def test_large_payload_fragments(completed_handshake):
    client_chan, server_chan = establish_channels(*completed_handshake)
    payload = bytes(i & 0xFF for i in range(100_000))
    wire = client_chan.send(payload)
    assert server_chan.receive(wire) == payload


def test_partial_delivery_buffers(completed_handshake):
    client_chan, server_chan = establish_channels(*completed_handshake)
    wire = client_chan.send(b"split across arrivals")
    assert server_chan.receive(wire[:10]) == b""
    assert server_chan.receive(wire[10:]) == b"split across arrivals"


def test_wire_is_actually_encrypted(completed_handshake):
    client_chan, _ = establish_channels(*completed_handshake)
    wire = client_chan.send(b"super secret payload")
    assert b"super secret" not in wire


def test_tampering_detected(completed_handshake):
    client_chan, server_chan = establish_channels(*completed_handshake)
    wire = bytearray(client_chan.send(b"important"))
    wire[8] ^= 0x01
    with pytest.raises(BadRecordMac):
        server_chan.receive(bytes(wire))


def test_direction_separation(completed_handshake):
    """A client record replayed to the client itself must not decrypt."""
    client_chan, _ = establish_channels(*completed_handshake)
    wire = client_chan.send(b"loopback?")
    with pytest.raises(BadRecordMac):
        client_chan.receive(wire)


def test_close_notify_flow(completed_handshake):
    client_chan, server_chan = establish_channels(*completed_handshake)
    server_chan.receive(client_chan.send(b"bye soon"))
    close_wire = client_chan.send_close()
    assert server_chan.receive(close_wire) == b""
    assert server_chan.closed and client_chan.closed
    with pytest.raises(TlsError):
        client_chan.send(b"after close")
    with pytest.raises(TlsError):
        server_chan.receive(
            SecureChannel(completed_handshake[0]).send(b"x"))


def test_malformed_alert_is_decode_error(completed_handshake):
    """A 1-byte alert payload must raise DecodeError, not read as a peer alert."""
    client_chan, server_chan = establish_channels(*completed_handshake)
    record = client_chan._send.encrypt(CONTENT_ALERT, b"\x02")
    with pytest.raises(DecodeError):
        server_chan.receive(record.encode())


def test_oversized_alert_is_decode_error(completed_handshake):
    client_chan, server_chan = establish_channels(*completed_handshake)
    record = client_chan._send.encrypt(CONTENT_ALERT, b"\x02\x28\x00")
    with pytest.raises(DecodeError):
        server_chan.receive(record.encode())


def test_well_formed_alert_still_surfaces_peer_alert(completed_handshake):
    client_chan, server_chan = establish_channels(*completed_handshake)
    record = client_chan._send.encrypt(CONTENT_ALERT, b"\x02\x28")  # handshake_failure
    with pytest.raises(PeerAlert) as exc:
        server_chan.receive(record.encode())
    assert exc.value.code == 40


def test_app_data_after_close_is_clean_tls_error(completed_handshake):
    """Records following close_notify fail loudly, not as MAC noise."""
    client_chan, server_chan = establish_channels(*completed_handshake)
    assert server_chan.receive(client_chan.send_close()) == b""
    # bypass the sender-side closed guard to forge a post-close record
    record = client_chan._send.encrypt(CONTENT_APPLICATION_DATA, b"late")
    with pytest.raises(TlsError) as exc:
        server_chan.receive(record.encode())
    assert not isinstance(exc.value, BadRecordMac)
    assert "close_notify" in str(exc.value)


def test_key_update_rotates_one_direction(completed_handshake):
    client_chan, server_chan = establish_channels(*completed_handshake)
    assert server_chan.receive(client_chan.initiate_key_update()) == b""
    assert client_chan.send_generation == 1
    assert server_chan.receive_generation == 1
    assert server_chan.receive(client_chan.send(b"fresh keys")) == b"fresh keys"
    # the reverse direction is untouched
    assert server_chan.send_generation == 0
    assert client_chan.receive(server_chan.send(b"old keys")) == b"old keys"


def test_key_update_request_triggers_reply(completed_handshake):
    client_chan, server_chan = establish_channels(*completed_handshake)
    server_chan.receive(client_chan.initiate_key_update(request_update=True))
    reply = server_chan.take_pending()
    assert reply  # the automatic KeyUpdate(update_not_requested) response
    assert client_chan.receive(reply) == b""
    assert client_chan.receive_generation == 1
    assert server_chan.send_generation == 1
    assert client_chan.receive(server_chan.send(b"both rotated")) == b"both rotated"


def test_channels_require_completed_handshake():
    client = TlsClient("x25519", "rsa:1024",
                       make_server_credentials("rsa:1024", Drbg("q"))[2], Drbg("c"))
    with pytest.raises(Exception):
        SecureChannel(client)
