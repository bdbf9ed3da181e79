"""Alert records on the wire, terminal abort semantics, fault-driven alerts."""

import pytest

from repro.crypto.drbg import Drbg
from repro.tls.actions import Send
from repro.tls.certs import make_server_credentials
from repro.tls.client import TlsClient
from repro.tls.errors import (
    ALERT_BAD_RECORD_MAC,
    ALERT_DECODE_ERROR,
    ALERT_HANDSHAKE_FAILURE,
    DecodeError,
    PeerAlert,
    alert_name,
)
from repro.tls.records import (
    ALERT_LEVEL_FATAL,
    CONTENT_ALERT,
    CONTENT_HANDSHAKE,
    decode_alert,
    decode_records,
    encode_alert,
)
from repro.tls.server import TlsServer


# -- wire format -------------------------------------------------------------

def test_alert_record_encode_shape():
    record = encode_alert(ALERT_HANDSHAKE_FAILURE)
    assert record.content_type == CONTENT_ALERT
    assert record.payload == bytes((ALERT_LEVEL_FATAL, ALERT_HANDSHAKE_FAILURE))
    wire = record.encode()
    assert wire[0] == 21 and wire[-2:] == bytes((2, 40))


@pytest.mark.parametrize("code", [ALERT_BAD_RECORD_MAC, ALERT_DECODE_ERROR,
                                  ALERT_HANDSHAKE_FAILURE])
def test_alert_encode_decode_roundtrip(code):
    level, description = decode_alert(encode_alert(code).payload)
    assert (level, description) == (ALERT_LEVEL_FATAL, code)


def test_decode_alert_rejects_wrong_length():
    with pytest.raises(DecodeError, match="2 bytes"):
        decode_alert(b"\x02")
    with pytest.raises(DecodeError):
        decode_alert(b"\x02\x28\x00")


def test_alert_name_known_and_unknown():
    assert alert_name(ALERT_BAD_RECORD_MAC) == "bad_record_mac"
    assert alert_name(123) == "alert_123"


# -- abort flow: one alert out, terminal state, no echo ----------------------

def _mismatched_pair(seed="alert-flow"):
    drbg = Drbg(seed)
    cert, sk, store = make_server_credentials("rsa:1024", drbg.fork("ca"))
    client = TlsClient("x25519", "rsa:1024", store, drbg.fork("c"))
    server = TlsServer("kyber512", "rsa:1024", cert, sk, drbg.fork("s"))
    return client, server


def test_failing_endpoint_puts_alert_record_on_the_wire():
    client, server = _mismatched_pair()
    hello = b"".join(a.data for a in client.start() if isinstance(a, Send))
    sends = [a for a in server.receive(hello) if isinstance(a, Send)]
    assert len(sends) == 1
    records, rest = decode_records(sends[0].data)
    assert rest == b"" and len(records) == 1
    assert records[0].content_type == CONTENT_ALERT
    assert decode_alert(records[0].payload) == (ALERT_LEVEL_FATAL,
                                                ALERT_HANDSHAKE_FAILURE)
    # accounting includes the failed path's bytes
    assert server.bytes_out == len(sends[0].data)


def test_alert_receiver_closes_without_echo():
    client, server = _mismatched_pair(seed="alert-echo")
    hello = b"".join(a.data for a in client.start() if isinstance(a, Send))
    alert_wire = b"".join(a.data for a in server.receive(hello)
                          if isinstance(a, Send))
    actions = client.receive(alert_wire)
    assert actions == []           # no echo, no further flights
    assert client.failed and isinstance(client.failure, PeerAlert)
    assert client.alert_received == ALERT_HANDSHAKE_FAILURE
    assert client.alert_sent is None


def test_failed_endpoints_ignore_all_further_bytes():
    client, server = _mismatched_pair(seed="alert-terminal")
    hello = b"".join(a.data for a in client.start() if isinstance(a, Send))
    server.receive(hello)
    assert server.failed
    for junk in (hello, b"\x16\x03\x03\x00\x01\x00", b"garbage"):
        assert server.receive(junk) == []
    assert server.alert_sent == ALERT_HANDSHAKE_FAILURE  # unchanged


def test_malformed_garbage_aborts_with_decode_error():
    drbg = Drbg("garbage")
    cert, sk, store = make_server_credentials("rsa:1024", drbg.fork("ca"))
    server = TlsServer("x25519", "rsa:1024", cert, sk, drbg.fork("s"))
    # a plausible record header with a nonsense handshake body
    body = bytes([99, 0, 0, 2, 1]) + b"\xff"
    wire = bytes([CONTENT_HANDSHAKE, 3, 3]) + len(body).to_bytes(2, "big") + body
    sends = [a for a in server.receive(wire) if isinstance(a, Send)]
    assert server.failed
    assert server.alert_sent is not None
    assert sends and "Alert" in sends[-1].label


# -- fragmented client Finished (reassembly across record boundaries) --------

def test_client_finished_split_across_records(monkeypatch):
    """RFC 8446 §5.1: a handshake message may span records. The server must
    reassemble a client Finished whose bytes arrive in two TLS records."""
    from repro.tls import endpoint as endpoint_module

    def split_in_two(protection, payload):
        mid = len(payload) // 2
        return [protection.encrypt(CONTENT_HANDSHAKE, payload[:mid]),
                protection.encrypt(CONTENT_HANDSHAKE, payload[mid:])]

    drbg = Drbg("split-fin")
    cert, sk, store = make_server_credentials("rsa:1024", drbg.fork("ca"))
    client = TlsClient("x25519", "rsa:1024", store, drbg.fork("c"))
    server = TlsServer("x25519", "rsa:1024", cert, sk, drbg.fork("s"))
    hello = b"".join(a.data for a in client.start() if isinstance(a, Send))
    flight = b"".join(a.data for a in server.receive(hello)
                      if isinstance(a, Send))
    # both roles protect through the shared endpoint core: split from here
    # on, so only the client's Finished flight is fragmented
    monkeypatch.setattr(endpoint_module, "encrypt_handshake_stream", split_in_two)
    fin = b"".join(a.data for a in client.receive(flight)
                   if isinstance(a, Send))
    # deliver the two Finished records one at a time, as TCP might
    records, rest = decode_records(fin)
    assert rest == b"" and len(records) >= 3  # CCS + two Finished fragments
    for record in records:
        server.receive(record.encode())
    assert server.handshake_complete and not server.failed
    assert client.application_secrets == server.application_secrets


# -- fault-driven alerts end to end (deliver-mode corruption) ----------------

def test_deliver_corruption_provokes_bad_record_mac_alert():
    from repro.faults.plan import CORRUPT_DELIVER, FaultPlan
    from repro.netsim.testbed import Testbed
    from repro.obs.metrics import Metrics

    creds = make_server_credentials("rsa:1024", Drbg("golden-creds"))
    bed = Testbed("x25519", "rsa:1024", *creds)
    metrics = Metrics()
    plan = FaultPlan(corrupt_nth=2, corrupt_mode=CORRUPT_DELIVER)
    trace = bed.run_handshake(plan=plan, metrics=metrics)
    assert not trace.outcome.ok
    assert trace.outcome.key == "alert.bad_record_mac"
    assert trace.outcome.alert == ALERT_BAD_RECORD_MAC
    assert trace.total == 0.0  # no phase timings on a failed run
    counters = metrics.snapshot()["counters"]
    assert counters["handshake.failures.alert.bad_record_mac"] == 1
    assert counters["netem.s2c.corrupted"] == 1


def test_deliver_corruption_of_plaintext_hello_decode_error():
    from repro.faults.plan import CORRUPT_DELIVER, FaultPlan
    from repro.netsim.testbed import Testbed

    creds = make_server_credentials("rsa:1024", Drbg("golden-creds"))
    bed = Testbed("x25519", "rsa:1024", *creds)
    plan = FaultPlan(corrupt_nth=1, corrupt_mode=CORRUPT_DELIVER)
    trace = bed.run_handshake(plan=plan)
    assert not trace.outcome.ok
    assert trace.outcome.key == "alert.decode_error"
