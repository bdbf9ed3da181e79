"""Post-handshake secure channel: application data over the session keys.

The paper only measures the handshake, but its testbed (openssl
s_client/s_server) exchanges application data over the established
channel; this module provides that surface so the library is usable as an
actual TLS session, not just a handshake benchmark.

Both peers derive the same application traffic secrets from the handshake
(RFC 8446 §7.2); a :class:`SecureChannel` frames application bytes into
protected records in one direction and opens them in the other. The
channel also speaks the two post-handshake messages that ride on the
application keys: KeyUpdate (§4.6.3) rotates its traffic secrets in
either direction, and NewSessionTicket messages are handed to the
owning endpoint (a client stores them in its session cache).
"""

from __future__ import annotations

from repro.tls import messages as msg
from repro.tls.errors import ALERT_CLOSE_NOTIFY, DecodeError, PeerAlert, TlsError
from repro.tls.keyschedule import KeySchedule, traffic_keys
from repro.tls.records import (
    CONTENT_ALERT,
    CONTENT_APPLICATION_DATA,
    CONTENT_HANDSHAKE,
    RecordProtection,
    decode_alert,
    decode_records,
)

_MAX_CHUNK = 2 ** 14 - 256


class SecureChannel:
    """One endpoint's view of the established application-data channel."""

    def __init__(self, endpoint):
        """Adopt a completed endpoint's application keys.

        The record protections come from ``endpoint.app_protections()``:
        when the endpoint already exchanged post-handshake messages
        (NewSessionTicket) their sequence numbers have advanced, and the
        channel must continue them rather than restart at zero (nonce
        reuse). NewSessionTickets go to ``endpoint.accept_ticket``.
        """
        self._send_secret, self._receive_secret = endpoint.app_traffic_secrets
        self._send, self._receive = endpoint.app_protections()
        self._accept_ticket = endpoint.accept_ticket
        self._buffer = b""
        self._hs_stream = b""
        self.pending_out = b""       # auto-responses (KeyUpdate replies)
        self.send_generation = 0     # KeyUpdate epochs on each direction
        self.receive_generation = 0
        self.closed = False

    # -- sending -----------------------------------------------------------
    def send(self, data: bytes) -> bytes:
        """Protect application bytes; returns wire bytes for the transport."""
        if self.closed:
            raise TlsError("channel is closed")
        out = bytearray()
        for i in range(0, len(data), _MAX_CHUNK):
            record = self._send.encrypt(
                CONTENT_APPLICATION_DATA, data[i: i + _MAX_CHUNK])
            out.extend(record.encode())
        return bytes(out)

    def send_close(self) -> bytes:
        """A close_notify alert (1 byte level, 1 byte description 0)."""
        record = self._send.encrypt(CONTENT_ALERT, b"\x01\x00")
        self.closed = True
        return record.encode()

    def initiate_key_update(self, request_update: bool = False) -> bytes:
        """Rotate our send keys; returns the KeyUpdate wire bytes.

        With ``request_update`` the peer is asked to rotate its own send
        direction too; its reply lands in our ``pending_out`` handling on
        receive.
        """
        if self.closed:
            raise TlsError("channel is closed")
        record = self._send.encrypt(
            CONTENT_HANDSHAKE, msg.encode_key_update(request_update))
        wire = record.encode()
        self._send_secret = KeySchedule.next_traffic_secret(self._send_secret)
        self._send = RecordProtection(traffic_keys(self._send_secret))
        self.send_generation += 1
        return wire

    # -- receiving -----------------------------------------------------------
    def receive(self, wire: bytes) -> bytes:
        """Open incoming records; returns the plaintext application bytes.

        Raises DecodeError on tampering or malformed alerts, TlsError on
        any record following a close_notify. KeyUpdate requests queue an
        automatic reply in :attr:`pending_out`; the caller flushes it to
        the transport.
        """
        self._buffer += wire
        records, self._buffer = decode_records(self._buffer)
        plaintext = bytearray()
        for record in records:
            content_type, data = self._receive.decrypt(record)
            if content_type == CONTENT_ALERT:
                # decode_alert raises DecodeError on short/oversized payloads
                # instead of misreading garbage as a peer alert
                _level, description = decode_alert(data)
                if description == ALERT_CLOSE_NOTIFY:
                    self.closed = True
                    continue
                raise PeerAlert(description)
            if self.closed:
                raise TlsError("data received after close_notify")
            if content_type == CONTENT_HANDSHAKE:
                self._handle_post_handshake(data)
                continue
            if content_type != CONTENT_APPLICATION_DATA:
                raise DecodeError(
                    f"unexpected content type {content_type} on the app channel")
            plaintext.extend(data)
        return bytes(plaintext)

    def _handle_post_handshake(self, data: bytes) -> None:
        self._hs_stream += data
        msgs, self._hs_stream = msg.iter_handshake_messages(self._hs_stream)
        for msg_type, body, raw in msgs:
            if msg_type == msg.HT_KEY_UPDATE:
                requested = msg.decode_key_update(body)
                self._receive_secret = KeySchedule.next_traffic_secret(
                    self._receive_secret)
                self._receive = RecordProtection(traffic_keys(self._receive_secret))
                self.receive_generation += 1
                if requested:
                    self.pending_out += self.initiate_key_update(False)
            elif msg_type == msg.HT_NEW_SESSION_TICKET:
                self._accept_ticket(body, raw)
            else:
                raise DecodeError(
                    f"unexpected post-handshake message type {msg_type}")

    def take_pending(self) -> bytes:
        """Drain queued auto-responses (KeyUpdate replies) for the wire."""
        out, self.pending_out = self.pending_out, b""
        return out


def establish_channels(tls_client, tls_server) -> tuple[SecureChannel, SecureChannel]:
    """Channels for both ends of a completed handshake (testing helper)."""
    return SecureChannel(tls_client), SecureChannel(tls_server)
