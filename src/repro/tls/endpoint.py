"""The TLS 1.3 endpoint core shared by the sans-io client and server.

Both roles run the same protocol steps on mirrored keys: open the peer's
records, verify its certificate chain, CertificateVerify and Finished,
sign and finish their own flight, and put it on the wire. This module
holds the one copy of each step; the helpers take the role's values
(trust store, signature context, traffic secret, op detail, error
prefix) as arguments. :mod:`repro.tls.client` and :mod:`repro.tls.server`
keep only what is genuinely one-sided: hellos, the PSK offer and its
redemption, HelloRetryRequest, CertificateRequest, the server's flight
buffering and the tickets.

Connection aborts follow RFC 8446 §6.2: every handshake-time error is
fatal. An endpoint that hits one sends a single alert record, enters a
terminal FAILED state, and ignores everything the peer says afterwards;
an endpoint that *receives* a fatal alert closes without echoing one
back. Failures are recorded on the endpoint (``failed`` / ``failure`` /
``alert_sent`` / ``alert_received``) instead of unwinding through the
event loop, so the testbed can turn them into typed
:class:`repro.faults.HandshakeOutcome` values.
"""

from __future__ import annotations

from repro.crypto.drbg import Drbg
from repro.pqc.registry import get_kem, get_sig
from repro.tls import messages as msg
from repro.tls.actions import Action, Compute, CryptoOp, Send
from repro.tls.certs import Certificate, TrustStore
from repro.tls.errors import (
    DecodeError,
    HandshakeFailure,
    PeerAlert,
    TlsError,
    UnexpectedMessage,
    alert_name,
)
from repro.tls.groups import SIGSCHEME_NAMES, sigscheme_id
from repro.tls.keyschedule import KeySchedule, traffic_keys
from repro.tls.records import (
    CONTENT_ALERT,
    CONTENT_CHANGE_CIPHER_SPEC,
    CONTENT_HANDSHAKE,
    Record,
    RecordProtection,
    content_type_name,
    decode_alert,
    decode_records,
    encode_alert,
    encrypt_handshake_stream,
    fragment_handshake,
)
from repro.tls.transcript import TranscriptHash

# Malformed peer bytes can slip past explicit length checks and blow up in
# struct-level parsing; at the record boundary they all mean decode_error.
_PARSE_ERRORS = (ValueError, KeyError, IndexError, OverflowError)


class TlsEndpoint:
    """One handshake's state, record prelude, abort path and shared steps.

    Roles set ``_OWN``, their index in every (client, server) pair, and
    ``_RECEIVING``, which maps each state that accepts records to what
    it expects (the peer's hello name while records are plaintext, else
    the kind of protected record) and the ``record_crypt`` detail its
    decryption is reported under (None: not reported). They implement
    ``_handle_message(msg_type, body, raw) -> list[Action]``.
    """

    _OWN: int
    _RECEIVING: dict[str, tuple[str, str | None]]

    def __init__(self, kem_name: str, sig_name: str, drbg: Drbg):
        self.kem_name = kem_name
        self.sig_name = sig_name
        self._kem = get_kem(kem_name)
        self._sig = get_sig(sig_name)
        self._drbg = drbg
        self._transcript = TranscriptHash()
        self._schedule = KeySchedule()
        self._recv_buffer = b""
        self._hs_stream = b""  # handshake messages split across records
        self._send_protection: RecordProtection | None = None
        self._recv_protection: RecordProtection | None = None
        self._app_protections: tuple[RecordProtection, RecordProtection] | None = None
        self._peer_cert: Certificate | None = None
        self.resumed = False
        self._state = "start"
        self.handshake_complete = False
        self.bytes_out = 0
        self.failed = False
        self.failure: TlsError | None = None
        self.alert_sent: int | None = None
        self.alert_received: int | None = None

    # -- receive path ------------------------------------------------------
    def receive(self, data: bytes) -> list[Action]:
        """Feed TCP bytes from the peer; returns ordered actions.

        Never raises on peer-triggered errors: a failure aborts the
        connection (alert on the wire, terminal state) and any bytes
        arriving afterwards are silently ignored.
        """
        if self.failed:
            return []
        self._recv_buffer += data
        actions: list[Action] = []
        try:
            records, self._recv_buffer = decode_records(self._recv_buffer)
            for record in records:
                if self.failed:
                    break
                actions.extend(self._handle_record(record))
        except TlsError as error:
            actions.extend(self._abort(error))
        except _PARSE_ERRORS as error:
            actions.extend(self._abort(DecodeError(f"malformed peer data: {error!r}")))
        return actions

    def _abort(self, error: TlsError) -> list[Action]:
        """Enter the terminal FAILED state; emit our alert if we failed first."""
        self.failed = True
        self.failure = error
        self._state = "failed"
        if isinstance(error, PeerAlert):
            # the peer aborted first: record its alert, never echo one back
            self.alert_received = error.code
            return []
        self.alert_sent = error.alert
        return [self._send(encode_alert(error.alert).encode(),
                           f"Alert({alert_name(error.alert)})")]

    def _handle_record(self, record: Record) -> list[Action]:
        """The record prelude: skip CCS, surface alerts, open, reassemble."""
        if record.content_type == CONTENT_CHANGE_CIPHER_SPEC:
            return []
        if record.content_type == CONTENT_ALERT:
            _level, description = decode_alert(record.payload)
            raise PeerAlert(description)
        if self._state not in self._RECEIVING:
            raise UnexpectedMessage(f"record in state {self._state}")
        expected, detail = self._RECEIVING[self._state]
        actions: list[Action] = []
        if self._recv_protection is None:
            if record.content_type != CONTENT_HANDSHAKE:
                raise UnexpectedMessage(
                    f"expected {expected}, got "
                    f"{content_type_name(record.content_type)} record")
            plaintext = record.payload
        else:
            content_type, plaintext = self._recv_protection.decrypt(record)
            if content_type != CONTENT_HANDSHAKE:
                raise UnexpectedMessage(
                    f"expected {expected} record, got inner "
                    f"{content_type_name(content_type)}")
            if detail is not None:
                actions.append(Compute((CryptoOp(
                    "record_crypt", size=len(plaintext), detail=detail),)))
        # RFC 8446 §5.1 allows any fragmentation: incomplete tails wait
        self._hs_stream += plaintext
        msgs, self._hs_stream = msg.iter_handshake_messages(self._hs_stream)
        for msg_type, body, raw in msgs:
            actions.extend(self._handle_message(msg_type, body, raw))
        return actions

    # -- keys ----------------------------------------------------------------
    def _own_and_peer(self, pair: tuple[bytes, bytes]) -> tuple[bytes, bytes]:
        """This role's and its peer's half of a (client, server) pair."""
        return pair[self._OWN], pair[1 - self._OWN]

    def _set_handshake_keys(self, shared_secret: bytes) -> None:
        """Key the schedule once CH..SH is hashed; protect both directions."""
        self._schedule.set_shared_secret(shared_secret, self._transcript.digest())
        send_secret, recv_secret = self._own_and_peer(
            (self._schedule.client_hs_secret, self._schedule.server_hs_secret))
        self._send_protection = RecordProtection(traffic_keys(send_secret))
        self._recv_protection = RecordProtection(traffic_keys(recv_secret))

    @property
    def application_secrets(self) -> tuple[bytes, bytes]:
        """The (client, server) application traffic secrets."""
        if not self.handshake_complete:
            raise HandshakeFailure("handshake not complete")
        return self._schedule.client_app_secret, self._schedule.server_app_secret

    @property
    def app_traffic_secrets(self) -> tuple[bytes, bytes]:
        """The (send, receive) application traffic secrets."""
        return self._own_and_peer(self.application_secrets)

    def app_protections(self) -> tuple[RecordProtection, RecordProtection]:
        """(send, receive) protections over the application secrets.

        Shared with post-handshake traffic (NewSessionTickets) so a
        :class:`~repro.tls.session.SecureChannel` adopting them continues
        the same record sequence instead of reusing nonces.
        """
        if self._app_protections is None:
            send_secret, recv_secret = self.app_traffic_secrets
            self._app_protections = (RecordProtection(traffic_keys(send_secret)),
                                     RecordProtection(traffic_keys(recv_secret)))
        return self._app_protections

    def accept_ticket(self, body: bytes, raw: bytes) -> list[Action]:
        """A post-handshake NewSessionTicket; only a client keeps one."""
        return []

    # -- authentication --------------------------------------------------------
    def _verify_peer_chain(self, cert_blobs: list[bytes], raw: bytes,
                           trust_store: TrustStore, expected_subject: str | None,
                           detail: str, prefix: str) -> list[Action]:
        """Verify the peer's Certificate; its leaf keys the CertificateVerify."""
        chain = [Certificate.decode(blob) for blob in cert_blobs]
        leaf = trust_store.verify_chain(chain, expected_subject=expected_subject)
        if leaf.algorithm != self.sig_name:
            raise HandshakeFailure(
                f"{prefix}certificate uses {leaf.algorithm}, expected {self.sig_name}")
        self._peer_cert = leaf
        self._transcript.update(raw)
        self._state = "wait_cv"
        return [Compute((
            CryptoOp("tls_frame", size=len(raw), detail=detail),
            CryptoOp("cert_verify", self.sig_name, detail=detail),
        ))]

    def _verify_peer_signature(self, body: bytes, raw: bytes, context: bytes,
                               detail: str, prefix: str) -> list[Action]:
        """Verify the peer's CertificateVerify over the transcript so far."""
        scheme_id, signature = msg.decode_certificate_verify(body)
        scheme_name = SIGSCHEME_NAMES.get(scheme_id)
        if scheme_name != self.sig_name:
            raise HandshakeFailure(
                f"unexpected {prefix}CertificateVerify scheme {scheme_name}")
        payload = context + self._transcript.digest()
        if not self._sig.verify(self._peer_cert.public_key, payload, signature):
            raise HandshakeFailure(f"{prefix}CertificateVerify signature invalid")
        self._transcript.update(raw)
        self._state = "wait_fin"
        return [Compute((CryptoOp("sig_verify", self.sig_name, detail=detail),))]

    def _sign_transcript(self, secret_key: bytes, context: bytes,
                         detail: str) -> tuple[Compute, bytes]:
        """Our CertificateVerify message and the op that prices it."""
        payload = context + self._transcript.digest()
        signature = self._sig.sign(secret_key, payload, self._drbg)
        cert_verify = msg.encode_certificate_verify(
            sigscheme_id(self.sig_name), signature)
        self._transcript.update(cert_verify)
        return Compute((CryptoOp("sig_sign", self.sig_name, detail=detail),)), cert_verify

    # -- Finished --------------------------------------------------------------
    def _check_peer_finished(self, body: bytes, raw: bytes, traffic_secret: bytes,
                             prefix: str) -> None:
        expected = self._schedule.finished_verify_data(
            traffic_secret, self._transcript.digest())
        if body != expected:
            raise HandshakeFailure(f"{prefix}Finished verification failed")
        self._transcript.update(raw)

    def _finished(self, traffic_secret: bytes) -> bytes:
        """Our Finished message over the transcript so far."""
        finished = msg.encode_finished(self._schedule.finished_verify_data(
            traffic_secret, self._transcript.digest()))
        self._transcript.update(finished)
        return finished

    # -- wire ------------------------------------------------------------------
    @staticmethod
    def _wire(payload: bytes, protection: RecordProtection | None = None) -> bytes:
        """Handshake bytes as records: plaintext before keys, protected after."""
        records = (fragment_handshake(payload) if protection is None
                   else encrypt_handshake_stream(protection, payload))
        return b"".join(record.encode() for record in records)

    def _send(self, wire: bytes, label: str) -> Send:
        self.bytes_out += len(wire)
        return Send(wire, label)
