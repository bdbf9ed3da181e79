"""Sans-io TLS 1.3 server with the paper's two message-buffering policies.

``BufferPolicy.DEFAULT`` models stock OQS-OpenSSL: handshake records
accumulate in a 4096-byte internal buffer that is flushed to TCP only when
a new record would overflow it (write-through for oversized records) or
when the server's flight is complete.

``BufferPolicy.OPTIMIZED`` models the paper's patch: the ServerHello and
the Certificate are pushed to the client the moment they are computed, so
an expensive client-side decapsulation and certificate-chain verification
overlap with the server still computing its handshake signature (§4, §5.2).
"""

from __future__ import annotations

import enum
import hashlib

from repro.crypto.drbg import Drbg
from repro.tls import messages as msg
from repro.tls.actions import Action, Compute, CryptoOp, Send
from repro.tls.certs import Certificate, TrustStore
from repro.tls.endpoint import TlsEndpoint
from repro.tls.errors import CertificateRequired, HandshakeFailure, UnexpectedMessage
from repro.tls.groups import GROUP_NAMES, group_id, sigscheme_id
from repro.tls.keyschedule import KeySchedule
from repro.tls.records import CONTENT_CHANGE_CIPHER_SPEC, Record
from repro.tls.ticket import ResumptionState, ServerSessionStore

_BUFFER_LIMIT = 4096


class BufferPolicy(enum.Enum):
    DEFAULT = "default"      # stock OpenSSL 4096 B buffer
    OPTIMIZED = "optimized"  # paper's immediate-push patch


class _FlightBuffer:
    """Models the OpenSSL internal record buffer."""

    def __init__(self, policy: BufferPolicy):
        self._policy = policy
        self._pending: list[bytes] = []
        self._pending_len = 0
        self._labels: list[str] = []

    def add(self, record_bytes: bytes, label: str, *, push_now: bool) -> list[Send]:
        sends: list[Send] = []
        if self._policy is BufferPolicy.DEFAULT:
            if self._pending_len and self._pending_len + len(record_bytes) > _BUFFER_LIMIT:
                sends.append(self._flush())
            self._pending.append(record_bytes)
            self._pending_len += len(record_bytes)
            self._labels.append(label)
            if self._pending_len > _BUFFER_LIMIT:
                sends.append(self._flush())
        else:
            self._pending.append(record_bytes)
            self._pending_len += len(record_bytes)
            self._labels.append(label)
            if push_now:
                sends.append(self._flush())
        return sends

    def _flush(self) -> Send:
        send = Send(b"".join(self._pending), "+".join(self._labels))
        self._pending = []
        self._pending_len = 0
        self._labels = []
        return send

    def finish(self) -> list[Send]:
        if self._pending:
            return [self._flush()]
        return []


class TlsServer(TlsEndpoint):
    """One server-side handshake (fresh instance per connection)."""

    _OWN = 1
    _RECEIVING = {
        "start": ("ClientHello", None),
        "wait_cert": ("encrypted handshake", None),
        "wait_cv": ("encrypted handshake", None),
        "wait_fin": ("encrypted handshake", None),
    }

    def __init__(self, kem_name: str, sig_name: str,
                 certificate: Certificate | list[Certificate] | tuple,
                 secret_key: bytes, drbg: Drbg,
                 policy: BufferPolicy = BufferPolicy.OPTIMIZED, *,
                 client_auth: TrustStore | None = None,
                 session_store: ServerSessionStore | None = None,
                 issue_tickets: int = 0):
        super().__init__(kem_name, sig_name, drbg)
        if isinstance(certificate, Certificate):
            self._chain = [certificate]
        else:
            self._chain = list(certificate)
        self._secret_key = secret_key
        self._policy = policy
        self._client_auth = client_auth
        self._session_store = session_store
        self._issue_tickets = issue_tickets
        if issue_tickets and session_store is None:
            raise HandshakeFailure("ticket issuance requires a session store")
        self._retry_sent = False

    # -- receive path (record prelude and abort live in TlsEndpoint) ---------
    def _handle_message(self, msg_type: int, body: bytes, raw: bytes) -> list[Action]:
        if self._state == "start":
            if msg_type != msg.HT_CLIENT_HELLO:
                raise UnexpectedMessage(f"unexpected handshake type {msg_type}")
            return self._process_client_hello(body, raw)
        # client flight: [Certificate + CertificateVerify +] Finished
        if self._state == "wait_cert":
            if msg_type != msg.HT_CERTIFICATE:
                raise UnexpectedMessage("expected client Certificate")
            cert_blobs = msg.decode_certificate(body)
            if not cert_blobs:
                raise CertificateRequired("client declined to authenticate")
            return self._verify_peer_chain(cert_blobs, raw, self._client_auth,
                                           None, "CliCert", "client ")
        if self._state == "wait_cv":
            if msg_type != msg.HT_CERTIFICATE_VERIFY:
                raise UnexpectedMessage("expected client CertificateVerify")
            return self._verify_peer_signature(
                body, raw, msg.CERTIFICATE_VERIFY_CLIENT_CONTEXT, "CliCV", "client ")
        if msg_type != msg.HT_FINISHED:
            raise UnexpectedMessage(f"unexpected handshake type {msg_type}")
        return self._process_finished(body, raw)

    # -- ClientHello -> full server flight ------------------------------------
    def _process_client_hello(self, body: bytes, raw: bytes) -> list[Action]:
        hello = msg.ClientHello.decode(body)
        my_group = group_id(self.kem_name)
        share = next((s for gid, s in hello.key_shares if gid == my_group), None)
        if share is None:
            if my_group in hello.group_ids and not self._retry_sent:
                return self._send_hello_retry(hello, raw)
            offered = [GROUP_NAMES.get(gid, hex(gid)) for gid, _ in hello.key_shares]
            raise HandshakeFailure(
                f"client offered {offered}, server requires {self.kem_name}")
        if sigscheme_id(self.sig_name) not in hello.sig_scheme_ids:
            raise HandshakeFailure(f"client does not accept {self.sig_name}")
        psk = self._redeem_psk(hello, raw)
        if psk is not None:
            self.resumed = True
            self._schedule = KeySchedule(psk=psk)
        self._transcript.update(raw)
        actions: list[Action] = [
            Compute((
                CryptoOp("tls_frame", size=len(raw), detail="CH"),
                CryptoOp("kem_encaps", self.kem_name, detail="CH"),
            )),
        ]
        if psk is not None:
            actions.append(Compute((CryptoOp("psk_binder", detail="CH"),)))
        ciphertext, shared_secret = self._kem.encaps(share, self._drbg)
        buffer = _FlightBuffer(self._policy)

        server_hello = msg.ServerHello(
            random=self._drbg.random_bytes(32),
            session_id=hello.session_id,
            group_id=my_group,
            key_share=ciphertext,
            psk_selected=self.resumed,
        ).encode()
        self._transcript.update(server_hello)
        ccs = Record(CONTENT_CHANGE_CIPHER_SPEC, b"\x01").encode()
        actions.extend(buffer.add(self._wire(server_hello) + ccs, "SH", push_now=True))

        self._set_handshake_keys(shared_secret)
        actions.append(Compute((
            CryptoOp("key_schedule", detail="SH"),
            CryptoOp("tls_frame", size=len(server_hello), detail="SH"),
        )))

        encrypted_ext = msg.encode_encrypted_extensions()
        self._transcript.update(encrypted_ext)
        flight = encrypted_ext
        flight_label = "EE"
        next_state = "wait_fin"
        if not self.resumed:
            if self._client_auth is not None:
                cert_request = msg.encode_certificate_request(
                    [sigscheme_id(self.sig_name)]
                )
                self._transcript.update(cert_request)
                flight += cert_request
                flight_label += "+CR"
                next_state = "wait_cert"
            cert_msg = msg.encode_certificate(
                [cert.encode() for cert in self._chain]
            )
            self._transcript.update(cert_msg)
            flight += cert_msg
            flight_label += "+Cert"
        actions.append(Compute((
            CryptoOp("record_crypt", size=len(flight), detail=flight_label),
            CryptoOp("tls_frame", size=len(flight), detail=flight_label),
        )))
        actions.extend(buffer.add(self._wire(flight, self._send_protection),
                                  flight_label, push_now=True))

        if not self.resumed:
            sign_cost, cert_verify = self._sign_transcript(
                self._secret_key, msg.CERTIFICATE_VERIFY_SERVER_CONTEXT, "CV")
            actions.append(sign_cost)
            actions.append(Compute((
                CryptoOp("record_crypt", size=len(cert_verify), detail="CV"),
                CryptoOp("tls_frame", size=len(cert_verify), detail="CV"),
            )))
            actions.extend(buffer.add(self._wire(cert_verify, self._send_protection),
                                      "CV", push_now=False))

        finished = self._finished(self._schedule.server_hs_secret)
        actions.append(Compute((
            CryptoOp("finished_mac", detail="Fin"),
            CryptoOp("record_crypt", size=len(finished), detail="Fin"),
        )))
        actions.extend(buffer.add(self._wire(finished, self._send_protection),
                                  "Fin", push_now=False))
        actions.extend(buffer.finish())

        self._schedule.derive_master(self._transcript.digest())
        self._state = next_state
        for action in actions:
            if isinstance(action, Send):
                self.bytes_out += len(action.data)
        return actions

    def _send_hello_retry(self, hello: msg.ClientHello, raw: bytes) -> list[Action]:
        """No usable key share but a supported group: ask for a second CH."""
        self._retry_sent = True
        self._transcript.restart(msg.message_hash(raw))
        retry = msg.ServerHello(
            random=msg.HELLO_RETRY_REQUEST_RANDOM,
            session_id=hello.session_id,
            group_id=group_id(self.kem_name),
            key_share=b"",
        ).encode()
        self._transcript.update(retry)
        return [
            Compute((
                CryptoOp("tls_frame", size=len(raw), detail="CH1"),
                CryptoOp("tls_frame", size=len(retry), detail="HRR"),
            )),
            self._send(self._wire(retry), "HRR"),
        ]

    def _redeem_psk(self, hello: msg.ClientHello, raw: bytes) -> bytes | None:
        """Validate an offered ticket; None falls back to a full handshake."""
        if hello.psk_identity is None or self._session_store is None:
            return None
        if self._retry_sent:
            # the binder would cover the post-HRR transcript; out of scope
            return None
        state = self._session_store.redeem(hello.psk_identity)
        if state is None:
            return None
        if (state.kem, state.sig) != (self.kem_name, self.sig_name):
            return None
        binder_key = KeySchedule(psk=state.psk).psk_binder_key()
        truncated_hash = hashlib.sha256(raw[:-msg.BINDER_SUFFIX_LEN]).digest()
        expected = KeySchedule.psk_binder(binder_key, truncated_hash)
        if hello.psk_binder != expected:
            raise HandshakeFailure("PSK binder verification failed")
        return state.psk

    def _process_finished(self, body: bytes, raw: bytes) -> list[Action]:
        self._check_peer_finished(body, raw, self._schedule.client_hs_secret, "client ")
        self.handshake_complete = True
        self._state = "connected"
        actions: list[Action] = [Compute((
            CryptoOp("finished_mac", detail="CliFin"),
            CryptoOp("record_crypt", size=len(raw), detail="CliFin"),
        ))]
        self._schedule.derive_resumption(self._transcript.digest())
        if self._issue_tickets:
            actions.extend(self._mint_tickets())
        return actions

    def _mint_tickets(self) -> list[Action]:
        """Issue NewSessionTickets over the application traffic keys."""
        send_protection, _recv = self.app_protections()
        actions: list[Action] = []
        for index in range(self._issue_tickets):
            nonce = index.to_bytes(8, "big")
            psk = KeySchedule.ticket_psk(
                self._schedule.resumption_master_secret, nonce
            )
            identity = self._drbg.random_bytes(32)
            age_add = int.from_bytes(self._drbg.random_bytes(4), "big")
            self._session_store.put(identity, ResumptionState(
                psk=psk, kem=self.kem_name, sig=self.sig_name,
            ))
            ticket = msg.NewSessionTicket(
                lifetime=7200, age_add=age_add, nonce=nonce, ticket=identity
            ).encode()
            actions.append(Compute((
                CryptoOp("session_ticket", detail="NST"),
                CryptoOp("record_crypt", size=len(ticket), detail="NST"),
            )))
            actions.append(self._send(self._wire(ticket, send_protection), "NST"))
        return actions
