"""Sans-io TLS 1.3 client (1-RTT, pre-computed key share).

As in the paper's setup the client pre-computes a key share for exactly
the group the server will select, so by default the 2-RTT
HelloRetryRequest fallback never happens, and it sends the dummy
ChangeCipherSpec in the same flight (and, on the wire, the same packet)
as its Finished.

Beyond the paper's full handshake the client also speaks the session
lifecycle: it can offer a resumption PSK from a :class:`SessionCache`
ticket (falling back to a full handshake when the server declines),
recover from a HelloRetryRequest when started without a key share,
authenticate itself when the server sends a CertificateRequest, and
store post-handshake NewSessionTickets.
"""

from __future__ import annotations

import hashlib

from repro.crypto.drbg import Drbg
from repro.tls import messages as msg
from repro.tls.actions import Action, Compute, CryptoOp
from repro.tls.certs import Certificate, TrustStore
from repro.tls.endpoint import TlsEndpoint
from repro.tls.errors import HandshakeFailure, IllegalParameter, UnexpectedMessage
from repro.tls.groups import group_id, sigscheme_id
from repro.tls.keyschedule import KeySchedule
from repro.tls.records import CONTENT_CHANGE_CIPHER_SPEC, Record
from repro.tls.ticket import SessionCache, SessionTicket

_ENCRYPTED = "encrypted handshake"


class TlsClient(TlsEndpoint):
    """One client-side handshake (fresh instance per connection)."""

    _OWN = 0
    # what a record holds, by receive state (decrypt tracing context)
    _RECEIVING = {
        "wait_sh": ("ServerHello", None),
        "wait_ee": (_ENCRYPTED, "EE"), "wait_cert": (_ENCRYPTED, "Cert"),
        "wait_cv": (_ENCRYPTED, "CV"), "wait_fin": (_ENCRYPTED, "Fin"),
        "connected": ("post-handshake", "NST"),
    }

    def __init__(self, kem_name: str, sig_name: str, trust_store: TrustStore,
                 drbg: Drbg, server_name: str = "server.repro.test", *,
                 ticket: SessionTicket | None = None,
                 session_cache: SessionCache | None = None,
                 credentials: tuple[list[Certificate], bytes] | None = None,
                 offer_share: bool = True):
        super().__init__(kem_name, sig_name, drbg)
        self._trust_store = trust_store
        self._server_name = server_name
        self._kem_secret: bytes | None = None
        self._ticket = ticket
        self._session_cache = session_cache
        self._credentials = credentials
        self._offer_share = offer_share
        self._cert_requested = False
        self._retried = False
        self._first_hello_raw: bytes | None = None

    def start(self) -> list[Action]:
        """Generate the key share and produce the ClientHello flight."""
        if self._state != "start":
            raise HandshakeFailure("client already started")
        actions: list[Action] = []
        key_shares: list[tuple[int, bytes]] = []
        share_map: dict[str, bytes] = {}
        if self._offer_share:
            actions.append(
                Compute((CryptoOp("kem_keygen", self.kem_name, detail="CH"),)))
            public_key, self._kem_secret = self._kem.keygen(self._drbg)
            key_shares = [(group_id(self.kem_name), public_key)]
            share_map = {self.kem_name: public_key}
        hello = msg.ClientHello(
            random=self._drbg.random_bytes(32),
            session_id=self._drbg.random_bytes(32),
            group_name_to_share=share_map,
            group_ids=[group_id(self.kem_name)],
            key_shares=key_shares,
            sig_scheme_ids=[sigscheme_id(self.sig_name)],
            server_name=self._server_name,
        )
        if self._ticket is not None:
            if (self._ticket.kem, self._ticket.sig) != (self.kem_name, self.sig_name):
                raise HandshakeFailure(
                    "ticket was minted for a different algorithm pair")
            hello.psk_identity = self._ticket.identity
            hello.psk_obfuscated_age = self._ticket.obfuscated_age
            binder_key = KeySchedule(psk=self._ticket.psk).psk_binder_key()
            truncated_hash = hashlib.sha256(hello.encode_truncated()).digest()
            hello.psk_binder = KeySchedule.psk_binder(binder_key, truncated_hash)
            actions.append(Compute((CryptoOp("psk_binder", detail="CH"),)))
        encoded = hello.encode()
        self._hello = hello
        self._first_hello_raw = encoded
        self._transcript.update(encoded)
        actions.append(
            Compute((CryptoOp("tls_frame", size=len(encoded), detail="CH"),)))
        actions.append(self._send(self._wire(encoded), "ClientHello"))
        self._state = "wait_sh"
        return actions

    # -- receive path (record prelude and abort live in TlsEndpoint) ---------
    def _handle_message(self, msg_type: int, body: bytes, raw: bytes) -> list[Action]:
        if self._state == "wait_sh":
            if msg_type != msg.HT_SERVER_HELLO:
                raise UnexpectedMessage("expected ServerHello")
            return self._process_server_hello(body, raw)
        if self._state == "wait_ee":
            if msg_type != msg.HT_ENCRYPTED_EXTENSIONS:
                raise UnexpectedMessage("expected EncryptedExtensions")
            self._transcript.update(raw)
            self._state = "wait_fin" if self.resumed else "wait_cert"
            return [Compute((CryptoOp("tls_frame", size=len(raw), detail="EE"),))]
        if self._state == "wait_cert":
            if msg_type == msg.HT_CERTIFICATE_REQUEST:
                return self._process_certificate_request(body, raw)
            if msg_type != msg.HT_CERTIFICATE:
                raise UnexpectedMessage("expected Certificate")
            return self._verify_peer_chain(
                msg.decode_certificate(body), raw, self._trust_store,
                self._server_name, "Cert", "")
        if self._state == "wait_cv":
            if msg_type != msg.HT_CERTIFICATE_VERIFY:
                raise UnexpectedMessage("expected CertificateVerify")
            return self._verify_peer_signature(
                body, raw, msg.CERTIFICATE_VERIFY_SERVER_CONTEXT, "CV", "")
        if self._state == "wait_fin":
            if msg_type != msg.HT_FINISHED:
                raise UnexpectedMessage("expected Finished")
            return self._process_finished(body, raw)
        if self._state == "connected":
            if msg_type != msg.HT_NEW_SESSION_TICKET:
                raise UnexpectedMessage(
                    f"unexpected post-handshake message type {msg_type}")
            return self.accept_ticket(body, raw)
        raise UnexpectedMessage(f"message in state {self._state}")

    def _process_server_hello(self, body: bytes, raw: bytes) -> list[Action]:
        hello = msg.ServerHello.decode(body)
        if hello.is_hello_retry_request:
            return self._process_hello_retry(hello, raw)
        if hello.group_id != group_id(self.kem_name):
            raise HandshakeFailure("server selected a group we did not offer")
        if self._kem_secret is None:
            raise HandshakeFailure(
                "server completed without a key share (expected HelloRetryRequest)")
        if hello.psk_selected:
            if self._ticket is None:
                raise IllegalParameter("server selected a PSK we did not offer")
            self.resumed = True
            self._schedule = KeySchedule(psk=self._ticket.psk)
        self._transcript.update(raw)
        actions = [Compute((
            CryptoOp("tls_frame", size=len(raw), detail="SH"),
            CryptoOp("kem_decaps", self.kem_name, detail="SH"),
        ))]
        self._set_handshake_keys(self._kem.decaps(self._kem_secret, hello.key_share))
        actions.append(Compute((CryptoOp("key_schedule", detail="SH"),)))
        self._state = "wait_ee"
        return actions

    def _process_hello_retry(self, hello: msg.ServerHello, raw: bytes) -> list[Action]:
        if self._retried:
            raise UnexpectedMessage("second HelloRetryRequest")
        if hello.group_id != group_id(self.kem_name):
            raise HandshakeFailure("HelloRetryRequest for a group we do not support")
        if self._kem_secret is not None:
            raise IllegalParameter(
                "HelloRetryRequest for a group we already offered a share for")
        self._retried = True
        # transcript becomes message_hash(CH1) || HRR || CH2 (§4.4.1)
        self._transcript.restart(msg.message_hash(self._first_hello_raw))
        self._transcript.update(raw)
        actions: list[Action] = [
            Compute((CryptoOp("tls_frame", size=len(raw), detail="HRR"),)),
            Compute((CryptoOp("kem_keygen", self.kem_name, detail="CH2"),)),
        ]
        public_key, self._kem_secret = self._kem.keygen(self._drbg)
        self._hello.key_shares = [(group_id(self.kem_name), public_key)]
        self._hello.group_name_to_share = {self.kem_name: public_key}
        retry_hello = self._hello.encode()
        self._transcript.update(retry_hello)
        actions.append(
            Compute((CryptoOp("tls_frame", size=len(retry_hello), detail="CH2"),)))
        actions.append(self._send(self._wire(retry_hello), "ClientHello2"))
        return actions

    def _process_certificate_request(self, body: bytes, raw: bytes) -> list[Action]:
        if self._cert_requested:
            raise UnexpectedMessage("second CertificateRequest")
        if self.resumed:
            raise UnexpectedMessage("CertificateRequest on a resumed handshake")
        scheme_ids = msg.decode_certificate_request(body)
        if self._credentials is not None and sigscheme_id(self.sig_name) not in scheme_ids:
            raise HandshakeFailure(
                f"server does not accept client signatures with {self.sig_name}")
        self._cert_requested = True
        self._transcript.update(raw)
        return [Compute((CryptoOp("tls_frame", size=len(raw), detail="CR"),))]

    def _process_finished(self, body: bytes, raw: bytes) -> list[Action]:
        self._check_peer_finished(body, raw, self._schedule.server_hs_secret, "server ")
        # application secrets derive from the transcript up to server Finished
        self._schedule.derive_master(self._transcript.digest())
        actions: list[Action] = [Compute((CryptoOp("finished_mac", detail="Fin"),))]
        # client flight: dummy CCS + [Certificate + CertificateVerify +]
        # Finished, one TCP push (one packet when it fits)
        flight = b""
        label = "CCS+Fin"
        if self._cert_requested:
            label = "CCS+Cert+CV+Fin"
            chain = self._credentials[0] if self._credentials else []
            cert_msg = msg.encode_certificate([c.encode() for c in chain])
            self._transcript.update(cert_msg)
            flight += cert_msg
            actions.append(Compute((
                CryptoOp("tls_frame", size=len(cert_msg), detail="CliCert"),)))
            if self._credentials:
                sign_cost, cert_verify = self._sign_transcript(
                    self._credentials[1], msg.CERTIFICATE_VERIFY_CLIENT_CONTEXT,
                    "CliCV")
                actions.append(sign_cost)
                flight += cert_verify
        flight += self._finished(self._schedule.client_hs_secret)
        ccs = Record(CONTENT_CHANGE_CIPHER_SPEC, b"\x01").encode()
        actions.append(Compute((
            CryptoOp("finished_mac", detail=label),
            CryptoOp("record_crypt", size=len(flight), detail=label),
        )))
        actions.append(self._send(ccs + self._wire(flight, self._send_protection), label))
        # the resumption master closes over the full transcript (§7.1)
        self._schedule.derive_resumption(self._transcript.digest())
        self.handshake_complete = True
        self._state = "connected"
        # post-handshake messages (NewSessionTicket) ride the app traffic keys
        self._recv_protection = self.app_protections()[1]
        return actions

    def accept_ticket(self, body: bytes, raw: bytes) -> list[Action]:
        """Store a NewSessionTicket in the session cache, if there is one."""
        ticket = msg.NewSessionTicket.decode(body)
        psk = KeySchedule.ticket_psk(
            self._schedule.resumption_master_secret, ticket.nonce
        )
        if self._session_cache is not None:
            self._session_cache.put(self._server_name, SessionTicket(
                identity=ticket.ticket,
                psk=psk,
                kem=self.kem_name,
                sig=self.sig_name,
                age_add=ticket.age_add,
                lifetime=ticket.lifetime,
            ))
        return [Compute((
            CryptoOp("tls_frame", size=len(raw), detail="NST"),
            CryptoOp("session_ticket", detail="NST"),
        ))]
