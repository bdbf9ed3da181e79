"""TLS 1.3 handshake message and extension codecs (RFC 8446 §4)."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.tls.errors import DecodeError

HT_CLIENT_HELLO = 1
HT_NEW_SESSION_TICKET = 4
HT_SERVER_HELLO = 2
HT_ENCRYPTED_EXTENSIONS = 8
HT_CERTIFICATE = 11
HT_CERTIFICATE_REQUEST = 13
HT_CERTIFICATE_VERIFY = 15
HT_FINISHED = 20
HT_KEY_UPDATE = 24
HT_MESSAGE_HASH = 254

EXT_SERVER_NAME = 0x0000
EXT_SUPPORTED_GROUPS = 0x000A
EXT_SIGNATURE_ALGORITHMS = 0x000D
EXT_PRE_SHARED_KEY = 0x0029
EXT_SUPPORTED_VERSIONS = 0x002B
EXT_PSK_KEY_EXCHANGE_MODES = 0x002D
EXT_KEY_SHARE = 0x0033

TLS13 = 0x0304
CIPHER_TLS_AES_128_GCM_SHA256 = 0x1301

# psk_key_exchange_modes: we only ever offer/accept psk_dhe_ke (§4.2.9),
# so every resumption still does a fresh (EC)DHE/KEM exchange.
PSK_DHE_KE = 1

# The fixed ServerHello.random value that marks a HelloRetryRequest
# (RFC 8446 §4.1.3: SHA-256 of "HelloRetryRequest").
HELLO_RETRY_REQUEST_RANDOM = bytes.fromhex(
    "cf21ad74e59a6111be1d8c021e65b891c2a211167abb8c5e079e09e2c8a8339c"
)

# Wire bytes a single offered PSK binder adds after the identities list:
# 2 (binders list length) + 1 (binder length) + 32 (SHA-256 binder).
BINDER_SUFFIX_LEN = 2 + 1 + 32


class _Reader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def bytes(self, count: int) -> bytes:
        if self.remaining() < count:
            raise DecodeError("message truncated")
        out = self._data[self._pos: self._pos + count]
        self._pos += count
        return out

    def uint(self, size: int) -> int:
        return int.from_bytes(self.bytes(size), "big")

    def vector(self, length_bytes: int) -> bytes:
        return self.bytes(self.uint(length_bytes))


def _vec(data: bytes, length_bytes: int) -> bytes:
    return len(data).to_bytes(length_bytes, "big") + data


def wrap_handshake(msg_type: int, body: bytes) -> bytes:
    return msg_type.to_bytes(1, "big") + _vec(body, 3)


def iter_handshake_messages(stream: bytes):
    """Yield (type, body, raw) for complete messages; also return leftovers."""
    messages = []
    offset = 0
    while len(stream) - offset >= 4:
        msg_type = stream[offset]
        length = int.from_bytes(stream[offset + 1: offset + 4], "big")
        if len(stream) - offset - 4 < length:
            break
        body = stream[offset + 4: offset + 4 + length]
        raw = stream[offset: offset + 4 + length]
        messages.append((msg_type, body, raw))
        offset += 4 + length
    return messages, stream[offset:]


def _encode_extensions(extensions: list[tuple[int, bytes]]) -> bytes:
    blob = b"".join(
        ext_type.to_bytes(2, "big") + _vec(ext_data, 2)
        for ext_type, ext_data in extensions
    )
    return _vec(blob, 2)


def _decode_extensions(reader: _Reader) -> dict[int, bytes]:
    out: dict[int, bytes] = {}
    ext_block = _Reader(reader.vector(2))
    while ext_block.remaining():
        ext_type = ext_block.uint(2)
        out[ext_type] = ext_block.vector(2)
    return out


@dataclass
class ClientHello:
    random: bytes
    session_id: bytes
    group_name_to_share: dict[str, bytes]      # ordered: offered key shares
    group_ids: list[int]                        # supported_groups codepoints
    key_shares: list[tuple[int, bytes]]         # (group codepoint, share)
    sig_scheme_ids: list[int]
    server_name: str | None = None
    psk_identity: bytes | None = None           # offered resumption ticket
    psk_obfuscated_age: int = 0
    psk_binder: bytes = b""

    def encode(self) -> bytes:
        extensions: list[tuple[int, bytes]] = []
        if self.server_name:
            host = self.server_name.encode()
            sni = _vec(b"\x00" + _vec(host, 2), 2)
            extensions.append((EXT_SERVER_NAME, sni))
        extensions.append((EXT_SUPPORTED_VERSIONS, b"\x02" + TLS13.to_bytes(2, "big")))
        groups = b"".join(g.to_bytes(2, "big") for g in self.group_ids)
        extensions.append((EXT_SUPPORTED_GROUPS, _vec(groups, 2)))
        schemes = b"".join(s.to_bytes(2, "big") for s in self.sig_scheme_ids)
        extensions.append((EXT_SIGNATURE_ALGORITHMS, _vec(schemes, 2)))
        shares = b"".join(
            gid.to_bytes(2, "big") + _vec(share, 2) for gid, share in self.key_shares
        )
        extensions.append((EXT_KEY_SHARE, _vec(shares, 2)))
        if self.psk_identity is not None:
            extensions.append(
                (EXT_PSK_KEY_EXCHANGE_MODES, _vec(PSK_DHE_KE.to_bytes(1, "big"), 1))
            )
            identity = (
                _vec(self.psk_identity, 2)
                + self.psk_obfuscated_age.to_bytes(4, "big")
            )
            binder = self.psk_binder or b"\x00" * 32
            # pre_shared_key MUST be the last extension (§4.2.11)
            extensions.append(
                (EXT_PRE_SHARED_KEY, _vec(identity, 2) + _vec(_vec(binder, 1), 2))
            )
        body = (
            (0x0303).to_bytes(2, "big")
            + self.random
            + _vec(self.session_id, 1)
            + _vec(CIPHER_TLS_AES_128_GCM_SHA256.to_bytes(2, "big"), 2)
            + _vec(b"\x00", 1)
            + _encode_extensions(extensions)
        )
        return wrap_handshake(HT_CLIENT_HELLO, body)

    def encode_truncated(self) -> bytes:
        """The binder-transcript prefix: everything up to the binders list."""
        if self.psk_identity is None:
            raise DecodeError("no PSK offered; nothing to truncate")
        return self.encode()[:-BINDER_SUFFIX_LEN]

    @classmethod
    def decode(cls, body: bytes) -> "ClientHello":
        reader = _Reader(body)
        if reader.uint(2) != 0x0303:
            raise DecodeError("bad legacy version")
        random = reader.bytes(32)
        session_id = reader.vector(1)
        suites = reader.vector(2)
        if len(suites) % 2 or CIPHER_TLS_AES_128_GCM_SHA256.to_bytes(2, "big") not in [
            suites[i: i + 2] for i in range(0, len(suites), 2)
        ]:
            raise DecodeError("client does not offer TLS_AES_128_GCM_SHA256")
        reader.vector(1)  # compression methods
        extensions = _decode_extensions(reader)
        if EXT_SUPPORTED_VERSIONS not in extensions:
            raise DecodeError("missing supported_versions")
        groups_blob = _Reader(extensions.get(EXT_SUPPORTED_GROUPS, b"")).vector(2)
        group_ids = [
            int.from_bytes(groups_blob[i: i + 2], "big")
            for i in range(0, len(groups_blob), 2)
        ]
        schemes_blob = _Reader(extensions.get(EXT_SIGNATURE_ALGORITHMS, b"")).vector(2)
        scheme_ids = [
            int.from_bytes(schemes_blob[i: i + 2], "big")
            for i in range(0, len(schemes_blob), 2)
        ]
        shares_reader = _Reader(_Reader(extensions.get(EXT_KEY_SHARE, b"")).vector(2))
        key_shares = []
        while shares_reader.remaining():
            gid = shares_reader.uint(2)
            key_shares.append((gid, shares_reader.vector(2)))
        server_name = None
        if EXT_SERVER_NAME in extensions:
            sni_reader = _Reader(extensions[EXT_SERVER_NAME])
            entry = _Reader(sni_reader.vector(2))
            entry.uint(1)
            server_name = entry.vector(2).decode()
        psk_identity = None
        psk_age = 0
        psk_binder = b""
        if EXT_PRE_SHARED_KEY in extensions:
            if EXT_PSK_KEY_EXCHANGE_MODES not in extensions:
                raise DecodeError("pre_shared_key without psk_key_exchange_modes")
            modes = _Reader(extensions[EXT_PSK_KEY_EXCHANGE_MODES]).vector(1)
            if PSK_DHE_KE.to_bytes(1, "big") not in modes:
                raise DecodeError("peer does not offer psk_dhe_ke")
            psk_reader = _Reader(extensions[EXT_PRE_SHARED_KEY])
            identities = _Reader(psk_reader.vector(2))
            psk_identity = identities.vector(2)
            psk_age = identities.uint(4)
            if identities.remaining():
                raise DecodeError("multiple PSK identities not supported")
            binders = _Reader(psk_reader.vector(2))
            psk_binder = binders.vector(1)
            if len(psk_binder) != 32 or binders.remaining():
                raise DecodeError("malformed PSK binders list")
        return cls(
            random=random,
            session_id=session_id,
            group_name_to_share={},
            group_ids=group_ids,
            key_shares=key_shares,
            sig_scheme_ids=scheme_ids,
            server_name=server_name,
            psk_identity=psk_identity,
            psk_obfuscated_age=psk_age,
            psk_binder=psk_binder,
        )


@dataclass
class ServerHello:
    random: bytes
    session_id: bytes
    group_id: int
    key_share: bytes
    psk_selected: bool = False

    @property
    def is_hello_retry_request(self) -> bool:
        return self.random == HELLO_RETRY_REQUEST_RANDOM

    def encode(self) -> bytes:
        if self.is_hello_retry_request:
            # HRR carries only the selected group, no share (§4.2.8)
            key_share_ext = self.group_id.to_bytes(2, "big")
        else:
            key_share_ext = self.group_id.to_bytes(2, "big") + _vec(self.key_share, 2)
        extensions = [
            (EXT_SUPPORTED_VERSIONS, TLS13.to_bytes(2, "big")),
            (EXT_KEY_SHARE, key_share_ext),
        ]
        if self.psk_selected:
            # selected_identity: always the single identity we allow (§4.2.11)
            extensions.append((EXT_PRE_SHARED_KEY, (0).to_bytes(2, "big")))
        body = (
            (0x0303).to_bytes(2, "big")
            + self.random
            + _vec(self.session_id, 1)
            + CIPHER_TLS_AES_128_GCM_SHA256.to_bytes(2, "big")
            + b"\x00"
            + _encode_extensions(extensions)
        )
        return wrap_handshake(HT_SERVER_HELLO, body)

    @classmethod
    def decode(cls, body: bytes) -> "ServerHello":
        reader = _Reader(body)
        reader.uint(2)
        random = reader.bytes(32)
        session_id = reader.vector(1)
        suite = reader.uint(2)
        if suite != CIPHER_TLS_AES_128_GCM_SHA256:
            raise DecodeError("server picked an unexpected cipher suite")
        reader.uint(1)  # compression
        extensions = _decode_extensions(reader)
        if extensions.get(EXT_SUPPORTED_VERSIONS) != TLS13.to_bytes(2, "big"):
            raise DecodeError("server did not select TLS 1.3")
        share_reader = _Reader(extensions[EXT_KEY_SHARE])
        gid = share_reader.uint(2)
        if random == HELLO_RETRY_REQUEST_RANDOM:
            if share_reader.remaining():
                raise DecodeError("HelloRetryRequest must not carry a key share")
            share = b""
        else:
            share = share_reader.vector(2)
        psk_selected = False
        if EXT_PRE_SHARED_KEY in extensions:
            if _Reader(extensions[EXT_PRE_SHARED_KEY]).uint(2) != 0:
                raise DecodeError("server selected an unknown PSK identity")
            psk_selected = True
        return cls(
            random=random,
            session_id=session_id,
            group_id=gid,
            key_share=share,
            psk_selected=psk_selected,
        )


def encode_encrypted_extensions() -> bytes:
    return wrap_handshake(HT_ENCRYPTED_EXTENSIONS, _vec(b"", 2))


def encode_certificate(cert_chain: list[bytes]) -> bytes:
    entries = b"".join(_vec(cert, 3) + _vec(b"", 2) for cert in cert_chain)
    body = _vec(b"", 1) + _vec(entries, 3)
    return wrap_handshake(HT_CERTIFICATE, body)


def decode_certificate(body: bytes) -> list[bytes]:
    reader = _Reader(body)
    reader.vector(1)  # certificate_request_context
    entries = _Reader(reader.vector(3))
    certs = []
    while entries.remaining():
        certs.append(entries.vector(3))
        entries.vector(2)  # per-entry extensions
    return certs


def encode_certificate_verify(scheme_id: int, signature: bytes) -> bytes:
    body = scheme_id.to_bytes(2, "big") + _vec(signature, 2)
    return wrap_handshake(HT_CERTIFICATE_VERIFY, body)


def decode_certificate_verify(body: bytes) -> tuple[int, bytes]:
    reader = _Reader(body)
    scheme = reader.uint(2)
    return scheme, reader.vector(2)


def encode_finished(verify_data: bytes) -> bytes:
    return wrap_handshake(HT_FINISHED, verify_data)


@dataclass(frozen=True)
class NewSessionTicket:
    """A NewSessionTicket message (RFC 8446 §4.6.1), sans early-data."""

    lifetime: int
    age_add: int
    nonce: bytes
    ticket: bytes

    def encode(self) -> bytes:
        body = (
            self.lifetime.to_bytes(4, "big")
            + self.age_add.to_bytes(4, "big")
            + _vec(self.nonce, 1)
            + _vec(self.ticket, 2)
            + _vec(b"", 2)
        )
        return wrap_handshake(HT_NEW_SESSION_TICKET, body)

    @classmethod
    def decode(cls, body: bytes) -> "NewSessionTicket":
        reader = _Reader(body)
        lifetime = reader.uint(4)
        age_add = reader.uint(4)
        nonce = reader.vector(1)
        ticket = reader.vector(2)
        if not ticket:
            raise DecodeError("empty session ticket")
        reader.vector(2)  # extensions (early_data unsupported, ignored)
        return cls(lifetime=lifetime, age_add=age_add, nonce=nonce, ticket=ticket)


def encode_certificate_request(sig_scheme_ids: list[int]) -> bytes:
    schemes = b"".join(s.to_bytes(2, "big") for s in sig_scheme_ids)
    extensions = _encode_extensions([(EXT_SIGNATURE_ALGORITHMS, _vec(schemes, 2))])
    body = _vec(b"", 1) + extensions  # empty certificate_request_context
    return wrap_handshake(HT_CERTIFICATE_REQUEST, body)


def decode_certificate_request(body: bytes) -> list[int]:
    reader = _Reader(body)
    if reader.vector(1):
        raise DecodeError("non-empty certificate_request_context")
    extensions = _decode_extensions(reader)
    if EXT_SIGNATURE_ALGORITHMS not in extensions:
        raise DecodeError("CertificateRequest missing signature_algorithms")
    blob = _Reader(extensions[EXT_SIGNATURE_ALGORITHMS]).vector(2)
    return [int.from_bytes(blob[i: i + 2], "big") for i in range(0, len(blob), 2)]


KEY_UPDATE_NOT_REQUESTED = 0
KEY_UPDATE_REQUESTED = 1


def encode_key_update(request_update: bool) -> bytes:
    value = KEY_UPDATE_REQUESTED if request_update else KEY_UPDATE_NOT_REQUESTED
    return wrap_handshake(HT_KEY_UPDATE, value.to_bytes(1, "big"))


def decode_key_update(body: bytes) -> bool:
    """True when the sender requests a KeyUpdate in return."""
    if len(body) != 1 or body[0] not in (
        KEY_UPDATE_NOT_REQUESTED,
        KEY_UPDATE_REQUESTED,
    ):
        raise DecodeError("malformed KeyUpdate")
    return body[0] == KEY_UPDATE_REQUESTED


def message_hash(client_hello_raw: bytes) -> bytes:
    """The synthetic message replacing CH1 in an HRR transcript (§4.4.1)."""
    return wrap_handshake(
        HT_MESSAGE_HASH, hashlib.sha256(client_hello_raw).digest()
    )


CERTIFICATE_VERIFY_SERVER_CONTEXT = (
    b"\x20" * 64 + b"TLS 1.3, server CertificateVerify" + b"\x00"
)

CERTIFICATE_VERIFY_CLIENT_CONTEXT = (
    b"\x20" * 64 + b"TLS 1.3, client CertificateVerify" + b"\x00"
)
