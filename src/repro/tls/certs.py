"""x509-lite certificates with real signatures and a minimal PKI.

A compact TLV encoding stands in for DER (the paper's sizes are dominated
by keys and signatures, not ASN.1 overhead; we add a fixed metadata block
comparable to a typical certificate's name/validity/extension footprint).
The default trust model matches the paper's testbed: the server presents
one leaf certificate signed by a CA whose certificate the client holds
out-of-band, so only the leaf travels on the wire.

Real deployments rarely look like that, so :data:`CHAIN_PROFILES` also
models leaf+intermediate chains and intermediate-CA suppression (the
client pre-caches the intermediate, as in CDN/"abridged certificates"
deployments), in the spirit of the post-quantum TTFB study (PAPERS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.drbg import Drbg
from repro.pqc.registry import get_sig
from repro.pqc.sig import SignatureScheme
from repro.tls.errors import DecodeError, HandshakeFailure
from repro.tls.messages import _Reader, _vec

# Typical X.509 envelope overhead (names, validity, SANs, key usage, OIDs)
_METADATA_PAD = 120


@dataclass(frozen=True)
class Certificate:
    subject: str
    issuer: str
    algorithm: str        # signature algorithm of the *subject's* key
    public_key: bytes
    issuer_algorithm: str  # algorithm of the CA signature below
    signature: bytes

    def tbs(self) -> bytes:
        """The to-be-signed portion."""
        return (
            _vec(self.subject.encode(), 2)
            + _vec(self.issuer.encode(), 2)
            + _vec(self.algorithm.encode(), 1)
            + _vec(self.public_key, 3)
            + _vec(self.issuer_algorithm.encode(), 1)
            + bytes(_METADATA_PAD)
        )

    def encode(self) -> bytes:
        return self.tbs() + _vec(self.signature, 3)

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        reader = _Reader(data)
        subject = reader.vector(2).decode()
        issuer = reader.vector(2).decode()
        algorithm = reader.vector(1).decode()
        public_key = reader.vector(3)
        issuer_algorithm = reader.vector(1).decode()
        reader.bytes(_METADATA_PAD)
        signature = reader.vector(3)
        if reader.remaining():
            raise DecodeError("trailing bytes after certificate")
        return cls(
            subject=subject,
            issuer=issuer,
            algorithm=algorithm,
            public_key=public_key,
            issuer_algorithm=issuer_algorithm,
            signature=signature,
        )


@dataclass
class CertificateAuthority:
    """A root CA issuing leaf certificates with a chosen algorithm."""

    name: str
    algorithm: str
    public_key: bytes
    secret_key: bytes

    @classmethod
    def create(cls, algorithm: str, drbg: Drbg, name: str = "repro-root-ca") -> "CertificateAuthority":
        scheme = get_sig(algorithm)
        public_key, secret_key = scheme.keygen(drbg)
        return cls(name=name, algorithm=algorithm, public_key=public_key,
                   secret_key=secret_key)

    def issue(self, subject: str, subject_algorithm: str, subject_public_key: bytes,
              drbg: Drbg) -> Certificate:
        scheme = get_sig(self.algorithm)
        cert = Certificate(
            subject=subject,
            issuer=self.name,
            algorithm=subject_algorithm,
            public_key=subject_public_key,
            issuer_algorithm=self.algorithm,
            signature=b"",
        )
        signature = scheme.sign(self.secret_key, cert.tbs(), drbg)
        return Certificate(
            subject=cert.subject,
            issuer=cert.issuer,
            algorithm=cert.algorithm,
            public_key=cert.public_key,
            issuer_algorithm=cert.issuer_algorithm,
            signature=signature,
        )


@dataclass(frozen=True)
class TrustStore:
    """Client-side roots (and pre-cached intermediates) by issuer name.

    ``roots`` maps issuer name -> (algorithm, public key). ``cached``
    holds intermediate CAs the client already knows (intermediate-CA
    suppression): a chain may terminate at one of them without the
    intermediate certificate ever travelling on the wire.
    """

    roots: dict
    cached: dict = field(default_factory=dict)

    def verify_chain(self, chain: list[Certificate], expected_subject: str | None = None) -> Certificate:
        """Verify a (leaf-only or leaf..intermediate) chain; return the leaf."""
        if not chain:
            raise HandshakeFailure("empty certificate chain")
        leaf = chain[0]
        if expected_subject is not None and leaf.subject != expected_subject:
            raise HandshakeFailure(
                f"certificate subject {leaf.subject!r} != expected {expected_subject!r}")
        current = leaf
        for issuer_cert in chain[1:]:
            scheme = get_sig(current.issuer_algorithm)
            if not scheme.verify(issuer_cert.public_key, current.tbs(), current.signature):
                raise HandshakeFailure(f"bad signature on {current.subject!r}")
            current = issuer_cert
        anchor = self.roots.get(current.issuer)
        if anchor is None:
            # suppressed intermediate: validated out-of-band when cached
            anchor = self.cached.get(current.issuer)
        if anchor is None:
            raise HandshakeFailure(f"unknown issuer {current.issuer!r}")
        anchor_algorithm, anchor_key = anchor
        if anchor_algorithm != current.issuer_algorithm:
            raise HandshakeFailure("issuer algorithm mismatch")
        scheme = get_sig(current.issuer_algorithm)
        if not scheme.verify(anchor_key, current.tbs(), current.signature):
            raise HandshakeFailure(f"bad issuer signature on {current.subject!r}")
        return leaf


def make_server_credentials(algorithm: str, drbg: Drbg, subject: str = "server.repro.test"):
    """CA + leaf for one signature algorithm.

    Returns (certificate, server secret key, trust store) — the shape every
    experiment needs.
    """
    scheme: SignatureScheme = get_sig(algorithm)
    ca = CertificateAuthority.create(algorithm, drbg)
    server_pk, server_sk = scheme.keygen(drbg)
    cert = ca.issue(subject, algorithm, server_pk, drbg)
    store = TrustStore(roots={ca.name: (ca.algorithm, ca.public_key)})
    return cert, server_sk, store


@dataclass(frozen=True)
class ChainProfile:
    """How a server's certificate chain is built and presented."""

    name: str
    intermediates: int       # CAs between root and leaf
    suppressed: bool = False  # leaf's issuer pre-cached client-side, off-wire


# The deployment shapes studied by the post-quantum TTFB paper: direct
# root-signed leaves (the source paper's testbed), one or two
# intermediates (the common WebPKI shapes), and suppression.
CHAIN_PROFILES = {
    "direct": ChainProfile(name="direct", intermediates=0),
    "intermediate": ChainProfile(name="intermediate", intermediates=1),
    "long": ChainProfile(name="long", intermediates=2),
    "suppressed": ChainProfile(name="suppressed", intermediates=1, suppressed=True),
}

def make_chain_credentials(algorithm: str, drbg: Drbg, chain: str = "direct",
                           subject: str = "server.repro.test"):
    """A full PKI for one chain profile.

    Returns ``(wire_chain, server secret key, trust store)`` where
    ``wire_chain`` is the leaf-first certificate list the server puts in
    its Certificate message. For the ``suppressed`` profile the
    intermediate is absent from the wire chain but present in the trust
    store's cache.
    """
    profile = CHAIN_PROFILES[chain]
    scheme: SignatureScheme = get_sig(algorithm)
    root = CertificateAuthority.create(algorithm, drbg)
    issuer = root
    intermediate_certs: list[Certificate] = []
    for depth in range(profile.intermediates):
        ica_pk, ica_sk = scheme.keygen(drbg)
        name = f"repro-ica-{depth + 1}"
        intermediate_certs.append(issuer.issue(name, algorithm, ica_pk, drbg))
        issuer = CertificateAuthority(
            name=name, algorithm=algorithm, public_key=ica_pk, secret_key=ica_sk
        )
    server_pk, server_sk = scheme.keygen(drbg)
    leaf = issuer.issue(subject, algorithm, server_pk, drbg)
    wire_chain = [leaf] + list(reversed(intermediate_certs))
    cached = {}
    if profile.suppressed:
        wire_chain = [leaf]
        cached[issuer.name] = (issuer.algorithm, issuer.public_key)
    store = TrustStore(roots={root.name: (root.algorithm, root.public_key)},
                       cached=cached)
    return wire_chain, server_sk, store


def make_client_credentials(algorithm: str, drbg: Drbg,
                            subject: str = "client.repro.test"):
    """Leaf + key for mutual TLS, and the store the *server* verifies with."""
    scheme: SignatureScheme = get_sig(algorithm)
    ca = CertificateAuthority.create(algorithm, drbg, name="repro-client-ca")
    client_pk, client_sk = scheme.keygen(drbg)
    cert = ca.issue(subject, algorithm, client_pk, drbg)
    store = TrustStore(roots={ca.name: (ca.algorithm, ca.public_key)})
    return [cert], client_sk, store
