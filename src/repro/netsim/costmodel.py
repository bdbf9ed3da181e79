"""The hardware profile: CPU cost per cryptographic operation.

Pure-Python crypto is orders of magnitude slower than the C the paper ran,
*with different relative costs*, so the simulated clock advances by this
calibrated per-(algorithm, operation) table instead of wall time (see
DESIGN.md §1). Entries are in milliseconds on the paper's Intel Xeon
D-1518 @ 2.2 GHz.

Provenance of each entry (also §4 of DESIGN.md):

- Classical EC: OpenSSL 1.1.1 ``speed ecdh/ecdsa`` ratios — P-256 has an
  optimized implementation, P-384/P-521 use the generic path and are
  ~15x/30x slower; anchored to the paper's Table 2a part-A medians
  (p256 0.33 ms, p384 3.09 ms, p521 6.97 ms).
- RSA: OpenSSL ``speed rsa`` scaled to 2.2 GHz, anchored to Table 2b part-B
  (rsa:1024 .. rsa:4096 ~ 0.35 / 1.15 / 3.1 / 6.5 ms sign — the classic
  ~cubic growth).
- PQC: liboqs 0.7 (round-3 code) benchmark ratios scaled to 2.2 GHz,
  anchored where the paper exposes an algorithm directly (BIKE decaps from
  bikel1/bikel3 part B, SPHINCS+ sign from Table 2b part B, HQC encaps
  from Table 2a part A).
- Generic TLS costs (framing, record AEAD, kernel, driver): chosen so the
  white-box totals and library distribution of Table 3 are approximated
  (libcrypto + kernel + libssl ~ 90 %).

Hybrids cost the sum of their components (computed recursively).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pqc.hybrid import CompositeSignature, HybridKem
from repro.pqc.registry import get_kem, get_sig

MS = 1e-3

# (keygen, encaps, decaps) in ms
KEM_COSTS: dict[str, tuple[float, float, float]] = {
    "x25519":       (0.045, 0.090, 0.045),
    "p256":         (0.110, 0.220, 0.110),
    "p384":         (1.500, 3.000, 1.500),
    "p521":         (3.400, 6.800, 3.400),
    "kyber512":     (0.030, 0.040, 0.030),
    "kyber768":     (0.050, 0.060, 0.045),
    "kyber1024":    (0.070, 0.080, 0.065),
    "kyber90s512":  (0.024, 0.032, 0.024),
    "kyber90s768":  (0.040, 0.048, 0.036),
    "kyber90s1024": (0.056, 0.064, 0.052),
    "bikel1":       (0.600, 0.120, 2.100),
    "bikel3":       (1.900, 0.280, 5.200),
    "hqc128":       (0.150, 0.150, 0.250),
    "hqc192":       (0.300, 0.300, 0.500),
    "hqc256":       (0.550, 0.550, 0.900),
}

# (sign, verify) in ms
SIG_COSTS: dict[str, tuple[float, float]] = {
    "rsa:1024":   (0.350, 0.020),
    "rsa:2048":   (1.150, 0.040),
    "rsa:3072":   (3.100, 0.070),
    "rsa:4096":   (6.500, 0.110),
    "p256ecdsa":  (0.120, 0.140),
    "p384ecdsa":  (1.550, 1.600),
    "p521ecdsa":  (3.500, 3.500),
    "falcon512":  (0.350, 0.040),
    "falcon1024": (0.750, 0.090),
    "dilithium2":     (0.250, 0.080),
    "dilithium3":     (0.400, 0.120),
    "dilithium5":     (0.550, 0.180),
    "dilithium2_aes": (0.200, 0.065),
    "dilithium3_aes": (0.330, 0.100),
    "dilithium5_aes": (0.460, 0.150),
    "sphincs128": (13.500, 0.700),
    "sphincs192": (22.500, 1.000),
    "sphincs256": (48.000, 1.100),
    "sphincs-shake-128f": (20.000, 1.100),
}

# generic work: (fixed ms, ms per byte), attribution
GENERIC_COSTS: dict[str, tuple[float, float, str]] = {
    "tls_frame":    (0.040, 0.000020, "libssl"),
    "record_crypt": (0.008, 0.0000011, "libcrypto"),
    "key_schedule": (0.060, 0.0, "libcrypto"),
    "finished_mac": (0.015, 0.0, "libcrypto"),
    # session lifecycle: PSK binder HMAC chain (compute or verify) and
    # NewSessionTicket minting/receipt (HKDF expand + ticket bookkeeping)
    "psk_binder":     (0.018, 0.0, "libcrypto"),
    "session_ticket": (0.025, 0.000002, "libssl"),
}

# per-packet processing (ms), attribution
KERNEL_PER_PACKET = 0.030
DRIVER_PER_PACKET = 0.007
# experiment-tooling CPU per handshake (the paper's python testbed scripts)
PYTHON_PER_HANDSHAKE = 0.080

# the paper notes perf sampling itself perturbs latencies (§4); white-box
# runs scale CPU costs by this factor
PROFILING_OVERHEAD = 1.35


@dataclass(frozen=True)
class Cost:
    ms: float
    library: str

    @property
    def seconds(self) -> float:
        return self.ms * MS


def op_label(op) -> str:
    """Span name for one :class:`repro.tls.actions.CryptoOp`.

    ``kem_decaps:kyber512 (SH)`` — operation, algorithm when keyed, and
    the TLS-message context the endpoint recorded.
    """
    name = f"{op.op}:{op.algorithm}" if op.algorithm else op.op
    return f"{name} ({op.detail})" if op.detail else name


def _kem_cost(name: str, index: int) -> float:
    if name in KEM_COSTS:
        return KEM_COSTS[name][index]
    kem = get_kem(name)
    if isinstance(kem, HybridKem):
        return _kem_cost(kem.classical.name, index) + _kem_cost(kem.pq.name, index)
    raise KeyError(f"no cost entry for KEM {name!r}")


def _sig_cost(name: str, index: int) -> float:
    if name in SIG_COSTS:
        return SIG_COSTS[name][index]
    sig = get_sig(name)
    if isinstance(sig, CompositeSignature):
        return _sig_cost(sig.classical.name, index) + _sig_cost(sig.pq.name, index)
    raise KeyError(f"no cost entry for signature scheme {name!r}")


def _kem_attribution(name: str, role: str) -> str:
    kem = get_kem(name)
    return kem.client_attribution if role == "client" else kem.server_attribution


class CostModel:
    """Maps CryptoOps to simulated CPU time with a library attribution.

    A replayed script charges the same ops on every handshake, so
    :meth:`price` memoizes each op's price on the instance, keyed by the
    op's value (real endpoints build fresh, equal ops per handshake), and
    the per-packet and tooling prices are fixed when the model is built.
    """

    def __init__(self, profiling: bool = False):
        self._factor = PROFILING_OVERHEAD if profiling else 1.0
        self._prices: dict[tuple, tuple[float, str]] = {}
        # (seconds, library) charged per packet sent or received (kernel,
        # driver), and per handshake for the testbed tooling (python)
        self.packet_prices = tuple(
            (cost.seconds, cost.library)
            for cost in (self._mk(KERNEL_PER_PACKET, "kernel"),
                         self._mk(DRIVER_PER_PACKET, "ixgbe")))
        tooling = self._mk(PYTHON_PER_HANDSHAKE, "python")
        self.tooling_price = (tooling.seconds, tooling.library)

    def price(self, op, role: str) -> tuple[float, str]:
        """``(seconds, library)`` of :meth:`op_cost`, priced once per value."""
        key = (op, role)
        priced = self._prices.get(key)
        if priced is None:
            cost = self.op_cost(op, role)
            priced = self._prices[key] = (cost.seconds, cost.library)
        return priced

    def op_cost(self, op, role: str) -> Cost:
        """Price one :class:`repro.tls.actions.CryptoOp` for *role*."""
        kind = op.op
        if kind == "kem_keygen":
            return self._mk(_kem_cost(op.algorithm, 0), _kem_attribution(op.algorithm, role))
        if kind == "kem_encaps":
            return self._mk(_kem_cost(op.algorithm, 1), _kem_attribution(op.algorithm, role))
        if kind == "kem_decaps":
            return self._mk(_kem_cost(op.algorithm, 2), _kem_attribution(op.algorithm, role))
        if kind == "sig_sign":
            return self._mk(_sig_cost(op.algorithm, 0), "libcrypto")
        if kind in ("sig_verify", "cert_verify"):
            return self._mk(_sig_cost(op.algorithm, 1), "libcrypto")
        if kind in GENERIC_COSTS:
            fixed, per_byte, library = GENERIC_COSTS[kind]
            return self._mk(fixed + per_byte * op.size, library)
        raise KeyError(f"no cost model entry for op {kind!r}")

    def _mk(self, ms: float, library: str) -> Cost:
        return Cost(ms * self._factor, library)
