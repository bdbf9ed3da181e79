"""Table 2: handshake latency, data usage, and per-minute totals.

Asserts the paper's shape for both halves (2a: 23 KAs x rsa:2048, 2b:
SAs x X25519); ``pqtls-experiment --evaluate table2`` renders them.
"""

import pytest

from repro.core import campaign, evaluate
from repro.pqc.registry import ALL_KEM_NAMES, ALL_SIG_NAMES


@pytest.fixture(scope="module")
def results():
    return campaign.run_sets(["all-kem", "all-sig"])


def test_table2a(results):
    by_name = {row.algorithm: row for row in evaluate.table2a(results, ALL_KEM_NAMES)}
    # paper shape: Kyber challenges X25519 at level 1...
    assert by_name["kyber512"].part_a_ms <= by_name["x25519"].part_a_ms * 1.2
    # ... and crushes the classical curves at levels 3/5
    assert by_name["kyber768"].part_a_ms < by_name["p384"].part_a_ms / 4
    assert by_name["kyber1024"].part_a_ms < by_name["p521"].part_a_ms / 10
    # hybrids at level 1 are effectively free
    assert by_name["p256_kyber512"].part_a_ms < by_name["p256"].part_a_ms + 0.3
    # data volumes are driven by key sizes (HQC largest)
    assert by_name["hqc256"].server_bytes > by_name["kyber1024"].server_bytes * 4
    # handshake totals land in the paper's range
    assert 15_000 < by_name["x25519"].n_total < 32_000


def test_table2b(results):
    by_name = {row.algorithm: row for row in evaluate.table2b(results, ALL_SIG_NAMES)}
    # Dilithium (any level) and Falcon-512 beat rsa:2048's handshake signature
    for winner in ("dilithium2", "dilithium3", "dilithium5", "falcon512"):
        assert by_name[winner].part_b_ms < by_name["rsa:2048"].part_b_ms, winner
    # SPHINCS+ is 10-20x worse in latency and bytes
    assert by_name["sphincs128"].part_b_ms > 8 * by_name["rsa:2048"].part_b_ms
    assert by_name["sphincs128"].server_bytes > 20 * by_name["rsa:2048"].server_bytes
    # RSA's cubic signing growth
    assert (by_name["rsa:1024"].part_b_ms < by_name["rsa:2048"].part_b_ms
            < by_name["rsa:3072"].part_b_ms < by_name["rsa:4096"].part_b_ms)
