"""Table 3: white-box (perf) measurements.

Asserts the paper's shape of the CPU-cost / library-distribution table for
its eight (KA, SA) pairs; ``pqtls-experiment --evaluate table3`` renders it.
"""

import pytest

from repro.core import campaign, evaluate


@pytest.fixture(scope="module")
def rows():
    return evaluate.table3(campaign.run_sets(["table3-perf"]))


def test_table3(rows):
    by_pair = {(row.kem, row.sig): row for row in rows}
    baseline = by_pair[("x25519", "rsa:2048")]
    # server-side computations dominate for the classical baseline (RSA sign)
    assert baseline.server_cpu_ms > baseline.client_cpu_ms
    # Kyber+Dilithium performs well with minimal decrease on higher levels
    kd1 = by_pair[("kyber512", "dilithium2")]
    kd5 = by_pair[("kyber1024", "dilithium5")]
    assert kd5.server_cpu_ms < kd1.server_cpu_ms * 2.0
    # BIKE+Dilithium: good on the server, bad on the client, and the
    # client work lives in libssl (the paper's key observation)
    bike = by_pair[("bikel1", "dilithium2")]
    assert bike.client_cpu_ms > bike.server_cpu_ms
    assert bike.client_library_share["libssl"] > bike.client_library_share.get("libcrypto", 0)
    # Kyber+SPHINCS+: the server drowns in libcrypto
    sphincs = by_pair[("kyber512", "sphincs128")]
    assert sphincs.server_cpu_ms > 5 * baseline.server_cpu_ms
    assert sphincs.server_library_share["libcrypto"] > 0.85
    # libcrypto+kernel+libssl carry ~90 % everywhere (paper's 'first glance')
    for row in rows:
        core_share = sum(row.server_library_share.get(lib, 0)
                         for lib in ("libcrypto", "kernel", "libssl"))
        assert core_share > 0.75, (row.kem, row.sig)
