"""Table 4: constrained environments (netem scenarios).

Asserts the paper's shape for both halves of the appendix table across the
six scenarios; ``pqtls-experiment --evaluate table4`` renders them.
"""

import pytest

from repro.core import campaign, evaluate
from repro.pqc.registry import ALL_KEM_NAMES, ALL_SIG_NAMES


@pytest.fixture(scope="module")
def results():
    return campaign.run_sets(["all-kem-scenarios", "all-sig-scenarios"])


def test_table4a(results):
    rows = evaluate.table4(results, ALL_KEM_NAMES, vary="kem")
    by_name = {row.algorithm: row for row in rows}
    for row in rows:
        # (i) loss is the mildest constraint
        assert row.medians_ms["high-loss"] < row.medians_ms["low-bandwidth"] * 2
        # (iii) latency grows ~linearly with delay: ~1 RTT floor
        assert row.medians_ms["high-delay"] >= 999
        # (iv) realistic scenarios mostly depend on the RTT
        assert row.medians_ms["5g"] >= 44
    # (ii) low bandwidth punishes data-heavy algorithms (HQC)
    assert (by_name["hqc256"].medians_ms["low-bandwidth"]
            > 4 * by_name["kyber1024"].medians_ms["low-bandwidth"])


def test_table4b(results):
    by_name = {row.algorithm: row
               for row in evaluate.table4(results, ALL_SIG_NAMES, vary="sig")}
    # CWND overflow at 1 s RTT: the paper's multi-RTT handshakes
    assert 999 < by_name["falcon1024"].medians_ms["high-delay"] < 1300   # 1 RTT
    assert 1900 < by_name["dilithium5"].medians_ms["high-delay"] < 2300  # 2 RTT
    assert 1900 < by_name["sphincs128"].medians_ms["high-delay"] < 2400  # 2 RTT
    assert 2900 < by_name["sphincs192"].medians_ms["high-delay"] < 3400  # 3 RTT
    assert 3900 < by_name["sphincs256"].medians_ms["high-delay"] < 4400  # 4 RTT
    # Kyber and Falcon surpass other PQC in low-bandwidth settings
    assert (by_name["falcon512"].medians_ms["low-bandwidth"]
            < by_name["dilithium2"].medians_ms["low-bandwidth"])
    assert (by_name["sphincs128"].medians_ms["low-bandwidth"]
            > 3 * by_name["dilithium2"].medians_ms["low-bandwidth"])
