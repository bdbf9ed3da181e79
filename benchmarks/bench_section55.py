"""§5.5: PQ TLS attack-surface asymmetry (CPU skew and amplification)."""

import pytest

from repro.core import campaign, evaluate
from repro.pqc.registry import ALL_SIG_NAMES


@pytest.fixture(scope="module")
def results():
    return campaign.run_sets(["table3-perf", "all-sig"])


def test_attack_metrics(results):
    t2b = evaluate.table2b(results, ALL_SIG_NAMES)
    metrics = evaluate.attack_metrics(evaluate.table3(results), t2b)
    # 'CPU costs can be up to 6x higher on the server'
    _, worst_sig, ratio = metrics.worst_cpu_ratio
    assert ratio > 4
    assert worst_sig == "sphincs128"  # SPHINCS+ signing skews the server
    # 'server replies up to 96x larger than the initial client requests'
    amp_sig, amplification = metrics.worst_amplification
    assert amp_sig.endswith("sphincs256")
    assert amplification > 40         # QUIC caps amplification at 3
    # the main lever in both attack scenarios is the choice of SA
    by_name = {row.algorithm: row for row in t2b}
    assert by_name["rsa:2048"].server_bytes / by_name["rsa:2048"].client_bytes < 4


def test_amplification_ordering(results):
    amp = {row.algorithm: row.server_bytes / row.client_bytes
           for row in evaluate.table2b(results, ALL_SIG_NAMES)}
    assert amp["sphincs256"] > amp["sphincs192"] > amp["sphincs128"] > amp["dilithium2"]
    assert amp["dilithium2"] > amp["falcon512"] > amp["rsa:1024"]
