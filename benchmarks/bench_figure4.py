"""Figure 4: the log-latency ranking of KAs and SAs."""

import pytest

from repro.core import campaign, evaluate
from repro.pqc.registry import ALL_KEM_NAMES, ALL_SIG_NAMES


@pytest.fixture(scope="module")
def results():
    return campaign.run_sets(["all-kem", "all-sig"])


def test_figure4_ranking(results):
    kem_ranks, sig_ranks = evaluate.figure4(results, ALL_KEM_NAMES, ALL_SIG_NAMES)
    kem_rank = dict(kem_ranks)
    sig_rank = dict(sig_ranks)
    # ranks span the whole [0, 10] scale
    assert min(kem_rank.values()) == 0 and max(kem_rank.values()) == 10
    assert min(sig_rank.values()) == 0 and max(sig_rank.values()) == 10
    # PQ KAs sit at/near the top; p521 hybrids at the bottom
    assert kem_rank["kyber512"] <= kem_rank["x25519"]
    assert kem_rank["p521_hqc256"] >= 9
    # Dilithium/Falcon rank above rsa:2048; SPHINCS+ at the bottom
    assert sig_rank["dilithium2"] <= sig_rank["rsa:2048"]
    assert sig_rank["falcon512"] <= sig_rank["rsa:2048"]
    assert sig_rank["sphincs256"] == 10
    assert sig_rank["rsa:1024"] == 0  # fastest overall (sub-level-one)


def test_ranking_is_monotonic_in_latency(results):
    kem_ranks, _ = evaluate.figure4(results, ALL_KEM_NAMES, ALL_SIG_NAMES)
    latencies = [
        results[campaign.ExperimentConfig(kem=k, sig="rsa:2048").key].total_median
        for k, _ in kem_ranks
    ]
    assert latencies == sorted(latencies)
