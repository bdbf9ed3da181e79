"""Figure 3: KA/SA (in)dependence and the buffering optimization.

Asserts the paper's shape of the deviation analysis E(k,s) - M(k,s) under
both OpenSSL policies (3a default, 3b optimized) and of the improvement
table (3c); ``pqtls-experiment --evaluate figure3`` renders them.
"""

import statistics

import pytest

from repro.core import campaign
from repro.core.analysis import deviations_for_levels
from repro.pqc.registry import LEVEL_GROUPS


@pytest.fixture(scope="module")
def optimized():
    results = campaign.run_sets(["level1", "level3", "level5"])
    return deviations_for_levels(results, "optimized", LEVEL_GROUPS)


@pytest.fixture(scope="module")
def default():
    results = campaign.run_sets(["level1-nopush", "level3-nopush", "level5-nopush"])
    return deviations_for_levels(results, "default", LEVEL_GROUPS)


def test_figure3a_default_policy(default):
    # CPU-heavy KA x heavy SA combinations beat the additive prediction
    # when the buffer overflow pushes the SH early (parallel processing)
    by_pair = {(d.kem, d.sig): d for d in default}
    heavy = by_pair[("bikel1", "sphincs128")]
    assert heavy.deviation > 0.5e-3  # >= 0.5 ms faster than predicted


def test_figure3b_optimized_policy(optimized):
    # with the consistent early push, most deviations shrink: the bulk of
    # combinations sit within ~1.5 ms of the additive model
    median_abs = statistics.median(abs(d.deviation) for d in optimized)
    assert median_abs < 1.5e-3


def test_figure3c_improvement(optimized, default):
    default_ms = {(d.kem, d.sig): d.measured for d in default}
    improvements = {(d.kem, d.sig): (default_ms[(d.kem, d.sig)] - d.measured) * 1e3
                    for d in optimized}
    # the paper: 'most handshakes were faster' with the optimized push
    gains = list(improvements.values())
    assert sum(1 for g in gains if g > -0.05) / len(gains) > 0.7
    # the dominating factor: CPU-intensive KAs overlap with heavy SAs only
    # when the SH leaves early. SPHINCS+ certificates overflow the 4096 B
    # buffer and flush the SH in *both* policies, so the big wins sit on
    # combinations that stay under the buffer limit (Bike/ECDH x RSA-3072,
    # exactly the paper's 'in the case of Bike and RSA, the effect is only
    # visible for the optimized version').
    heavy_pairs = [g for (k, s), g in improvements.items()
                   if k in ("bikel1", "bikel3", "p384", "p521", "hqc256")
                   and not s.startswith("sphincs")]
    assert max(heavy_pairs) > 1.0  # >= 1 ms of overlap recovered
    sphincs_gains = [g for (k, s), g in improvements.items() if s.startswith("sphincs")]
    assert min(sphincs_gains) > -0.2  # never slower, ~0 by construction
