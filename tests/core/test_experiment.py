"""Experiment runner: sampling, extrapolation, caching, failure handling."""

import hashlib
import json

import pytest

from repro.core.experiment import (
    INTER_HANDSHAKE_GAP,
    ExperimentConfig,
    run_experiment,
)
from repro.faults.errors import FailureQuotaExceeded
from repro.obs.metrics import Metrics


@pytest.fixture(scope="module")
def baseline():
    return run_experiment(ExperimentConfig(kem="x25519", sig="rsa:1024"))


def test_config_key_uniqueness():
    a = ExperimentConfig(kem="x25519", sig="rsa:2048")
    b = ExperimentConfig(kem="x25519", sig="rsa:2048", scenario="lte-m")
    c = ExperimentConfig(kem="x25519", sig="rsa:2048", policy="default")
    d = ExperimentConfig(kem="x25519", sig="rsa:2048", profiling=True)
    keys = {a.key, b.key, c.key, d.key}
    assert len(keys) == 4


def test_deterministic_scenario_few_samples_extrapolated(baseline):
    assert len(baseline.total_samples) <= 3
    # all samples identical (deterministic network)
    assert len(set(baseline.total_samples)) == 1
    # count extrapolated to the 60 s period
    expected = int(60.0 / (baseline.total_samples[0] + INTER_HANDSHAKE_GAP) * 0.5)
    assert baseline.n_handshakes > expected  # wall includes trailing ACK only


def test_medians_and_rates(baseline):
    assert baseline.part_a_median + baseline.part_b_median == pytest.approx(
        baseline.total_median)
    assert baseline.handshakes_per_second == baseline.n_handshakes / 60.0
    assert baseline.n_handshakes > 1000


def test_byte_and_packet_counts(baseline):
    assert 400 < baseline.client_bytes < 1500
    assert baseline.server_bytes > baseline.client_bytes
    assert baseline.client_packets >= 4


def test_cpu_accounting(baseline):
    assert baseline.server_cpu_ms > 0
    assert baseline.client_cpu_ms > 0
    assert "libcrypto" in baseline.server_cpu_by_library
    assert "python" in baseline.server_cpu_by_library


@pytest.mark.parametrize("duration", [0.0, -1.0, -0.001])
def test_nonpositive_duration_rejected_up_front(duration):
    with pytest.raises(ValueError, match="duration must be positive"):
        run_experiment(ExperimentConfig(
            kem="x25519", sig="rsa:1024", duration=duration))


def test_nonpositive_duration_rejected_even_with_cache(tmp_path, monkeypatch):
    # the guard fires before the cache lookup, so a stale cached result
    # can never mask the bad configuration
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(kem="x25519", sig="rsa:1024",
                                        duration=-5.0))
    assert not (tmp_path / "experiment").exists()


def test_zero_max_samples_rejected():
    with pytest.raises(ValueError, match="max_samples"):
        run_experiment(ExperimentConfig(
            kem="x25519", sig="rsa:1024", max_samples=0))


def test_result_carries_metrics_snapshot(baseline):
    counters = baseline.metrics["counters"]
    assert counters["handshake.count"] == len(baseline.total_samples)
    assert counters["tcp.client.segments_sent"] > 0
    assert baseline.metrics["histograms"]["handshake.part_a"]["count"] >= 1


def test_stochastic_scenario_collects_many_samples():
    result = run_experiment(ExperimentConfig(
        kem="x25519", sig="rsa:1024", scenario="high-loss", max_samples=50))
    assert len(result.total_samples) == 50
    # extrapolated over 60 s; the mean period is dominated by rare 1 s+
    # SYN-retransmission handshakes (10 % loss), so well above the cap
    assert result.n_handshakes > len(result.total_samples)
    # the median, however, stays near the loss-free latency
    assert result.total_median < 0.05


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    config = ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0)
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.total_samples == second.total_samples
    assert (tmp_path / "experiment").exists()


def test_cache_hit_merges_same_metrics_as_cold_run(tmp_path, monkeypatch):
    """A cache hit must replay the *whole* snapshot into the caller's
    registry — counters and histograms — so campaign aggregation
    is identical whether the result was computed or loaded."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    config = ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0)
    cold = Metrics()
    run_experiment(config, metrics=cold)
    warm = Metrics()
    run_experiment(config, metrics=warm)
    assert warm.snapshot() == cold.snapshot()
    # histograms specifically: samples restored, not just summary counters
    assert warm.histogram("handshake.part_a").samples == \
        cold.histogram("handshake.part_a").samples
    assert warm.histogram("handshake.part_a").samples


def test_use_cache_false_recomputes(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    config = ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0)
    result = run_experiment(config, use_cache=False)
    assert not (tmp_path / "experiment").exists()
    assert result.n_handshakes > 0


def test_profiling_increases_cpu_costs(baseline):
    profiled = run_experiment(ExperimentConfig(
        kem="x25519", sig="rsa:1024", profiling=True))
    assert profiled.server_cpu_ms > baseline.server_cpu_ms * 1.2


# -- fault plans and failure semantics ---------------------------------------

def test_fault_knobs_extend_key_only_when_set():
    base = ExperimentConfig(kem="x25519", sig="rsa:1024")
    # defaults leave the key byte-identical to the pre-fault format, so
    # existing cache entries stay addressable
    assert "faults" not in base.key
    assert "hsto" not in base.key and "quota" not in base.key
    chaotic = ExperimentConfig(kem="x25519", sig="rsa:1024", faults="chaos")
    assert "faults=corrupt=0.01" in chaotic.key
    timed = ExperimentConfig(kem="x25519", sig="rsa:1024", handshake_timeout=1.0,
                             failure_quota=3)
    assert "hsto=1.0" in timed.key and "quota=3" in timed.key
    # a named plan and its equivalent spec canonicalize to the same key
    spec = ExperimentConfig(
        kem="x25519", sig="rsa:1024",
        faults="corrupt=0.01,dup=0.02,reorder=0.05,reorder_delay=0.02")
    assert spec.key == chaotic.key


def test_session_and_chain_extend_key_only_when_set():
    base = ExperimentConfig(kem="x25519", sig="rsa:1024")
    assert "session" not in base.key and "chain" not in base.key
    resumed = ExperimentConfig(kem="x25519", sig="rsa:1024", session="resume")
    assert "session=resume" in resumed.key
    chained = ExperimentConfig(kem="x25519", sig="rsa:1024",
                               chain="intermediate")
    assert "chain=intermediate" in chained.key
    # the script cache key names a file and seeds nothing: all six fields
    from repro.core.experiment import script_key
    assert script_key("x25519", "rsa:1024", "optimized") \
        == "x25519|rsa:1024|optimized|paper|full|direct"
    assert script_key("x25519", "rsa:1024", "optimized",
                      session="mtls", chain="suppressed") \
        == "x25519|rsa:1024|optimized|paper|mtls|suppressed"


def test_successful_run_outcomes_all_success(baseline):
    assert baseline.outcomes == {"success": len(baseline.total_samples)}
    assert baseline.n_failures == 0


def test_retry_with_fresh_seed_fills_the_sample_budget(monkeypatch):
    """A failed handshake must not end the run: the next attempt forks a
    fresh netem seed and the sample budget still fills."""
    from repro.netsim import tcp

    monkeypatch.setattr(tcp, "MAX_RETRIES", 1)  # make lte-m loss lethal
    result = run_experiment(ExperimentConfig(
        kem="x25519", sig="rsa:1024", scenario="lte-m", faults="chaos",
        max_samples=15, duration=30.0), use_cache=False)
    assert result.outcomes == {"success": 15, "transport-error": 2}
    assert result.n_failures == 2
    assert len(result.total_samples) == 15
    # failure counters surfaced through the run's metrics snapshot
    assert result.metrics["counters"]["handshake.failures.transport-error"] == 2


def test_failure_quota_exceeded_raises_typed_error(monkeypatch):
    from repro.netsim import tcp

    monkeypatch.setattr(tcp, "MAX_RETRIES", 0)  # every lossy handshake dies
    with pytest.raises(FailureQuotaExceeded, match="quota 2"):
        run_experiment(ExperimentConfig(
            kem="x25519", sig="rsa:1024", scenario="lte-m", max_samples=15,
            duration=30.0, failure_quota=2), use_cache=False)


def test_all_timeouts_is_a_typed_failure_not_a_hang():
    # lte-m needs >= 1 RTT (0.2 s); a 0.05 s watchdog kills every attempt
    # and each one charges the full timeout against the period
    with pytest.raises(FailureQuotaExceeded, match="no successful handshake"):
        run_experiment(ExperimentConfig(
            kem="x25519", sig="rsa:1024", scenario="lte-m", duration=1.0,
            handshake_timeout=0.05), use_cache=False)


def test_mixed_outcomes_deterministic_and_cached(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    config = ExperimentConfig(kem="x25519", sig="rsa:1024", scenario="5g",
                              faults="chaos", max_samples=20, duration=30.0,
                              handshake_timeout=0.2)
    cold = run_experiment(config)
    assert cold.outcomes == {"success": 20, "timeout": 10}
    warm = run_experiment(config)          # cache hit
    assert warm.outcomes == cold.outcomes
    assert warm.total_samples == cold.total_samples
    rerun = run_experiment(config, use_cache=False)  # recomputed
    assert rerun.outcomes == cold.outcomes


def test_deliver_mode_corruption_rejected_for_scripted_replay():
    with pytest.raises(ValueError, match="deliver-mode"):
        run_experiment(ExperimentConfig(
            kem="x25519", sig="rsa:1024",
            faults="corrupt=0.1,corrupt_mode=deliver"))


def test_scenario_latency_ordering():
    none = run_experiment(ExperimentConfig(kem="x25519", sig="rsa:1024"))
    delay = run_experiment(ExperimentConfig(
        kem="x25519", sig="rsa:1024", scenario="high-delay"))
    bandwidth = run_experiment(ExperimentConfig(
        kem="x25519", sig="rsa:1024", scenario="low-bandwidth"))
    assert none.total_median < bandwidth.total_median < delay.total_median


# sha256 of json.dumps(result.metrics, sort_keys=True) at 20 samples, for
# kyber512/dilithium2 over lte-m unless the case names another pair or
# scenario. Between them the lte-m runs touch every tcp.* and netem.*
# counter except tcp.*.failed, plus the wire.*, handshake.*,
# handshake.failures.* and cpu.* instruments; 5g and high-loss pin the
# other two lossy scenarios, and kyber1024/dilithium5 a server flight
# past the initial window.
PINNED_METRICS = {
    "plain": ({}, "37dc15d1cd11ad26cb47109a3a858e4b78130284f08b27cd442cde335e58e966"),
    "chaos": ({"faults": "chaos"},
              "b5af9bca8e5ce8c475cc555ce67e809073537cdb6c92f355b12b86c0a9db98fc"),
    "timeouts": ({"handshake_timeout": 1.6, "failure_quota": 100000},
                 "567c2cb273d32b2edbeec06331008bcbf9601fcf6b230ef67b42b1fd4fa7279e"),
    "5g": ({"scenario": "5g"},
           "2678f405ccb999d014abfa5da47494dd400f89d731f3b994a739f0a24e55a66d"),
    "high-loss": ({"scenario": "high-loss"},
                  "97a17e4752324303ff86d0d018dfa25032322dd1c63db68208f360e4ea04c421"),
    "multi-flight": ({"kem": "kyber1024", "sig": "dilithium5"},
                     "bf2f2409f154f7b0b8b8d8a0f12062e934179fd0b26ebf649273011dcffc7271"),
}


@pytest.mark.kernels
@pytest.mark.parametrize("case", sorted(PINNED_METRICS))
def test_metrics_snapshot_is_pinned(case):
    """The per-handshake instruments (names, values, sample order) never
    move: a run's metrics snapshot hashes to the same bytes."""
    extra, digest = PINNED_METRICS[case]
    config = {"kem": "kyber512", "sig": "dilithium2", "scenario": "lte-m",
              "max_samples": 20, **extra}
    result = run_experiment(ExperimentConfig(**config), use_cache=False)
    if case == "timeouts":
        assert result.outcomes == {"success": 20, "timeout": 7}
    encoded = json.dumps(result.metrics, sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == digest
