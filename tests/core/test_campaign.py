"""Campaign set definitions (Appendix B naming)."""

import pytest

from repro.core import campaign
from repro.core.campaign import EXPERIMENT_SETS, all_kem, all_sig, level
from repro.obs.recorder import FlightRecorder
from repro.pqc.registry import ALL_KEM_NAMES, ALL_SIG_NAMES


def test_all_kem_set():
    configs = all_kem()
    assert len(configs) == len(ALL_KEM_NAMES)
    assert all(cfg.sig == "rsa:2048" for cfg in configs)
    assert [cfg.kem for cfg in configs] == ALL_KEM_NAMES


def test_all_sig_set():
    configs = all_sig()
    assert len(configs) == len(ALL_SIG_NAMES)
    assert all(cfg.kem == "x25519" for cfg in configs)


def test_scenario_sets_cover_all_scenarios():
    configs = campaign.all_kem_scenarios()
    scenarios = {cfg.scenario for cfg in configs}
    assert scenarios == {"none", "high-loss", "low-bandwidth", "high-delay",
                         "lte-m", "5g"}
    assert len(configs) == 6 * len(ALL_KEM_NAMES)


def test_level_sets_include_baselines_and_combos():
    configs = level(1)
    pairs = {(cfg.kem, cfg.sig) for cfg in configs}
    # all KA x SA combos of the level
    assert ("kyber512", "dilithium2") in pairs
    assert ("bikel1", "sphincs128") in pairs
    # independence-model baselines
    assert ("kyber512", "rsa:2048") in pairs
    assert ("x25519", "dilithium2") in pairs
    assert ("x25519", "rsa:2048") in pairs
    # no duplicates
    assert len(configs) == len({cfg.key for cfg in configs})


def test_nopush_sets_use_default_policy():
    configs = level(3, nopush=True)
    assert all(cfg.policy == "default" for cfg in configs)


def test_perf_sets_enable_profiling():
    configs = level(5, perf=True)
    assert all(cfg.profiling for cfg in configs)


def test_table3_perf_set_matches_table3_pairs():
    from repro.core.evaluate import TABLE3_PAIRS

    configs = EXPERIMENT_SETS["table3-perf"]()
    assert [(c.kem, c.sig) for c in configs] == [(k, s) for _, k, s in TABLE3_PAIRS]
    assert all(c.profiling for c in configs)


def test_all_named_sets_resolve():
    for name, factory in EXPERIMENT_SETS.items():
        configs = factory()
        assert configs, name
        assert len({c.key for c in configs}) == len(configs), f"{name} has duplicates"


def test_unknown_set_rejected():
    with pytest.raises(KeyError, match="unknown experiment set"):
        campaign.run_set("level9")


def test_run_set_small(monkeypatch):
    """run_set wires the recorder + results; exercise with a tiny stub set."""
    monkeypatch.setitem(
        EXPERIMENT_SETS, "tiny",
        lambda: [campaign.ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0)])
    recorder = FlightRecorder()
    results = campaign.run_set("tiny", recorder=recorder)
    assert len(results) == 1
    assert recorder.events and {e["set"] for e in recorder.events} == {"tiny"}


def test_run_set_parallel_matches_serial(monkeypatch, tmp_path):
    """--jobs N routes through the executor and reproduces the serial run."""
    stub = lambda: [  # noqa: E731
        campaign.ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0),
        campaign.ExperimentConfig(kem="p256", sig="rsa:1024", duration=5.0),
    ]
    monkeypatch.setitem(EXPERIMENT_SETS, "tiny2", stub)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial = campaign.run_set("tiny2", jobs=1)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = campaign.run_set("tiny2", jobs=2)
    assert parallel == serial
