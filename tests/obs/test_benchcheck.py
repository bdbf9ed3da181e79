"""pqtls-bench-check: flattening, direction, bands, host gating, CLI."""

import functools
import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.obs import benchcheck
from repro.obs.benchcheck import (
    OK,
    REGRESSION,
    SKIPPED,
    check_pair,
    direction,
    flatten,
    main,
    tolerance_for,
)
from repro.obs.hostmeta import host_metadata

REPO = Path(__file__).resolve().parents[2]


def payload(**overrides):
    base = {
        "host": host_metadata(),
        "set": "bench-grid",
        "serial": {"jobs": 1, "cold_s": 2.0, "warm_s": 0.1, "experiments": 6},
        "parallel": {"jobs": 2, "cold_s": 1.0, "warm_s": 0.1},
        "speedup_cold": 2.0,
    }
    base.update(overrides)
    return base


def row_of(rows, metric):
    (row,) = [r for r in rows if r["metric"] == metric]
    return row


# ---------------------------------------------------------------- pieces

def test_flatten_excludes_host_and_non_numerics():
    flat = flatten({"host": {"cpu_count": 8}, "set": "x",
                    "serial": {"cold_s": 2.0, "ok": True},
                    "speedup_cold": 1.5})
    assert flat == {"serial.cold_s": 2.0, "speedup_cold": 1.5}


def test_direction_from_metric_name():
    assert direction("speedup_cold") == 1
    assert direction("kems.kyber512.speedup") == 1
    assert direction("serial.cold_s") == -1
    assert direction("serial.experiments") == 0
    assert direction("parallel.jobs") == 0


def test_tolerance_table_first_match_wins():
    assert tolerance_for("speedup_cold") == 0.35             # before *speedup*
    assert tolerance_for("quantile_cached_sort.speedup") == 0.8
    assert tolerance_for("kems.kyber512.speedup") == 0.4
    assert tolerance_for("parallel.cold_s") == 3.0
    assert tolerance_for("experiments") is None


# ------------------------------------------------------------ check_pair

def test_identical_payloads_pass():
    rows, mismatches = check_pair(payload(), payload())
    assert mismatches == []
    assert all(row["status"] != REGRESSION for row in rows)
    assert row_of(rows, "serial.cold_s")["status"] == OK
    assert row_of(rows, "speedup_cold")["status"] == OK


def test_seconds_regression_past_band_fails():
    fresh = payload()
    fresh["serial"] = dict(fresh["serial"], cold_s=8.2)  # +310% vs band 300%
    rows, _ = check_pair(payload(), fresh)
    row = row_of(rows, "serial.cold_s")
    assert row["status"] == REGRESSION
    assert row["regression"] == pytest.approx(3.1)


def test_improvement_never_fails():
    fresh = payload()
    fresh["serial"] = dict(fresh["serial"], cold_s=0.2)
    fresh["speedup_cold"] = 5.0
    rows, _ = check_pair(payload(), fresh)
    assert row_of(rows, "serial.cold_s")["status"] == OK
    assert row_of(rows, "speedup_cold")["status"] == OK


def test_speedup_drop_past_band_fails():
    rows, _ = check_pair(payload(), payload(speedup_cold=1.2))  # -40%
    assert row_of(rows, "speedup_cold")["status"] == REGRESSION


def test_counts_are_informational_not_gated():
    fresh = payload()
    fresh["serial"] = dict(fresh["serial"], experiments=60)
    rows, _ = check_pair(payload(), fresh)
    assert row_of(rows, "serial.experiments")["status"] == "info"


def test_cpu_mismatch_skips_only_parallel_metrics():
    fresh = payload(speedup_cold=1.0)                   # would fail...
    fresh["serial"] = dict(fresh["serial"], cold_s=9.0)  # ...and so would this
    fresh["host"] = dict(fresh["host"], cpu_count=99)
    rows, mismatches = check_pair(payload(), fresh)
    assert mismatches == []                              # still comparable
    speedup = row_of(rows, "speedup_cold")
    assert speedup["status"] == SKIPPED
    assert speedup["note"] == "cpu topology differs"
    assert row_of(rows, "parallel.cold_s")["status"] == SKIPPED
    assert row_of(rows, "serial.cold_s")["status"] == REGRESSION


def test_fingerprint_mismatch_reported():
    fresh = payload()
    fresh["host"] = dict(fresh["host"], kernels="ref")
    _, mismatches = check_pair(payload(), fresh)
    assert mismatches == ["kernels"]


def test_missing_host_block_is_a_fingerprint_mismatch():
    legacy = payload()
    del legacy["host"]
    _, mismatches = check_pair(legacy, payload())
    assert set(mismatches) == {"kernels", "machine", "python_major"}


def test_missing_metric_is_informational():
    fresh = payload()
    del fresh["speedup_cold"]
    rows, _ = check_pair(payload(), fresh)
    row = row_of(rows, "speedup_cold")
    assert row["status"] == "info" and row["note"] == "missing in fresh"


# ------------------------------------------------------------------- CLI

def write_pair(tmp_path, baseline, fresh, name="BENCH_x.json"):
    base_dir, fresh_dir = tmp_path / "base", tmp_path / "fresh"
    base_dir.mkdir(exist_ok=True)
    fresh_dir.mkdir(exist_ok=True)
    (base_dir / name).write_text(json.dumps(baseline))
    (fresh_dir / name).write_text(json.dumps(fresh))
    return ["--baseline-dir", str(base_dir), "--fresh-dir", str(fresh_dir)]


def test_main_passes_on_equal_payloads(tmp_path, capsys):
    assert main(write_pair(tmp_path, payload(), payload())) == 0
    assert "no regressions" in capsys.readouterr().err


def test_main_fails_on_perturbed_fixture(tmp_path, capsys):
    fresh = payload(speedup_cold=1.0)
    assert main(write_pair(tmp_path, payload(), fresh)) == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_main_refuses_host_mismatch(tmp_path, capsys):
    fresh = payload()
    fresh["host"] = dict(fresh["host"], kernels="ref")
    argv = write_pair(tmp_path, payload(), fresh)
    assert main(argv) == 2
    assert "refusing to compare" in capsys.readouterr().err


def test_main_refuses_missing_baseline(tmp_path, capsys):
    argv = write_pair(tmp_path, payload(), payload())
    assert main([*argv, "BENCH_missing.json"]) == 2
    assert "no committed baseline" in capsys.readouterr().err


def test_committed_baselines_pass_against_themselves(tmp_path):
    """The in-repo gate: baselines vs themselves under the repo bands."""
    out = REPO / "benchmarks" / "out"
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir()
    for path in out.glob("BENCH_*.json"):
        (fresh_dir / path.name).write_text(path.read_text())
    assert main(["--baseline-dir", str(out), "--fresh-dir", str(fresh_dir)]) == 0


def test_default_tolerances_cover_all_gated_metrics():
    """Every directional metric in the committed baselines has a band."""
    for path in sorted((REPO / "benchmarks" / "out").glob("BENCH_*.json")):
        for metric in benchcheck.flatten(json.loads(path.read_text())):
            if direction(metric) != 0:
                assert tolerance_for(metric) is not None, metric


# ------------------------------------------------ benchmarks/bench.py runner

@functools.cache
def _bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench", REPO / "benchmarks" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_has_a_committed_baseline():
    """The registry and the committed BENCH_*.json files match one to one."""
    committed = {path.name
                 for path in (REPO / "benchmarks" / "out").glob("BENCH_*.json")}
    assert committed == {f"BENCH_{name}.json" for name in _bench_module().BENCHES}


SERIAL_PASS = {"jobs": 1, "cold_s": 2.0, "warm_s": 0.2,
               "record_stage_s": 1.8, "experiments": 6}
PARALLEL_PASS = {"jobs": 2, "cold_s": 1.0, "warm_s": 0.2,
                 "record_stage_s": 0.8, "experiments": 6}


def test_build_payload_computes_speedups_on_a_real_parallel_run():
    built = _bench_module().build_payload(SERIAL_PASS, PARALLEL_PASS)
    assert built["speedup_cold"] == 2.0
    assert built["speedup_record_stage"] == 2.25
    assert built["parallel"] == PARALLEL_PASS


def test_build_payload_omits_speedups_on_serial_fallback():
    """A 1-CPU host's baseline must not pin speedup_cold at a fake 1.0."""
    built = _bench_module().build_payload(SERIAL_PASS, None)
    assert built == {"serial": SERIAL_PASS}


def test_fallback_baseline_cleanly_skips_against_multicore_fresh(
        tmp_path, monkeypatch, capsys):
    """The CI shape: 1-CPU baseline, genuine -j2 fresh run -> no gate."""
    bench = _bench_module()
    monkeypatch.setattr(
        bench, "timed_run",
        lambda configs, jobs, recorder: SERIAL_PASS if jobs == 1 else PARALLEL_PASS)
    for cpus, directory in ((1, "base"), (2, "fresh")):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert bench.main(["campaign", "--out-dir", str(tmp_path / directory)]) == 0
    baseline = json.loads((tmp_path / "base" / "BENCH_campaign.json").read_text())
    assert baseline["host"]["cpu_count"] == 1
    assert "parallel" not in baseline and "speedup_cold" not in baseline
    assert main(["--baseline-dir", str(tmp_path / "base"),
                 "--fresh-dir", str(tmp_path / "fresh")]) == 0
    err = capsys.readouterr().err
    assert "missing in baseline" in err and "no regressions" in err


TRAFFIC_OK = {"host": {"cpu_count": 2}, "completed": 1_000_000,
              "rss_growth_mb": 256.0}


def test_traffic_floor_requires_a_million_completions():
    floor_failures = _bench_module().floor_failures
    assert floor_failures("traffic", TRAFFIC_OK) == []
    (failure,) = floor_failures("traffic", dict(TRAFFIC_OK, completed=999_999))
    assert "999999 handshakes completed < required 1000000" in failure


def test_traffic_floor_bounds_rss_growth():
    (failure,) = _bench_module().floor_failures(
        "traffic", dict(TRAFFIC_OK, rss_growth_mb=256.1))
    assert "RSS grew 256.1 MB" in failure


def test_campaign_floor_requires_speedup_on_multicore_hosts():
    floor_failures = _bench_module().floor_failures
    multicore = {"host": {"cpu_count": 2}, "speedup_cold": 1.2}
    assert floor_failures("campaign", multicore) == []
    (failure,) = floor_failures("campaign", dict(multicore, speedup_cold=1.19))
    assert "speedup_cold 1.19 < required 1.2" in failure
    # no parallel pass on one CPU: nothing to gate
    assert floor_failures("campaign", {"host": {"cpu_count": 1}}) == []


def test_rss_probes_report_plausible_linux_numbers():
    from repro.obs.hostmeta import peak_rss_bytes, rss_bytes

    rss = rss_bytes()
    peak = peak_rss_bytes()
    # both probes may be None off-Linux; here they must agree on sanity
    if rss is not None:
        assert 1 << 20 < rss < 1 << 40       # between 1 MB and 1 TB
    if rss is not None and peak is not None:
        assert peak >= rss // 2              # peak tracks the high-water mark
