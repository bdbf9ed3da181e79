"""Executor flight recording: event stream shape, ETA inputs, no perturbation."""

import pytest

from repro.core import fanout
from repro.core.executor import run_campaign
from repro.core.experiment import ExperimentConfig
from repro.obs.metrics import Metrics
from repro.obs.recorder import FlightRecorder

SMALL_SET = [
    ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0),
    ExperimentConfig(kem="p256", sig="rsa:1024", duration=5.0),
]


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture
def multicore(monkeypatch):
    monkeypatch.setattr(fanout.os, "cpu_count", lambda: 4)


def events_of(recorder, kind):
    return [e for e in recorder.events if e["event"] == kind]


def test_serial_campaign_emits_bracketed_task_events(cold_cache):
    recorder = FlightRecorder()
    run_campaign(SMALL_SET, jobs=1, set_name="small", recorder=recorder)
    kinds = [e["event"] for e in recorder.events]
    assert kinds[0] == "campaign_begin" and kinds[-1] == "campaign_end"
    starts = events_of(recorder, "task_start")
    finishes = events_of(recorder, "task_finish")
    assert len(starts) == len(finishes) == len(SMALL_SET)
    assert all(s["set"] == "small" and "mode" not in s for s in starts)
    assert all(f["mode"] == "inline" and f["set"] == "small" for f in finishes)
    assert not events_of(recorder, "cache_hit")            # cold cache
    assert all(s["est_cost"] > 0 for s in starts)
    assert all(f["host_seconds"] > 0 for f in finishes)
    assert all(f["outcomes"] == {"success": 3} for f in finishes)
    assert recorder.events[-1]["host_seconds"] > 0


def test_serial_warm_cache_marks_tasks_cached(cold_cache):
    # a warm task is logged as a cache_hit, never dispatched as a task
    run_campaign(SMALL_SET, jobs=1)
    recorder = FlightRecorder()
    run_campaign(SMALL_SET, jobs=1, recorder=recorder)
    hits = events_of(recorder, "cache_hit")
    assert [h["key"] for h in hits] == [c.key for c in SMALL_SET]
    assert not events_of(recorder, "task_start")
    assert not events_of(recorder, "task_finish")


def test_parallel_campaign_emits_schedule_and_worker_events(
        cold_cache, multicore):
    run_campaign(SMALL_SET[:1], jobs=1)          # warm one of two
    recorder = FlightRecorder()
    run_campaign(SMALL_SET + [
        ExperimentConfig(kem="kyber512", sig="dilithium2", duration=5.0),
    ], jobs=2, set_name="mix", recorder=recorder)

    (schedule,) = events_of(recorder, "schedule")
    assert schedule["hits"] == 1 and schedule["dispatched"] == 2
    (hit,) = events_of(recorder, "cache_hit")
    assert hit["key"] == SMALL_SET[0].key
    finishes = events_of(recorder, "task_finish")
    assert len(finishes) == 2
    assert all(f["mode"] == "worker" for f in finishes)
    assert all(f["host_seconds"] > 0 for f in finishes)
    # per-worker cache traffic rides along (each task records its script)
    assert all("cache" in f for f in finishes)
    assert events_of(recorder, "campaign_end")


def test_single_miss_inline_path_records_inline_mode(cold_cache, multicore):
    run_campaign(SMALL_SET, jobs=1)              # warm both
    extra = ExperimentConfig(kem="kyber512", sig="dilithium2", duration=5.0)
    recorder = FlightRecorder()
    run_campaign(SMALL_SET + [extra], jobs=2, recorder=recorder)
    (finish,) = events_of(recorder, "task_finish")
    assert finish["mode"] == "inline" and finish["key"] == extra.key
    assert len(events_of(recorder, "cache_hit")) == 2


def test_recorder_does_not_perturb_results_or_metrics(
        tmp_path, monkeypatch, multicore):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "bare"))
    bare_metrics = Metrics()
    bare = run_campaign(SMALL_SET, jobs=1, metrics=bare_metrics)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "recorded"))
    recorded_metrics = Metrics()
    recorded = run_campaign(SMALL_SET, jobs=1, metrics=recorded_metrics,
                            recorder=FlightRecorder())
    assert recorded == bare                      # full ExperimentResult eq
    assert recorded_metrics.snapshot() == bare_metrics.snapshot()
