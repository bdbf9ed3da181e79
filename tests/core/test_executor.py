"""Parallel campaign executor: cost model, scheduling, equivalence, faults.

The equivalence tests run real (small) experiments twice — once serial,
once through a spawned worker pool — against fresh cache directories, so
they prove the executor's core contract: parallelism changes wall-clock
time, never values.
"""

import io

import pytest

from repro import cache
from repro.core import executor, fanout
from repro.core.executor import (
    batch_units,
    estimated_cost,
    record_cost,
    replay_cost,
    run_campaign,
    schedule,
)
from repro.core.fanout import resolve_jobs
from repro.core.experiment import ExperimentConfig, run_experiment, script_key
from repro.obs.metrics import Metrics
from repro.obs.recorder import FlightRecorder
from repro.obs.tracer import Tracer

SMALL_SET = [
    ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0),
    ExperimentConfig(kem="p256", sig="rsa:1024", duration=5.0),
    ExperimentConfig(kem="x25519", sig="rsa:1024", scenario="high-loss",
                     max_samples=5, duration=5.0),
    ExperimentConfig(kem="kyber512", sig="dilithium2", duration=5.0),
]


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def event_of(recorder, kind):
    """The campaign's one ``kind`` event (``schedule``, ``campaign_begin``)."""
    (event,) = [e for e in recorder.events if e["event"] == kind]
    return event


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the host has 4 cores.

    ``resolve_jobs`` clamps to ``os.cpu_count()``, so on a 1-core CI
    runner every ``jobs > 1`` request would run inline and the
    pool tests would silently stop exercising the pool.
    """
    monkeypatch.setattr(fanout.os, "cpu_count", lambda: 4)


# -- static cost table -------------------------------------------------------

def test_record_cost_ranks_slow_recorders_first():
    # hash-based signing dwarfs lattice signing; bigger variants cost more
    assert record_cost("x25519", "sphincs256") > record_cost("x25519", "sphincs128")
    assert record_cost("x25519", "sphincs128") > record_cost("x25519", "dilithium2")
    # Falcon keygen blows up with the parameter set, RSA with the modulus
    assert record_cost("x25519", "falcon1024") > record_cost("x25519", "falcon512")
    assert record_cost("x25519", "rsa:3072") > record_cost("x25519", "rsa:2048")
    # composites pay for both components
    assert record_cost("x25519", "p256_sphincs128") >= record_cost("x25519", "sphincs128")


def test_replay_cost_tracks_samples_and_flags():
    base = ExperimentConfig(kem="kyber512", sig="dilithium2")
    lossy = ExperimentConfig(kem="kyber512", sig="dilithium2", scenario="high-loss")
    perf = ExperimentConfig(kem="kyber512", sig="dilithium2", profiling=True)
    big = ExperimentConfig(kem="hqc256", sig="sphincs128")
    assert replay_cost(lossy) > replay_cost(base)      # 151 samples vs 3
    assert replay_cost(perf) > replay_cost(base)       # white-box overhead
    assert replay_cost(big) > replay_cost(base)        # wire volume
    assert estimated_cost(base, cold=True) > estimated_cost(base, cold=False)


def test_schedule_puts_expensive_leaders_first():
    cheap = ExperimentConfig(kem="x25519", sig="rsa:1024")
    cheap_lossy = ExperimentConfig(kem="x25519", sig="rsa:1024", scenario="high-loss")
    slow = ExperimentConfig(kem="x25519", sig="sphincs128")
    ordered = schedule([cheap, cheap_lossy, slow])
    # the SPHINCS+ recording is the long pole: dispatched first
    assert ordered[0] == slow
    # one leader per distinct script; the same-script follower trails them
    leaders = ordered[:2]
    assert {script_key(c.kem, c.sig, c.policy, c.seed) for c in leaders} == {
        script_key(c.kem, c.sig, c.policy, c.seed) for c in [cheap, slow]}
    assert ordered[2].scenario in ("none", "high-loss")
    assert len(ordered) == 3


def test_schedule_leader_is_costliest_replay_of_its_group():
    none = ExperimentConfig(kem="x25519", sig="rsa:1024")
    lossy = ExperimentConfig(kem="x25519", sig="rsa:1024", scenario="high-loss")
    ordered = schedule([none, lossy])
    assert ordered[0] == lossy  # recording + the 151-sample replay go together


def test_resolve_jobs(multicore):
    # perfbench and benchmarks/bench.py import it through the executor
    assert executor.resolve_jobs is resolve_jobs
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(7) == 4      # clamped to the (patched) core count
    assert resolve_jobs(None) == 4
    with pytest.raises(ValueError, match="jobs"):
        resolve_jobs(0)


def test_resolve_jobs_clamps_to_one_core(monkeypatch):
    monkeypatch.setattr(fanout.os, "cpu_count", lambda: 1)
    assert resolve_jobs(4) == 1
    assert resolve_jobs(None) == 1


# -- experiment batching -----------------------------------------------------

def _synthetic_unit_inputs():
    configs = [ExperimentConfig(kem="x25519", sig="rsa:1024", seed=f"s{i}")
               for i in range(6)]
    costs = {configs[0].key: 1.0,      # expensive: stays singleton
             configs[1].key: 0.1, configs[2].key: 0.1,
             configs[3].key: 0.1,      # three cheap ones share a unit
             configs[4].key: 0.4,      # above threshold: singleton
             configs[5].key: 0.05}
    return configs, costs


def test_batch_units_packs_cheap_and_isolates_expensive(monkeypatch):
    monkeypatch.setattr(executor, "BATCH_SECONDS", 0.25)
    configs, costs = _synthetic_unit_inputs()
    units = batch_units(configs, costs)
    assert units == [[configs[0]], [configs[1], configs[2]],
                     [configs[4]], [configs[3], configs[5]]]
    # every config dispatched exactly once, whatever the packing
    flat = [c.key for unit in units for c in unit]
    assert sorted(flat) == sorted(c.key for c in configs)


def test_batch_units_zero_threshold_disables_packing(monkeypatch):
    monkeypatch.setattr(executor, "BATCH_SECONDS", 0.0)
    configs, costs = _synthetic_unit_inputs()
    units = batch_units(configs, costs)
    assert units == [[c] for c in configs]


def test_batch_units_keeps_traced_config_singleton(monkeypatch):
    monkeypatch.setattr(executor, "BATCH_SECONDS", 0.25)
    configs, costs = _synthetic_unit_inputs()
    units = batch_units(configs, costs, traced_key=configs[1].key)
    assert [configs[1]] in units


# -- serial/parallel equivalence ---------------------------------------------

def test_parallel_equals_serial(tmp_path, monkeypatch, multicore):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial_metrics = Metrics()
    serial = run_campaign(SMALL_SET, jobs=1, metrics=serial_metrics)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel_metrics = Metrics()
    recorder = FlightRecorder()
    parallel = run_campaign(SMALL_SET, jobs=3, metrics=parallel_metrics,
                            recorder=recorder)

    assert list(parallel) == list(serial)
    for key in serial:
        assert parallel[key] == serial[key], key     # full ExperimentResult eq
    assert parallel_metrics.snapshot() == serial_metrics.snapshot()
    schedule_event = event_of(recorder, "schedule")
    assert schedule_event["dispatched"] == len(SMALL_SET)
    assert schedule_event["distinct_scripts"] == 3   # two configs share a script


def test_parallel_equals_serial_with_streaming_instruments(
        tmp_path, monkeypatch, multicore):
    """Bit-identity holds when campaign histograms spill to sketches.

    A retention of 8 forces every campaign-level latency histogram into
    streaming (sketch) mode; worker snapshot shipping must
    still reconstruct the exact leader state.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial_metrics = Metrics(retention=8)
    serial = run_campaign(SMALL_SET, jobs=1, metrics=serial_metrics)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel_metrics = Metrics(retention=8)
    parallel = run_campaign(SMALL_SET, jobs=3, metrics=parallel_metrics)

    assert parallel == serial
    assert parallel_metrics.snapshot() == serial_metrics.snapshot()
    histogram = parallel_metrics.histogram("handshake.total")
    assert histogram.spilled and histogram.samples == []
    assert histogram.count == serial_metrics.histogram("handshake.total").count


def test_batched_parallel_equals_serial(tmp_path, monkeypatch, multicore):
    """A huge batch threshold packs whole script groups into shared units;
    results and metrics must still be bit-identical to the serial run."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial_metrics = Metrics()
    monkeypatch.setattr(executor, "BATCH_SECONDS", 0.0)
    serial = run_campaign(SMALL_SET, jobs=1, metrics=serial_metrics)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "batched"))
    batched_metrics = Metrics()
    recorder = FlightRecorder()
    monkeypatch.setattr(executor, "BATCH_SECONDS", 0.5)
    batched = run_campaign(SMALL_SET, jobs=3, metrics=batched_metrics,
                           recorder=recorder)
    assert batched == serial
    assert batched_metrics.snapshot() == serial_metrics.snapshot()
    schedule_event = event_of(recorder, "schedule")
    assert schedule_event["batched"] >= 2         # some unit actually shared
    assert schedule_event["units"] < schedule_event["dispatched"]


def test_parallel_warm_cache_resolves_inline(cold_cache, monkeypatch, multicore):
    serial = run_campaign(SMALL_SET, jobs=1, metrics=Metrics())

    class PoolBomb:
        def __init__(self, *a, **k):
            raise AssertionError("a fully-cached campaign must not spawn workers")

    monkeypatch.setattr(fanout, "ProcessPoolExecutor", PoolBomb)
    recorder = FlightRecorder()
    warm_metrics = Metrics()
    warm = run_campaign(SMALL_SET, jobs=4, metrics=warm_metrics,
                        recorder=recorder)
    assert warm == serial
    schedule_event = event_of(recorder, "schedule")
    assert schedule_event["hits"] == len(SMALL_SET)
    assert schedule_event["dispatched"] == 0


def test_single_miss_runs_inline_without_pool(cold_cache, monkeypatch, multicore):
    # warm all but one config: a single cold miss must not pay for a pool
    run_campaign(SMALL_SET[:3], jobs=1, metrics=Metrics())
    serial_key = SMALL_SET[3].key

    class PoolBomb:
        def __init__(self, *a, **k):
            raise AssertionError("a single miss must not spawn workers")

    monkeypatch.setattr(fanout, "ProcessPoolExecutor", PoolBomb)
    before = cache.metrics.snapshot()["counters"]
    recorder = FlightRecorder()
    results = run_campaign(SMALL_SET, jobs=4, metrics=Metrics(),
                           recorder=recorder)
    after = cache.metrics.snapshot()["counters"]
    assert serial_key in results and len(results) == len(SMALL_SET)
    schedule_event = event_of(recorder, "schedule")
    assert schedule_event["hits"] == 3 and schedule_event["dispatched"] == 1
    # the inline run's miss is counted exactly once, as in a serial run
    assert after["cache.experiment.miss"] - before.get("cache.experiment.miss", 0.0) == 1
    assert after["cache.experiment.store"] - before.get("cache.experiment.store", 0.0) == 1


def test_one_core_host_runs_inline_without_pool(cold_cache, monkeypatch):
    monkeypatch.setattr(fanout.os, "cpu_count", lambda: 1)

    class PoolBomb:
        def __init__(self, *a, **k):
            raise AssertionError("jobs clamped to 1 core must not spawn workers")

    monkeypatch.setattr(fanout, "ProcessPoolExecutor", PoolBomb)
    recorder = FlightRecorder()
    results = run_campaign(SMALL_SET, jobs=4, metrics=Metrics(),
                           recorder=recorder)
    assert len(results) == len(SMALL_SET)
    # the same partition/schedule/batch pipeline ran, just without a pool
    schedule_event = event_of(recorder, "schedule")
    assert schedule_event["jobs"] == 1
    assert event_of(recorder, "campaign_begin")["experiments"] == len(SMALL_SET)
    assert schedule_event["hits"] == 0
    assert schedule_event["dispatched"] == len(SMALL_SET)
    assert schedule_event["distinct_scripts"] == 3
    assert 1 <= schedule_event["units"] <= len(SMALL_SET)


def _cache_counter_delta(before: dict) -> dict:
    after = cache.metrics.snapshot()["counters"]
    return {name: value - before.get(name, 0.0) for name, value in after.items()
            if value != before.get(name, 0.0)}


def test_inline_campaign_equals_hand_loop(tmp_path, monkeypatch):
    """Oracle for jobs=1: the campaign pipeline matches running every
    config by hand — same results, same merged metrics, and the same cache
    hit/miss/store traffic (inline tasks' counters are not replayed twice)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "loop"))
    loop_metrics = Metrics()
    before = cache.metrics.snapshot()["counters"]
    loop = {config.key: run_experiment(config, metrics=loop_metrics)
            for config in SMALL_SET}
    loop_delta = _cache_counter_delta(before)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "campaign"))
    campaign_metrics = Metrics()
    before = cache.metrics.snapshot()["counters"]
    campaign = run_campaign(SMALL_SET, jobs=1, metrics=campaign_metrics)
    campaign_delta = _cache_counter_delta(before)

    assert campaign == loop
    assert campaign_metrics.snapshot() == loop_metrics.snapshot()
    assert campaign_delta == loop_delta
    assert loop_delta["cache.experiment.miss"] == len(SMALL_SET)


def test_empty_campaign_returns_empty(cold_cache):
    recorder = FlightRecorder()
    assert run_campaign([], tracer=Tracer(), recorder=recorder) == {}
    assert event_of(recorder, "campaign_begin")["experiments"] == 0
    assert event_of(recorder, "schedule")["units"] == 0


def test_duplicate_configs_merge_like_serial(cold_cache, monkeypatch, multicore):
    doubled = SMALL_SET[:2] + [SMALL_SET[0]]
    serial_metrics = Metrics()
    serial = run_campaign(doubled, jobs=1, metrics=serial_metrics)
    # fresh dir for the parallel cold run
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cold_cache / "p"))
    parallel_metrics = Metrics()
    parallel = run_campaign(doubled, jobs=2, metrics=parallel_metrics)
    assert parallel == serial
    assert len(parallel) == 2
    # the duplicate's metrics counted twice in both modes
    assert parallel_metrics.snapshot() == serial_metrics.snapshot()


def test_recorder_reports_hits_and_misses(cold_cache, multicore):
    run_campaign(SMALL_SET[:2], jobs=1, metrics=Metrics())   # warm 2 of 4
    stream = io.StringIO()
    recorder = FlightRecorder(live=True, stream=stream)
    run_campaign(SMALL_SET, jobs=2, set_name="small", recorder=recorder)
    # every experiment is reported exactly once, as a hit or as a finish
    reported = [e["key"] for e in recorder.events
                if e["event"] in ("cache_hit", "task_finish")]
    assert sorted(reported) == sorted(c.key for c in SMALL_SET)
    assert {e["set"] for e in recorder.events} == {"small"}
    # the live line advances once per experiment, hits included, and its
    # last drawing reads 4/4 (cleared lines are blank between drawings)
    drawn = [line.strip() for line in stream.getvalue().split("\r")
             if line.strip()]
    assert [line.split()[1] for line in drawn] == ["1/4", "2/4", "3/4", "4/4"]
    assert drawn[-1].startswith("[small] 4/4")


def test_fault_campaign_failure_sets_identical_serial_and_parallel(
        tmp_path, monkeypatch, multicore):
    """The determinism contract under chaos: same configs + seeds + fault
    plans produce bit-identical outcome histograms at --jobs 1 and N."""
    fault_set = [
        ExperimentConfig(kem="x25519", sig="rsa:1024", scenario="5g",
                         faults="chaos", max_samples=20, duration=30.0,
                         handshake_timeout=0.2),
        ExperimentConfig(kem="x25519", sig="rsa:1024", scenario="high-loss",
                         faults="bit-rot", max_samples=10, duration=10.0),
        ExperimentConfig(kem="x25519", sig="rsa:1024", scenario="lte-m",
                         faults="dup", max_samples=10, duration=10.0),
    ]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial = run_campaign(fault_set, jobs=1, metrics=Metrics())
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = run_campaign(fault_set, jobs=3, metrics=Metrics())
    assert parallel == serial                      # full ExperimentResult eq
    for key, result in serial.items():
        assert result.outcomes == parallel[key].outcomes
        # every attempt is accounted for: successes + failures
        assert sum(result.outcomes.values()) == \
            len(result.total_samples) + result.n_failures
    # the chaos/5g config is the one that actually exercises failures
    assert serial[fault_set[0].key].n_failures > 0


# -- single-flight recording -------------------------------------------------

def test_single_flight_records_each_script_once(cold_cache, multicore):
    # two distinct experiments, one distinct (kem, sig, policy, seed) script:
    # whichever worker wins the lock records; the loser must load, not re-record
    shared_script = [
        ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0),
        ExperimentConfig(kem="x25519", sig="rsa:1024", scenario="high-loss",
                         max_samples=3, duration=5.0),
    ]
    before = cache.metrics.snapshot()["counters"]
    run_campaign(shared_script, jobs=2, metrics=Metrics())
    after = cache.metrics.snapshot()["counters"]

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    assert delta("cache.script.store") == 1
    assert delta("cache.creds.store") == 1
    assert delta("cache.experiment.store") == 2


# -- fault paths -------------------------------------------------------------

def test_worker_exception_propagates_original(cold_cache, multicore):
    bad = [
        ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0),
        ExperimentConfig(kem="x25519", sig="rsa:1024", duration=-1.0),
    ]
    with pytest.raises(ValueError, match="duration must be positive"):
        run_campaign(bad, jobs=2, metrics=Metrics())
    # the pool shut down cleanly: the executor is immediately reusable
    results = run_campaign(bad[:1], jobs=2, metrics=Metrics())
    assert len(results) == 1


def test_unknown_algorithm_raises_keyerror_serial_and_parallel(cold_cache,
                                                               multicore):
    nope = [ExperimentConfig(kem="nope", sig="rsa:1024"),
            ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0)]
    with pytest.raises(KeyError, match="unknown key agreement"):
        run_campaign(nope, jobs=1, metrics=Metrics())
    with pytest.raises(KeyError, match="unknown key agreement"):
        run_campaign(nope, jobs=2, metrics=Metrics())


# -- trace merge -------------------------------------------------------------

def test_traced_first_experiment_identical_serial_and_parallel(tmp_path,
                                                               monkeypatch,
                                                               multicore):
    configs = SMALL_SET[:2]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial_tracer = Tracer()
    run_campaign(configs, jobs=1, tracer=serial_tracer)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel_tracer = Tracer()
    run_campaign(configs, jobs=2, tracer=parallel_tracer)

    assert serial_tracer.spans, "tracing must record the first handshake"
    assert parallel_tracer.spans == serial_tracer.spans
    assert parallel_tracer.instants == serial_tracer.instants
    assert parallel_tracer.counters == serial_tracer.counters


# -- generic shard fan-out ---------------------------------------------------

def _triple(payload):
    return payload * 3


def _explode_on_two(payload):
    if payload == 2:
        raise ValueError("shard 2 is cursed")
    return payload


def test_run_sharded_serial_preserves_payload_order():
    seen = []
    results = fanout.run_sharded(
        _triple, [5, 1, 4], jobs=1,
        on_complete=lambda index, result: seen.append((index, result)))
    assert results == [15, 3, 12]
    assert seen == [(0, 15), (1, 3), (2, 12)]  # serial: completion == order


def test_run_sharded_parallel_equals_serial(multicore):
    payloads = list(range(6))
    serial = fanout.run_sharded(_triple, payloads, jobs=1)
    seen = []
    parallel = fanout.run_sharded(
        _triple, payloads, jobs=3,
        on_complete=lambda index, result: seen.append((index, result)))
    # results come back in payload order whatever order workers finish in
    assert parallel == serial == [p * 3 for p in payloads]
    assert sorted(seen) == [(i, i * 3) for i in payloads]


def test_run_sharded_single_payload_skips_the_pool(multicore, monkeypatch):
    class PoolBomb:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a single payload must run inline")

    monkeypatch.setattr(fanout, "ProcessPoolExecutor", PoolBomb)
    assert fanout.run_sharded(_triple, [7], jobs=4) == [21]


def test_run_sharded_propagates_worker_exceptions(multicore):
    with pytest.raises(ValueError, match="shard 2 is cursed"):
        fanout.run_sharded(_explode_on_two, [0, 1, 2, 3], jobs=2)
