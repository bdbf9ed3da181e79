"""The traffic engine: queueing semantics, sharding, --jobs bit-identity."""

import hashlib
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fanout
from repro.obs.metrics import DEFAULT_RETENTION, Metrics
from repro.obs.recorder import FlightRecorder
from repro.traffic import engine
from repro.traffic.engine import (
    TrafficConfig,
    metric_key,
    run_traffic,
    shard_windows,
)
from repro.traffic.profile import handshake_profile

PAIR = ("kyber512", "dilithium2")
PREFIX = "traffic.kyber512.dilithium2."


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the host has 4 cores so jobs > 1 exercises the pool."""
    monkeypatch.setattr(fanout.os, "cpu_count", lambda: 4)


def _run(metrics=None, **overrides):
    config = TrafficConfig(pairs=(PAIR,), **overrides)
    metrics = Metrics() if metrics is None else metrics
    summary = run_traffic(config, metrics=metrics)
    return metrics, summary


# -- layout ------------------------------------------------------------------

def test_shard_windows_partition_the_timeline():
    windows = shard_windows(TrafficConfig(duration=10.0, shard_seconds=3.0))
    assert [w.index for w in windows] == [0, 1, 2, 3]
    assert windows[0].start == 0.0
    assert all(a.end == b.start for a, b in zip(windows, windows[1:]))
    assert windows[-1].end == 10.0          # last window absorbs the remainder
    assert len(shard_windows(TrafficConfig(duration=6.0,
                                           shard_seconds=3.0))) == 2
    assert len(shard_windows(TrafficConfig(duration=2.0,
                                           shard_seconds=60.0))) == 1


@pytest.mark.parametrize("overrides", [
    {"duration": 0.0},
    {"shard_seconds": 0.0},
    {"arrival": "pareto:100/s"},
])
def test_run_traffic_rejects_bad_configs(overrides):
    with pytest.raises(ValueError):
        run_traffic(TrafficConfig(**overrides))


def test_metric_key_sanitizes_names():
    assert metric_key("Kyber-512") == "kyber_512"
    assert metric_key("rsa:2048") == "rsa_2048"


# -- queueing semantics ------------------------------------------------------

def test_uncontended_run_reproduces_the_calibrated_baseline():
    profile = handshake_profile(*PAIR)
    metrics, summary = _run(arrival="poisson:20/s", duration=2.0)
    total = metrics.histogram(PREFIX + "total")
    assert total.count == summary.completed > 0
    # at rho ~2% the median handshake never queues: exact base latency
    assert total.quantile(0.5) == pytest.approx(profile.total, abs=1e-12)
    assert total.min == pytest.approx(profile.total, abs=1e-12)
    # part B is constant under load by design (client Finished processing
    # happens after the client's flight is already on the wire)
    part_b = metrics.histogram(PREFIX + "part_b")
    assert part_b.max - part_b.min < 1e-12
    assert summary.dropped == 0
    assert summary.load_factor < 0.1


def test_overload_amplifies_the_tail_not_part_b():
    profile = handshake_profile(*PAIR)
    metrics, summary = _run(arrival="poisson:2000/s", duration=1.0)
    assert summary.load_factor > 1.5        # ~2x overload on one core
    total = metrics.histogram(PREFIX + "total")
    assert total.quantile(0.99) > 5 * profile.total
    wait = metrics.histogram(PREFIX + "server_wait")
    assert wait.max > 0.1                   # backlog grows through the window
    part_b = metrics.histogram(PREFIX + "part_b")
    assert part_b.max - part_b.min < 1e-12


def test_more_server_cores_shrink_the_tail():
    _, one = _run(arrival="poisson:1500/s", duration=1.0, server_cores=1)
    metrics4, four = _run(arrival="poisson:1500/s", duration=1.0,
                          server_cores=4)
    assert one.load_factor > 1.0
    assert four.load_factor < 0.6
    wait = metrics4.histogram(PREFIX + "server_wait")
    assert wait.quantile(0.99) < 0.01       # queueing nearly vanishes


def test_admission_cap_drops_and_accounts_for_overflow():
    _, summary = _run(arrival="poisson:3000/s", duration=1.0,
                      max_in_flight=50)
    assert summary.dropped > 0
    assert summary.offered == summary.completed + summary.dropped
    assert summary.peak_in_flight <= 50


def test_closed_loop_bounds_in_flight_by_the_client_count():
    _, summary = _run(arrival="closed:25,think=0.001", duration=1.0)
    assert summary.peak_in_flight <= 25
    assert summary.completed > 25           # clients cycle many times
    assert summary.dropped == 0
    # the connection pool is bounded by concurrency, not completions
    assert summary.pool_peak <= 25


def test_pair_mix_observes_every_pair():
    config = TrafficConfig(arrival="poisson:400/s", duration=1.0,
                           pairs=(PAIR, ("kyber512", "falcon512")))
    metrics = Metrics()
    summary = run_traffic(config, metrics=metrics)
    counts = [metrics.histogram(
        f"traffic.{metric_key(k)}.{metric_key(s)}.total").count
        for k, s in config.pairs]
    assert all(c > 0 for c in counts)
    assert sum(counts) == summary.completed
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["traffic.completed"] == summary.completed


# -- determinism / sharding --------------------------------------------------

def test_sharding_is_invisible_to_results_offered_wise():
    # shard boundaries change which DRBG generates which arrival, so the
    # exact timelines differ — but the process statistics must not drift
    _, whole = _run(arrival="poisson:1000/s", duration=2.0,
                    shard_seconds=2.0)
    _, split = _run(arrival="poisson:1000/s", duration=2.0,
                    shard_seconds=0.5)
    assert split.shards == 4 and whole.shards == 1
    assert abs(split.offered - whole.offered) < 6 * 45  # 6 sigma at n=2000


def test_jobs_bit_identity(multicore):
    config = TrafficConfig(arrival="poisson:500/s", duration=1.5,
                           pairs=(PAIR,), shard_seconds=0.5)
    serial, parallel = Metrics(), Metrics()
    s1 = run_traffic(config, jobs=1, metrics=serial)
    s3 = run_traffic(config, jobs=3, metrics=parallel)
    assert (json.dumps(serial.snapshot(), sort_keys=True)
            == json.dumps(parallel.snapshot(), sort_keys=True))
    assert s1.jobs == 1 and s3.jobs == 3
    assert (s1.offered, s1.completed, s1.dropped) \
        == (s3.offered, s3.completed, s3.dropped)
    assert s1.busy_seconds == pytest.approx(s3.busy_seconds, abs=1e-12)


def test_resume_mix_splits_the_pair_and_is_cheaper():
    config = TrafficConfig(arrival="poisson:400/s", duration=1.0,
                           pairs=(PAIR,), resume=(0.5,))
    metrics = Metrics()
    summary = run_traffic(config, metrics=metrics)
    full = metrics.histogram(PREFIX + "total")
    resumed = metrics.histogram(PREFIX + "resume.total")
    assert full.count > 0 and resumed.count > 0
    assert full.count + resumed.count == summary.completed
    # a resumed handshake skips the certificate flight: the server's
    # burst shrinks and the uncontended total drops
    assert (metrics.histogram(PREFIX + "resume.part_b").mean
            < metrics.histogram(PREFIX + "part_b").mean)
    assert "resume=0.5" in config.key


def test_all_full_config_key_is_unchanged():
    # pre-lifecycle cache/DRBG keys must stay stable: an unset (or
    # all-zero) resume mix adds nothing to the key
    assert "resume" not in TrafficConfig(pairs=(PAIR,)).key
    assert "resume" not in TrafficConfig(pairs=(PAIR,), resume=(0.0,)).key


def test_resume_mix_rejects_bad_fractions():
    with pytest.raises(ValueError, match="one fraction per pair"):
        run_traffic(TrafficConfig(pairs=(PAIR,), resume=(0.5, 0.5)),
                    metrics=Metrics())
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        run_traffic(TrafficConfig(pairs=(PAIR,), resume=(1.5,)),
                    metrics=Metrics())


def test_resume_mix_jobs_bit_identity(multicore):
    config = TrafficConfig(arrival="poisson:500/s", duration=1.5,
                           pairs=(PAIR, ("x25519", "rsa:2048")),
                           shard_seconds=0.5, resume=(0.6, 0.3))
    serial, parallel = Metrics(), Metrics()
    s1 = run_traffic(config, jobs=1, metrics=serial)
    s3 = run_traffic(config, jobs=3, metrics=parallel)
    assert (json.dumps(serial.snapshot(), sort_keys=True)
            == json.dumps(parallel.snapshot(), sort_keys=True))
    assert (s1.offered, s1.completed) == (s3.offered, s3.completed)


def test_jobs_bit_identity_with_spilled_shards(multicore):
    # >4096 handshakes per shard per channel: every worker ships spilled
    # (sketch) histograms, not raw samples
    config = TrafficConfig(arrival="poisson:2500/s", duration=6.0,
                           pairs=(PAIR,), shard_seconds=2.0, server_cores=4)
    serial, parallel = Metrics(), Metrics()
    s1 = run_traffic(config, jobs=1, metrics=serial)
    s3 = run_traffic(config, jobs=3, metrics=parallel)
    assert s1.completed / s1.shards > DEFAULT_RETENTION
    assert (json.dumps(serial.snapshot(), sort_keys=True)
            == json.dumps(parallel.snapshot(), sort_keys=True))
    assert (s1.offered, s1.completed) == (s3.offered, s3.completed)


def test_observe_chunk_is_invisible(monkeypatch):
    # observing every handshake on its own and in OBSERVE_CHUNK batches
    # leaves byte-identical shard metrics; the small retention makes the
    # busier channels spill, so both the exact and the folded paths run
    config = TrafficConfig(arrival="poisson:2000/s", duration=1.0,
                           pairs=(PAIR, ("x25519", "rsa:2048")),
                           shard_seconds=0.5, server_cores=4,
                           resume=(0.6, 0.3))

    def shard_dumps():
        dumps = []
        for window in shard_windows(config):
            metrics = Metrics(retention=256)
            engine._run_shard(config, window.index, metrics)
            dumps.append(json.dumps(metrics.snapshot(), sort_keys=True))
        return dumps, metrics

    chunked, last = shard_dumps()
    histograms = [last.histogram(name) for name in last.names()
                  if name.endswith(".total")]
    assert any(h.spilled for h in histograms)
    assert not all(h.spilled for h in histograms)
    monkeypatch.setattr(engine, "OBSERVE_CHUNK", 1)
    single, _ = shard_dumps()
    assert single == chunked


def test_run_is_reproducible_and_seed_sensitive():
    a, _ = _run(arrival="poisson:300/s", duration=1.0)
    b, _ = _run(arrival="poisson:300/s", duration=1.0)
    c, _ = _run(arrival="poisson:300/s", duration=1.0, seed="other")
    dumps = [json.dumps(m.snapshot(), sort_keys=True) for m in (a, b, c)]
    assert dumps[0] == dumps[1]
    assert dumps[0] != dumps[2]


# -- constant memory ---------------------------------------------------------

def test_memory_is_flat_in_the_handshake_count():
    # past the retention window histograms spill to a quantile sketch;
    # sample lists stay capped no matter how many handshakes stream in
    metrics = Metrics(retention=256)
    _, summary = _run(arrival="poisson:2000/s", duration=1.0,
                      metrics=metrics)
    total = metrics.histogram(PREFIX + "total")
    assert summary.completed > 1000
    assert total.count == summary.completed
    assert total.spilled
    assert len(total.samples) == 0          # raw samples were released
    assert total.quantile(0.5) > 0


# -- observation -------------------------------------------------------------

def test_flight_recorder_sees_heartbeats_and_shard_finishes(monkeypatch):
    monkeypatch.setattr(engine, "HEARTBEAT_SECONDS", 0.0)
    recorder = FlightRecorder()
    config = TrafficConfig(arrival="poisson:3000/s", duration=1.0,
                           pairs=(PAIR,), shard_seconds=0.5)
    run_traffic(config, metrics=Metrics(), recorder=recorder)
    kinds = [e["event"] for e in recorder.events]
    assert kinds[0] == "traffic_begin"
    assert kinds[-1] == "traffic_end"
    assert kinds.count("shard_finish") == 2
    beats = [e for e in recorder.events if e["event"] == "heartbeat"]
    # HEARTBEAT_SECONDS=0 emits on every 1024-completion check
    assert beats
    for beat in beats:
        assert beat["completed"] > 0
        assert "in_flight" in beat and "sim_t" in beat
        assert beat.get("rss_mb") is None or beat["rss_mb"] > 0
    finish = next(e for e in recorder.events if e["event"] == "shard_finish")
    assert finish["mode"] == "serial"
    assert finish["completed"] > 0


# -- byte pins ---------------------------------------------------------------
# sha256 of the merged metrics snapshot plus the summary counts
# (offered, completed, dropped, peak_in_flight, pool_peak). Engine
# optimizations must leave every one of these bytes alone.

FLASH_PAIRS = (PAIR, ("p256_kyber512", "p256_dilithium2"))

PINS = {
    "perfbench-open": (
        dict(arrival="poisson:25200/s", duration=2.0, pairs=(PAIR,),
             server_cores=32, shard_seconds=1.0, seed="bench"),
        "55648f2379e6ed8da4b3f3a03b4f513435f2e7427e682c10d72f6cfa4564143e",
        (50699, 50699, 0, 75, 75)),
    "perfbench-flash": (
        dict(arrival="flash:15000/s,peak=60000/s,at=1.5,width=1",
             duration=4.0, pairs=FLASH_PAIRS, resume=(0.5, 0.5),
             server_cores=32, shard_seconds=1.0, max_in_flight=20_000,
             seed="bench"),
        "6be0811cc0e1f9e4ecea7c100501fda59692367bc65713aa4807b2c934719cd4",
        (105116, 101712, 3404, 20000, 20000)),
    "admission-cap": (
        dict(arrival="poisson:3000/s", duration=2.0, pairs=(PAIR,),
             server_cores=1, max_in_flight=50, seed="x"),
        "c8c26c2d5c367396a675489381384fdef6ed153106ea2b505eff93a5181c3a8a",
        (5986, 1876, 4110, 50, 50)),
    "closed-loop": (
        dict(arrival="closed:25,think=0.001", duration=1.0, pairs=(PAIR,)),
        "1da710c3b1668b1a21980a6aebdb440de8c7d79965ee24b0c9ecc5fc5a6f1862",
        (938, 938, 0, 25, 25)),
    "diurnal-mix": (
        dict(arrival="diurnal:2000/s,amp=0.5", duration=3.0,
             pairs=(PAIR, ("hqc128", "dilithium2")), server_cores=2,
             shard_seconds=1.0),
        "7c0f9badfaf2c6d4cced4c62284566987fdf5517fe31ac671747a11509411b85",
        (5992, 5992, 0, 1634, 1634)),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_outputs_match_their_byte_pins(name):
    settings, digest, counts = PINS[name]
    metrics = Metrics()
    summary = run_traffic(TrafficConfig(**settings), metrics=metrics)
    assert (summary.offered, summary.completed, summary.dropped,
            summary.peak_in_flight, summary.pool_peak) == counts
    dump = json.dumps(metrics.snapshot(), sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == digest


# -- engine properties -------------------------------------------------------

ARRIVALS = st.one_of(
    st.builds("poisson:{}/s".format, st.integers(50, 3000)),
    st.builds("flash:{}/s,peak={}/s,at={},width={}".format,
              st.integers(50, 500), st.integers(500, 4000),
              st.sampled_from([0.1, 0.4]), st.sampled_from([0.05, 0.3])),
    st.builds("diurnal:{}/s,amp={}".format, st.integers(50, 2000),
              st.sampled_from([0.0, 0.5, 0.9])),
    st.builds("closed:{},think={}".format, st.integers(1, 60),
              st.sampled_from([0.0, 0.001, 0.02])),
)


def _record_schedules(loop):
    """Wrap ``loop.schedule``; returns the list each call appends to."""
    calls = []
    schedule = loop.schedule

    def recorded(delay, callback):
        handle = schedule(delay, callback)
        calls.append(handle)
        return handle

    loop.schedule = recorded
    return calls


@settings(max_examples=30)
@given(arrival=ARRIVALS, cores=st.integers(1, 8),
       cap=st.sampled_from([1, 5, 40, 100_000]),
       shard_seconds=st.sampled_from([0.25, 0.6]),
       resume=st.sampled_from([(), (0.5,)]))
def test_engine_invariants_hold_for_every_arrival_shape(
        arrival, cores, cap, shard_seconds, resume):
    config = TrafficConfig(arrival=arrival, duration=0.6, pairs=(PAIR,),
                           server_cores=cores, max_in_flight=cap,
                           shard_seconds=shard_seconds, resume=resume)
    for window in shard_windows(config):
        metrics = Metrics()
        shard = engine._ShardEngine(config, window, metrics)
        scheduled = _record_schedules(shard.loop)
        shard.run()
        out = shard.finalize(metrics)
        offered, dropped = out["offered"], out["dropped"]
        assert out["completed"] + dropped == offered
        assert shard.in_flight == 0 and not shard._finishes
        assert out["peak_in_flight"] <= cap
        assert out["pool_peak"] <= out["peak_in_flight"]
        # open-loop arrivals are not events: two bursts per admitted
        # handshake; a closed-loop client's handshake is also scheduled,
        # and it wakes at its finish time
        served = offered - dropped
        if shard.spec.closed:
            assert len(scheduled) == offered + 3 * served
        else:
            assert len(scheduled) == 2 * served
        for channel in (*shard.channels, *shard.resume_channels):
            if channel is None or not channel.completed:
                continue
            profile = channel.profile
            part_a, _, total, ttfb, _ = channel.histograms
            assert part_a.min >= profile.part_a
            assert total.min >= profile.total
            assert ttfb.min >= profile.ttfb


def test_a_completion_at_an_arrivals_instant_is_retired_first():
    # the tie rule: at the cap, an arrival that lands exactly when a
    # handshake completes is admitted, because the completion retires
    # before the admission check
    config = TrafficConfig(pairs=(PAIR,), duration=1.0, max_in_flight=1)
    shard = engine._ShardEngine(config, shard_windows(config)[0], Metrics())
    shard.loop.run(until=0.5)
    shard._finishes.append((0.5, 1, engine._Conn()))
    shard.in_flight = 1
    shard._begin()
    assert (shard.offered, shard.dropped, shard.completed) == (1, 0, 1)
    assert shard.in_flight == 1 and shard.pool_peak == 1


def test_an_event_at_an_arrivals_instant_runs_first(monkeypatch):
    # the tie rule for events: a callback due exactly at an arrival's
    # instant runs before that arrival's _begin, even when it was
    # scheduled (by an earlier callback) after the previous arrival
    stub = SimpleNamespace(next_time=iter([0.125, 0.5, None]).__next__)
    monkeypatch.setattr(engine, "open_arrivals", lambda *args: stub)
    config = TrafficConfig(pairs=(PAIR,), duration=1.0)
    shard = engine._ShardEngine(config, shard_windows(config)[0], Metrics())
    loop = shard.loop
    log = []
    begin = shard._begin

    def logged_begin():
        log.append(("begin", loop.now))
        begin()

    def earlier():
        log.append(("earlier", loop.now))
        loop.schedule(0.25, lambda: log.append(("tie", loop.now)))

    shard._begin = logged_begin
    loop.schedule(0.25, earlier)
    shard.run()
    assert log == [("begin", 0.125), ("earlier", 0.25), ("tie", 0.5),
                   ("begin", 0.5)]
    assert (shard.offered, shard.completed) == (2, 2)
