"""Metrics registry: instruments, prefix reads, merging, snapshots."""

import json
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import FOLD_CHUNK, NULL_METRICS, Histogram, Metrics
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY


def fold(target, source):
    """The in-process oracle for ``target.merge_snapshot(source.snapshot())``:
    counters add, and each histogram folds in with ``Histogram.merge``."""
    for name, value in source._counters.items():
        target.inc(name, value)
    for name, histogram in source._histograms.items():
        target.histogram(name).merge(histogram)


def synthetic_latencies(n, worker=0):
    out = []
    for i in range(n):
        x = (i * 2654435761 + worker * 97) % 10_000
        out.append(0.001 + (x / 10_000.0) ** 3 * 0.25)
    return out


def test_counter_accumulates_and_rejects_negative():
    metrics = Metrics()
    metrics.inc("tcp.retransmits")
    metrics.inc("tcp.retransmits", 2)
    assert metrics.value("tcp.retransmits") == 3
    with pytest.raises(ValueError):
        metrics.inc("tcp.retransmits", -1)


def test_histogram_statistics():
    metrics = Metrics()
    for value in (1.0, 2.0, 3.0, 10.0):
        metrics.observe("lat", value)
    histogram = metrics.histogram("lat")
    assert histogram.count == 4
    assert histogram.sum == 16.0
    assert histogram.mean == 4.0
    assert histogram.median == 2.5
    assert histogram.min == 1.0 and histogram.max == 10.0
    assert histogram.quantile(1.0) == 10.0
    assert histogram.quantile(0.0) == 1.0


def test_instruments_are_lazily_created_and_stable():
    metrics = Metrics()
    assert metrics.histogram("b") is metrics.histogram("b")
    metrics.inc("a", 0)
    assert metrics.names() == ["a", "b"]
    assert metrics.snapshot()["counters"] == {"a": 0.0}


def test_value_raises_on_unknown_name():
    with pytest.raises(KeyError):
        Metrics().value("nope")


def test_counters_with_prefix_strips_prefix():
    metrics = Metrics()
    metrics.inc("cpu.client.libssl", 1.0)
    metrics.inc("cpu.client.libcrypto", 2.0)
    metrics.inc("cpu.server.libssl", 9.0)
    assert metrics.counters_with_prefix("cpu.client.") == {
        "libssl": 1.0, "libcrypto": 2.0}


def test_merge_folds_all_instrument_kinds():
    a, b = Metrics(), Metrics()
    a.inc("hits", 1)
    b.inc("hits", 2)
    b.observe("lat", 0.5)
    a.merge_snapshot(b.snapshot())
    assert a.value("hits") == 3
    assert a.histogram("lat").samples == [0.5]
    assert list(a.snapshot()) == ["counters", "histograms"]


def test_merge_snapshot_rejects_a_negative_counter():
    with pytest.raises(ValueError, match="only go up"):
        Metrics().merge_snapshot({"counters": {"hits": -1.0}})


def test_snapshot_shape_and_sorting():
    metrics = Metrics()
    metrics.inc("z", 1)
    metrics.inc("a", 1)
    metrics.observe("lat", 2.0)
    snapshot = metrics.snapshot()
    assert list(snapshot["counters"]) == ["a", "z"]
    assert snapshot["histograms"]["lat"]["count"] == 1
    assert set(snapshot["histograms"]["lat"]) == {
        "count", "sum", "min", "max", "mean", "median", "p90", "p99", "samples"}
    assert snapshot["histograms"]["lat"]["samples"] == [2.0]


def test_merge_snapshot_is_inverse_of_snapshot():
    source = Metrics()
    source.inc("hits", 3)
    source.observe("lat", 0.5)
    source.observe("lat", 1.5)

    via_merge, via_snapshot = Metrics(), Metrics()
    via_merge.inc("hits", 1)
    via_snapshot.inc("hits", 1)
    fold(via_merge, source)
    via_snapshot.merge_snapshot(source.snapshot())
    assert via_snapshot.snapshot() == via_merge.snapshot()
    assert via_snapshot.histogram("lat").samples == [0.5, 1.5]


def test_histogram_quantile_uses_cached_sorted_view():
    histogram = Histogram("lat")
    for v in (3.0, 1.0, 2.0):
        histogram.observe(v)
    assert histogram.quantile(0.5) == 2.0
    assert histogram._sorted == [1.0, 2.0, 3.0]  # cached after first call
    histogram.observe(0.5)                        # invalidates the cache
    assert histogram._sorted is None
    assert histogram.quantile(0.0) == 0.5
    assert histogram.samples == [3.0, 1.0, 2.0, 0.5]  # stream order intact


def test_histogram_spills_to_constant_memory():
    histogram = Histogram("lat", retention=100)
    values = synthetic_latencies(5000)
    for v in values:
        histogram.observe(v)
    assert histogram.spilled
    assert histogram.samples == []                 # raw samples released
    assert len(histogram.sketch.buckets) < 1000    # log-bucketed, not per-sample
    assert histogram.count == 5000
    assert histogram.sum == pytest.approx(sum(values))
    assert histogram.min == min(values) and histogram.max == max(values)
    ordered = sorted(values)
    for q in (0.5, 0.9, 0.99):
        exact = ordered[round(q * (len(ordered) - 1))]
        assert abs(histogram.quantile(q) - exact) <= (
            DEFAULT_RELATIVE_ACCURACY * exact)


def test_histogram_spill_is_transparent_to_statistics():
    exact = Histogram("lat", retention=10_000)
    spilled = Histogram("lat", retention=32)
    for v in synthetic_latencies(1000):
        exact.observe(v)
        spilled.observe(v)
    assert not exact.spilled and spilled.spilled
    assert spilled.count == exact.count
    assert spilled.sum == exact.sum
    assert spilled.mean == pytest.approx(exact.mean)
    assert spilled.median == pytest.approx(exact.median, rel=0.011)


def test_histogram_merge_spills_when_combined_exceeds_retention():
    a = Histogram("lat", retention=100)
    b = Histogram("lat", retention=100)
    for v in synthetic_latencies(80, worker=0):
        a.observe(v)
    for v in synthetic_latencies(80, worker=1):
        b.observe(v)
    a.merge(b)
    assert a.spilled and a.count == 160
    assert a.samples == []


def test_merge_equals_merge_snapshot_when_spilled():
    # the --jobs bit-identity contract: shipping a spilled histogram as a
    # snapshot and re-merging reconstructs the exact same state as
    # Histogram.merge in-process
    def build(worker):
        metrics = Metrics(retention=64)
        for v in synthetic_latencies(300, worker=worker):
            metrics.observe("lat", v)
        metrics.inc("handshake.count", 300)
        return metrics

    via_merge, via_snapshot = Metrics(retention=64), Metrics(retention=64)
    for worker in range(3):
        fold(via_merge, build(worker))
        via_snapshot.merge_snapshot(build(worker).snapshot())
    assert via_merge.snapshot() == via_snapshot.snapshot()
    assert via_merge.histogram("lat").spilled


def test_merge_snapshot_empty_histograms():
    source = Metrics()
    source.histogram("lat")  # created, never observed
    target = Metrics()
    target.merge_snapshot(source.snapshot())
    histogram = target.histogram("lat")
    assert histogram.count == 0
    assert histogram.quantile(0.5) == 0.0
    assert target.snapshot()["histograms"]["lat"]["count"] == 0


def test_snapshot_of_a_merged_registry_round_trips():
    # a merged histogram's sum adds its parts' sums, which need not equal
    # its samples added in order: a re-shipped aggregate (the CLI's
    # --metrics file) must keep it
    rng = random.Random(3)
    aggregate = Metrics()
    for _ in range(5):
        part = Metrics()
        for _ in range(rng.randrange(1, 60)):
            part.observe("lat", rng.random() * 0.3 + rng.choice([0, 1e3, 1e-6]))
        aggregate.merge_snapshot(part.snapshot())
    shipped = Metrics()
    shipped.merge_snapshot(aggregate.snapshot())
    assert shipped.snapshot() == aggregate.snapshot()


def test_streaming_snapshot_round_trips_the_sketch():
    source = Metrics(retention=16)
    for v in synthetic_latencies(200):
        source.observe("lat", v)
    entry = source.snapshot()["histograms"]["lat"]
    assert entry["samples"] == []
    # a spilled entry carries the sketch's counts and nothing else
    assert sorted(entry) == ["count", "max", "mean", "median", "min", "p90",
                             "p99", "samples", "streaming", "sum"]
    assert list(entry["streaming"]) == ["sketch"]
    assert sorted(entry["streaming"]["sketch"]) == [
        "buckets", "negative", "zeros"]
    clone = Histogram.from_snapshot_entry("lat", entry, retention=16)
    assert clone.snapshot_entry() == entry


def test_spilled_state_is_blind_to_stream_order():
    # sketch counts depend only on the observed multiset; sum and mean
    # are left out, as they accumulate in stream order
    values = synthetic_latencies(3 * FOLD_CHUNK + 37) + [0.0, -0.5, 0.0]
    shuffled = list(values)
    random.Random(7).shuffle(shuffled)
    forward, permuted = Histogram("lat"), Histogram("lat")
    for value in values:
        forward.observe(value)
    for value in shuffled:
        permuted.observe(value)
    assert forward.spilled and permuted.spilled
    assert (forward.snapshot_entry()["streaming"]
            == permuted.snapshot_entry()["streaming"])

    def stats(h):
        return (h.count, h.min, h.max, h.median, h.quantile(0.9),
                h.quantile(0.99))

    assert stats(forward) == stats(permuted)


def test_synthetic_100k_campaign_streams_bit_identically_across_jobs():
    """Acceptance: 100k handshakes, O(1) memory, jobs=1 == jobs=4.

    Checks the executor's aggregation over the same 100k observations:
    four worker registries folded in config order with Histogram.merge
    in-process (the oracle) vs shipped as snapshots and merged with
    merge_snapshot (jobs=4). Quantiles must agree bit-for-bit between the paths and
    with the exact sorted-list answer within the sketch's error bound.
    """
    retention = 4096
    per_worker = 25_000
    streams = [synthetic_latencies(per_worker, worker=w) for w in range(4)]

    serial = Metrics(retention=retention)
    for stream in streams:
        worker = Metrics(retention=retention)
        for v in stream:
            worker.observe("handshake.total", v)
        fold(serial, worker)

    parallel = Metrics(retention=retention)
    snapshots = []
    for stream in streams:
        worker = Metrics(retention=retention)
        for v in stream:
            worker.observe("handshake.total", v)
        snapshots.append(worker.snapshot())
    for snapshot in snapshots:
        parallel.merge_snapshot(snapshot)

    assert serial.snapshot() == parallel.snapshot()

    histogram = serial.histogram("handshake.total")
    assert histogram.count == 100_000
    assert histogram.spilled and histogram.samples == []
    all_values = sorted(v for stream in streams for v in stream)
    for q in (0.5, 0.9, 0.99):
        exact = all_values[round(q * (len(all_values) - 1))]
        assert abs(histogram.quantile(q) - exact) <= (
            DEFAULT_RELATIVE_ACCURACY * exact)


def test_null_metrics_swallows_everything():
    assert NULL_METRICS.enabled is False
    NULL_METRICS.inc("x")
    NULL_METRICS.observe("z", 2)
    NULL_METRICS.histogram("z").observe_many([1.0, 2.0])
    NULL_METRICS.merge_snapshot({"counters": {"x": 5.0}})
    assert NULL_METRICS.histogram("z").count == 0
    assert NULL_METRICS.names() == []
    assert NULL_METRICS.counters_with_prefix("x") == {}
    assert NULL_METRICS.snapshot() == {"counters": {}, "histograms": {}}


# -- batched observation -----------------------------------------------------
# observe_many and the post-spill pending buffer change how values reach
# the sketch, never the state they leave behind.

def _scalar(retention, values):
    metrics = Metrics(retention=retention)
    histogram = metrics.histogram("lat")
    for value in values:
        histogram.observe(value)
    return metrics


def _batched(retention, values, sizes, as_array=False):
    metrics = Metrics(retention=retention)
    histogram = metrics.histogram("lat")
    start, turn = 0, 0
    while start < len(values):
        size = sizes[turn % len(sizes)]
        batch = values[start:start + size]
        if as_array:
            batch = np.array(batch)
        histogram.observe_many(batch)
        start, turn = start + size, turn + 1
    return metrics


def _dump(metrics):
    return json.dumps(metrics.snapshot(), sort_keys=True)


@settings(max_examples=100)
@example(pool=[0.5, -0.0, 2.25, 0.0, -1.5, 1e-3], length=9000,
         sizes=[1000, 3, 4097], cut=0.4, retention=4096, as_array=False)
# an ndarray batch straddling the window, -0.0/0.0 ties at min and max
@example(pool=[0.0, -0.0], length=40, sizes=[5, 30], cut=0.5, retention=8,
         as_array=True)
# a batch that fills the window exactly (no spill), then one past it
@example(pool=[3.0, 1.0, 2.0], length=12, sizes=[8, 4], cut=0.0,
         retention=8, as_array=False)
# a batch of retention + 1: spills at the same sample as observe would
@example(pool=[3.0, 1.0, 2.0], length=12, sizes=[9, 3], cut=1.0,
         retention=8, as_array=True)
@given(pool=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1,
                     max_size=64),
       length=st.integers(min_value=0, max_value=9000),
       sizes=st.lists(st.integers(min_value=1, max_value=5000), min_size=1,
                      max_size=8),
       cut=st.floats(min_value=0.0, max_value=1.0),
       retention=st.sampled_from([1, 8, 4096]),
       as_array=st.booleans())
def test_batching_is_invisible_in_the_snapshot(pool, length, sizes, cut,
                                               retention, as_array):
    # the pool repeats so a stream can pass the 4096 retention window
    values = [pool[(i * 7919) % len(pool)] for i in range(length)]
    expected = _dump(_scalar(retention, values))
    assert _dump(_batched(retention, values, sizes, as_array)) == expected

    split = round(cut * length)
    halves = (values[:split], values[split:])
    merged = []
    for build in (lambda v: _scalar(retention, v),
                  lambda v: _batched(retention, v, sizes, as_array)):
        first, second = (build(half) for half in halves)
        fold(first, second)
        merged.append(_dump(first))
        first, second = (build(half) for half in halves)
        first.merge_snapshot(second.snapshot())
        merged.append(_dump(first))
    assert len(set(merged)) == 1
    if split in (0, length):                 # nothing to merge: the stream
        assert merged[0] == expected


def _pending_histogram(retention=8, extra=5):
    """Spilled, with ``extra`` values waiting in the pending buffer."""
    histogram = Histogram("lat", retention=retention)
    for value in synthetic_latencies(retention + 1 + extra):
        histogram.observe(value)
    assert histogram.spilled and len(histogram._pending) == extra
    return histogram


READS = {
    "sketch": lambda h: h.sketch,
    "median": lambda h: h.median,
    "quantile": lambda h: h.quantile(0.99),
    "snapshot_entry": lambda h: h.snapshot_entry(),
    "merge_as_self": lambda h: h.merge(Histogram("lat", retention=8)),
    "merge_as_other": lambda h: Histogram("lat", retention=8).merge(h),
}


@pytest.mark.parametrize("read", sorted(READS))
def test_every_read_path_folds_the_pending_buffer(read):
    histogram = _pending_histogram()
    READS[read](histogram)
    assert histogram._pending == []
    assert histogram._sketch.count == histogram.count


def test_reads_interleaved_with_observes_change_nothing():
    values = synthetic_latencies(3 * FOLD_CHUNK + 37)
    quiet, noisy = Histogram("lat", retention=64), Histogram("lat", retention=64)
    for i, value in enumerate(values):
        quiet.observe(value)
        noisy.observe(value)
        if i % 97 == 0:
            READS[sorted(READS)[i % len(READS)]](noisy)
            assert noisy._sketch is None or noisy._sketch.count == noisy.count
    assert noisy.snapshot_entry() == quiet.snapshot_entry()


def test_merge_reads_a_pending_other():
    target = Histogram("lat", retention=8)
    target.merge(_pending_histogram(extra=5))
    assert target.sketch.count == target.count == 14
    assert target.snapshot_entry()["streaming"]["sketch"] == \
        _pending_histogram(extra=5).snapshot_entry()["streaming"]["sketch"]


def test_importing_obs_loads_no_numpy():
    # every benchmark child imports repro.obs; numpy there would cost
    # ~13 MB of RSS in workloads that never fold a stream
    code = ("import sys, repro.obs, repro.obs.metrics, repro.obs.sketch; "
            "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"


def test_unspilled_observe_many_loads_no_numpy():
    # the exact window fills in pure Python: per-handshake testbed
    # batches never pay numpy's import
    code = ("import sys; from repro.obs.metrics import Metrics; "
            "h = Metrics(retention=8).histogram('lat'); "
            "h.observe_many([0.5, -0.0, 2.0]); h.observe_many([1.0] * 5); "
            "assert not h.spilled and h.count == 8; "
            "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"
