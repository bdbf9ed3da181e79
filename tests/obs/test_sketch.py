"""Streaming instruments: sketch accuracy, reservoir determinism, merges."""

import math
import random

import numpy as np
import pytest

from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
    ReservoirSample,
    _bucket_indices,
    _mix,
    _splitmix64,
    priority,
)


def synthetic_latencies(n, worker=0):
    """Deterministic positive 'latency' stream with a heavy-ish tail."""
    out = []
    for i in range(n):
        x = (i * 2654435761 + worker * 97) % 10_000
        out.append(0.001 + (x / 10_000.0) ** 3 * 0.25)
    return out


def exact_quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


# -- QuantileSketch ----------------------------------------------------------

def test_sketch_relative_error_bound():
    values = synthetic_latencies(50_000)
    sketch = QuantileSketch()
    for v in values:
        sketch.add(v)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        exact = exact_quantile(values, q)
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) <= DEFAULT_RELATIVE_ACCURACY * abs(exact)


def test_sketch_handles_zero_and_negative_values():
    sketch = QuantileSketch()
    for v in (-4.0, -1.0, 0.0, 0.0, 1.0, 4.0):
        sketch.add(v)
    assert sketch.count == 6
    assert sketch.quantile(0.0) == pytest.approx(-4.0, rel=0.011)
    assert sketch.quantile(0.5) == 0.0
    assert sketch.quantile(1.0) == pytest.approx(4.0, rel=0.011)


def test_sketch_empty_returns_zero():
    assert QuantileSketch().quantile(0.5) == 0.0


def test_sketch_merge_matches_single_stream_bitwise():
    merged, single = QuantileSketch(), QuantileSketch()
    parts = [QuantileSketch() for _ in range(3)]
    for worker, part in enumerate(parts):
        for v in synthetic_latencies(1000, worker=worker):
            part.add(v)
            single.add(v)
    for part in parts:
        merged.merge(part)
    assert merged.state() == single.state()
    assert merged.count == single.count


def test_sketch_merge_is_associative_and_commutative():
    def build(worker):
        sketch = QuantileSketch()
        for v in synthetic_latencies(500, worker=worker):
            sketch.add(v)
        return sketch

    a_bc = build(0)
    bc = build(1)
    bc.merge(build(2))
    a_bc.merge(bc)

    ab_c = build(0)
    ab_c.merge(build(1))
    ab_c.merge(build(2))

    cba = build(2)
    cba.merge(build(1))
    cba.merge(build(0))

    assert a_bc.state() == ab_c.state() == cba.state()


def test_sketch_merge_rejects_mismatched_accuracy():
    with pytest.raises(ValueError):
        QuantileSketch(relative_accuracy=0.01).merge(
            QuantileSketch(relative_accuracy=0.02))


def test_sketch_collapse_bounds_memory_and_keeps_high_quantiles():
    sketch = QuantileSketch(max_buckets=32)
    values = [1.5 ** i for i in range(-40, 41)]  # ~81 distinct buckets
    for v in values:
        sketch.add(v)
    assert len(sketch.buckets) <= 32
    assert sketch.count == len(values)
    # the top of the distribution survives collapse unscathed
    assert sketch.quantile(1.0) == pytest.approx(max(values), rel=0.011)


def test_sketch_state_round_trip():
    sketch = QuantileSketch()
    for v in (-2.0, 0.0, 0.5, 3.0, 3.0):
        sketch.add(v)
    clone = QuantileSketch.from_state(sketch.state())
    assert clone.state() == sketch.state()
    assert clone.count == sketch.count
    assert clone.quantile(0.9) == sketch.quantile(0.9)


# -- ReservoirSample ---------------------------------------------------------

def test_priority_is_deterministic_and_index_sensitive():
    assert priority(3, 1.25) == priority(3, 1.25)
    assert priority(3, 1.25) != priority(4, 1.25)
    assert priority(3, 1.25) != priority(3, 1.5)


def test_priority_is_pinned_splitmix64():
    # literal values: a numpy upgrade or a refactor must not silently
    # change which entries a reservoir keeps
    assert _splitmix64(0) == 0xE220A8397B1DCDAF    # published first output
    assert priority(0, 0.0) == 12035550249420947055
    assert priority(1, 1.5) == 18223365353263475353
    assert priority(123456789, -2.25) == 12516257284804165942


def test_scalar_and_vectorized_priorities_agree():
    rng = random.Random(7)
    indices = [rng.randrange(1 << 40) for _ in range(10_000)]
    values = [rng.uniform(-1e6, 1e6) * rng.choice((1e-9, 1.0, 1e9))
              for _ in range(10_000)]
    vectorized = _mix(np.array(indices, dtype=np.uint64),
                      np.array(values).view(np.uint64))
    assert vectorized.tolist() == [priority(i, v)
                                   for i, v in zip(indices, values)]


def test_reservoir_add_many_matches_scalar_adds():
    values = synthetic_latencies(5000)
    scalar, batched = ReservoirSample(k=32), ReservoirSample(k=32)
    for i, v in enumerate(values):
        scalar.add(100 + i, v)
    for start in range(0, 5000, 700):
        batched.add_many(100 + start, values[start:start + 700])
    assert batched.entries == scalar.entries


def test_bucket_index_matches_the_math_log_rule():
    # np.log and math.log differ in the last bit for some inputs; magnitudes
    # at and next to every bucket edge must still land where math.log puts them
    sketch = QuantileSketch()
    edges = np.array([sketch.gamma ** k for k in range(-2000, 2000)])
    # edge magnitudes where one x86-64 numpy build's np.log put them in
    # the neighbouring bucket
    disputed = np.array([2.42999241469701e-43, 2.276872031774532e-33,
                         1.2120113842591075e+27, 1.5176635947293917e+41,
                         3.0333575644899535e+44])
    magnitudes = np.concatenate(
        [np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf),
         disputed])
    expected = [math.ceil(math.log(m) / sketch._log_gamma)
                for m in magnitudes.tolist()]
    assert _bucket_indices(magnitudes, sketch._log_gamma).tolist() == expected


def test_reservoir_keeps_bottom_k_of_union():
    reservoir = ReservoirSample(k=4)
    for i in range(100):
        reservoir.add(i, float(i))
    expected = sorted((priority(i, float(i)), float(i)) for i in range(100))[:4]
    assert reservoir.entries == expected


def test_reservoir_merge_is_associative_and_order_independent():
    def build(worker):
        reservoir = ReservoirSample(k=8)
        for i, v in enumerate(synthetic_latencies(200, worker=worker)):
            reservoir.add(i, v)
        return reservoir

    left = build(0)
    right = build(1)
    right.merge(build(2))
    left.merge(right)

    other = build(2)
    other.merge(build(0))
    other.merge(build(1))

    assert left.entries == other.entries


def test_reservoir_merge_matches_single_process_feed():
    # sharded feed at each shard's own indices == merging the shards
    shards = [ReservoirSample(k=16) for _ in range(4)]
    union = ReservoirSample(k=16)
    for worker, shard in enumerate(shards):
        for i, v in enumerate(synthetic_latencies(100, worker=worker)):
            shard.add(i, v)
    for shard in shards:
        union.merge(shard)
    expected = sorted(
        entry for shard in shards for entry in shard.entries)[:16]
    assert union.entries == expected


def test_reservoir_state_round_trip():
    reservoir = ReservoirSample(k=8)
    for i in range(50):
        reservoir.add(i, i * 0.1)
    clone = ReservoirSample.from_state(reservoir.state(), k=8)
    assert clone.entries == reservoir.entries
    assert clone.values() == reservoir.values()


def test_reservoir_rejects_bad_k():
    with pytest.raises(ValueError):
        ReservoirSample(k=0)


# -- traffic-scale shard merges ----------------------------------------------
# The traffic engine streams ~1M latencies through per-shard sketches and
# merges them on the leader; these tests pin the contract at that scale.

def test_sketch_three_way_shard_merge_at_traffic_scale():
    values = synthetic_latencies(100_000)
    single = QuantileSketch()
    for v in values:
        single.add(v)

    shards = []
    for i in range(3):                      # contiguous time-slices
        shard = QuantileSketch()
        for v in values[i * 40_000:(i + 1) * 40_000]:
            shard.add(v)
        shards.append(shard)
    merged = QuantileSketch()
    for shard in shards:
        merged.merge(shard)

    # sharding must be invisible: identical state, not just close numbers
    assert merged.state() == single.state()
    assert merged.count == 100_000
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = exact_quantile(values, q)
        assert merged.quantile(q) == pytest.approx(
            exact, rel=DEFAULT_RELATIVE_ACCURACY)  # <= 1% by construction


def test_reservoir_shard_merge_order_is_invisible_at_traffic_scale():
    shards = []
    base = 0
    for worker in range(4):
        shard = ReservoirSample()
        values = synthetic_latencies(25_000, worker=worker)
        for offset, v in enumerate(values):
            shard.add(base + offset, v)     # global observation indices
        base += len(values)
        shards.append(shard)

    def merge_in(order):
        merged = ReservoirSample()
        for i in order:
            merged.merge(shards[i])
        return merged

    forward = merge_in([0, 1, 2, 3])
    scrambled = merge_in([2, 0, 3, 1])
    assert forward.state() == scrambled.state()
    assert forward.values() == scrambled.values()
    assert len(forward.values()) == forward.k
