"""Quantile sketch: accuracy, bucket rule, collapse, merges."""

import math

import numpy as np
import pytest

from repro.obs.sketch import (
    _GAMMA,
    _LOG_GAMMA,
    DEFAULT_MAX_BUCKETS,
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
    _bucket_indices,
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


def test_sketch_collapse_bounds_memory_and_keeps_high_quantiles():
    # forty decades at alpha=1% span ~4,600 buckets, past the cap
    values = np.geomspace(1e-20, 1e20, 20_000)
    sketch = QuantileSketch()
    sketch.add_many(values)
    assert len(sketch.buckets) == DEFAULT_MAX_BUCKETS
    assert sketch.count == values.size
    # only the lowest buckets fold: the rest of the distribution keeps
    # the sketch's error bound
    for q in (0.5, 0.9, 0.99, 1.0):
        exact = exact_quantile(values.tolist(), q)
        assert abs(sketch.quantile(q) - exact) <= (
            DEFAULT_RELATIVE_ACCURACY * exact)


def test_sketch_state_round_trip():
    sketch = QuantileSketch()
    for v in (-2.0, 0.0, 0.5, 3.0, 3.0):
        sketch.add(v)
    clone = QuantileSketch.from_state(sketch.state())
    assert clone.state() == sketch.state()
    assert clone.count == sketch.count
    assert clone.quantile(0.9) == sketch.quantile(0.9)


def test_bucket_index_matches_the_math_log_rule():
    # np.log and math.log differ in the last bit for some inputs; magnitudes
    # at and next to every bucket edge must still land where math.log puts them
    edges = np.array([_GAMMA ** k for k in range(-2000, 2000)])
    # edge magnitudes where one x86-64 numpy build's np.log put them in
    # the neighbouring bucket
    disputed = np.array([2.42999241469701e-43, 2.276872031774532e-33,
                         1.2120113842591075e+27, 1.5176635947293917e+41,
                         3.0333575644899535e+44])
    magnitudes = np.concatenate(
        [np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf),
         disputed])
    expected = [math.ceil(math.log(m) / _LOG_GAMMA)
                for m in magnitudes.tolist()]
    assert _bucket_indices(magnitudes).tolist() == expected


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
