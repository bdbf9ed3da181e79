"""Mergeable, constant-memory quantile sketch.

:class:`QuantileSketch` lets :class:`repro.obs.metrics.Histogram`
survive the ROADMAP's ≥1M-handshake campaigns without retaining every
sample. It is a DDSketch-style log-bucketed sketch: a value ``v > 0``
lands in bucket ``ceil(log_γ(v))`` with ``γ = (1+α)/(1-α)``, and
reporting the bucket's log-midpoint bounds the *relative* error of any
quantile by ``α`` (:data:`DEFAULT_RELATIVE_ACCURACY`, 1%). Buckets are
plain counts, so a sketch is a function of the observed multiset alone:
merging two sketches is bucket-wise addition — associative,
commutative, and bit-identical however a campaign was sharded across
workers or in what order its values arrived.

It takes values in batches (``add_many``): the bucket index is a numpy
fold over a whole chunk, and ``add`` wraps the batch path, so there is
one bucket rule. numpy is imported inside the fold, never at module
import, so importing :mod:`repro.obs` stays numpy-free.

The sketch carries its state as a JSON-safe plain structure
(:meth:`~QuantileSketch.state` / :meth:`~QuantileSketch.from_state`) so
metrics snapshots remain lossless across the worker→leader shipping
path and the on-disk result cache.
"""

from __future__ import annotations

import math

DEFAULT_RELATIVE_ACCURACY = 0.01

# Backstop against pathological value ranges: a DDSketch over doubles in
# (1e-12, 1e12) needs ~2800 buckets at alpha=0.01; campaigns use a few
# hundred. Exceeding the cap collapses the lowest buckets together
# (deterministically), trading accuracy at the extreme low tail for a
# hard memory bound.
DEFAULT_MAX_BUCKETS = 4096

_GAMMA = (1.0 + DEFAULT_RELATIVE_ACCURACY) / (1.0 - DEFAULT_RELATIVE_ACCURACY)
_LOG_GAMMA = math.log(_GAMMA)

# A ratio log(m)/log(gamma) this close to an integer may round to the
# other bucket when np.log and math.log differ in the last bit; those
# rare magnitudes are settled with math.log, the reference rule.
_BUCKET_EDGE = 1e-9


def _bucket_indices(magnitudes):
    """``ceil(log_gamma(m))`` for a float64 array of magnitudes ``m > 0``."""
    import numpy as np

    ratio = np.log(magnitudes) / _LOG_GAMMA
    indices = np.ceil(ratio).astype(np.int64)
    edge = np.flatnonzero(np.abs(ratio - np.rint(ratio)) < _BUCKET_EDGE)
    for i in edge.tolist():
        indices[i] = math.ceil(math.log(magnitudes[i]) / _LOG_GAMMA)
    return indices


def _estimate(index: int) -> float:
    # midpoint (in log space) of bucket (gamma^(i-1), gamma^i]: max
    # relative error (gamma-1)/(gamma+1) == DEFAULT_RELATIVE_ACCURACY
    return 2.0 * _GAMMA ** index / (_GAMMA + 1.0)


def _collapse(table: dict[int, int]) -> None:
    # past the cap, fold the lowest bucket into its neighbour above: the
    # low tail (smallest magnitudes) loses accuracy first, as in DDSketch
    while len(table) > DEFAULT_MAX_BUCKETS:
        low, second = sorted(table)[:2]
        table[second] += table.pop(low)


class QuantileSketch:
    """Log-bucketed quantile sketch with a relative-error bound.

    ``quantile(q)`` returns an estimate ``e`` of the exact rank-``q``
    sample ``x`` with ``|e - x| <= DEFAULT_RELATIVE_ACCURACY * |x|``
    (zero is returned exactly). Memory is bounded by
    :data:`DEFAULT_MAX_BUCKETS` bucket counts per sign regardless of how
    many values are observed.
    """

    __slots__ = ("count", "buckets", "negative", "zeros")

    def __init__(self):
        self.count = 0
        self.buckets: dict[int, int] = {}     # positive values
        self.negative: dict[int, int] = {}    # mirrored for v < 0
        self.zeros = 0

    def add(self, value: float) -> None:
        self.add_many((value,))

    def add_many(self, values) -> None:
        """Count every value of a batch; the order within it is irrelevant."""
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        positive = values[values > 0.0]
        negative = values[values < 0.0]
        self.zeros += values.size - positive.size - negative.size
        self.count += values.size
        for table, magnitudes in ((self.buckets, positive),
                                  (self.negative, -negative)):
            if not magnitudes.size:
                continue
            indices = _bucket_indices(magnitudes)
            low = int(indices.min())
            counts = np.bincount(indices - low)
            seen = np.flatnonzero(counts)
            for index, count in zip((seen + low).tolist(),
                                    counts[seen].tolist()):
                table[index] = table.get(index, 0) + count
            _collapse(table)

    def quantile(self, q: float) -> float:
        """Estimate the sample the exact histogram would report at ``q``.

        Uses the same nearest-rank rule as the exact list-backed path
        (``round(q * (count - 1))``), so sketch and exact answers are
        directly comparable.
        """
        if self.count == 0:
            return 0.0
        rank = min(self.count - 1, max(0, round(q * (self.count - 1))))
        remaining = rank + 1
        for index in sorted(self.negative, reverse=True):  # ascending value
            remaining -= self.negative[index]
            if remaining <= 0:
                return -_estimate(index)
        remaining -= self.zeros
        if remaining <= 0:
            return 0.0
        for index in sorted(self.buckets):
            remaining -= self.buckets[index]
            if remaining <= 0:
                return _estimate(index)
        # unreachable unless counts were tampered with; clamp to the top
        return _estimate(max(self.buckets)) if self.buckets else 0.0

    def merge(self, other: "QuantileSketch") -> None:
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        for index, count in other.negative.items():
            self.negative[index] = self.negative.get(index, 0) + count
        self.zeros += other.zeros
        self.count += other.count
        _collapse(self.buckets)
        _collapse(self.negative)

    def state(self) -> dict:
        """JSON-safe, deterministically ordered dump of the full state."""
        return {
            "zeros": self.zeros,
            "buckets": [[index, self.buckets[index]]
                        for index in sorted(self.buckets)],
            "negative": [[index, self.negative[index]]
                         for index in sorted(self.negative)],
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSketch":
        sketch = cls()
        sketch.zeros = int(state.get("zeros", 0))
        sketch.buckets = {int(i): int(c) for i, c in state.get("buckets", ())}
        sketch.negative = {int(i): int(c) for i, c in state.get("negative", ())}
        sketch.count = (sketch.zeros + sum(sketch.buckets.values())
                        + sum(sketch.negative.values()))
        return sketch
