"""Mergeable, constant-memory streaming instruments.

Two building blocks let :class:`repro.obs.metrics.Histogram` survive the
ROADMAP's ≥1M-handshake campaigns without retaining every sample:

- :class:`QuantileSketch` — a DDSketch-style log-bucketed quantile sketch.
  A value ``v > 0`` lands in bucket ``ceil(log_γ(v))`` with
  ``γ = (1+α)/(1-α)``; reporting the bucket's log-midpoint bounds the
  *relative* error of any quantile by ``α`` (default 1%). Buckets are
  plain counts, so merging two sketches is bucket-wise addition —
  associative, commutative, and bit-identical however a campaign was
  sharded across workers.

- :class:`ReservoirSample` — a deterministic bottom-k sample of the raw
  values. Every observation is assigned a priority once, at observation
  time — the splitmix64 mix of its (stream index, float64 bits) pair —
  and the reservoir keeps the k entries with the smallest priorities.
  Merging is "bottom-k of the multiset union", which is associative and
  independent of merge order or process boundaries; no ambient
  randomness is drawn (the DET002/DET003 contracts hold), yet the kept
  set behaves like a uniform sample for diagnostics. Identical (index,
  value) pairs from different streams collide on priority and tie-break
  on value, a documented bias that is irrelevant for the debugging peeks
  this backs.

Both take values in batches (``add_many``): the bucket index and the
priority are numpy folds over a whole chunk. The scalar paths share
them — ``QuantileSketch.add`` wraps the batch path and :func:`priority`
runs the same splitmix64 code on Python ints — so there is one bucket
rule and one priority mix. numpy is imported inside the folds, never at
module import, so importing :mod:`repro.obs` stays numpy-free.

Both carry their state as JSON-safe plain structures (:meth:`state` /
:meth:`from_state`) so metrics snapshots remain lossless across the
worker→leader shipping path and the on-disk result cache.
"""

from __future__ import annotations

import bisect
import math
import struct

DEFAULT_RELATIVE_ACCURACY = 0.01
DEFAULT_RESERVOIR_K = 256

# Backstop against pathological value ranges: a DDSketch over doubles in
# (1e-12, 1e12) needs ~2800 buckets at alpha=0.01; campaigns use a few
# hundred. Exceeding the cap collapses the lowest buckets together
# (deterministically), trading accuracy at the extreme low tail for a
# hard memory bound.
DEFAULT_MAX_BUCKETS = 4096


# A ratio log(m)/log(gamma) this close to an integer may round to the
# other bucket when np.log and math.log differ in the last bit; those
# rare magnitudes are settled with math.log, the reference rule.
_BUCKET_EDGE = 1e-9

_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    """The splitmix64 finalizer on a Python int or a uint64 array."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix(index, bits):
    """Priority of (stream index, float64 bits): ints or uint64 arrays."""
    return _splitmix64(_splitmix64(index) ^ bits)


def priority(index: int, value: float) -> int:
    """Deterministic 64-bit priority of one observation.

    Fixed at observation time and carried through every merge, so the
    bottom-k selection is a pure function of the observed multiset of
    (index, value) pairs — not of sharding, merge order, or
    ``PYTHONHASHSEED``.
    """
    bits, = struct.unpack("<Q", struct.pack("<d", value))
    return _mix(index, bits)


def _bucket_indices(magnitudes, log_gamma: float):
    """``ceil(log_gamma(m))`` for a float64 array of magnitudes ``m > 0``."""
    import numpy as np

    ratio = np.log(magnitudes) / log_gamma
    indices = np.ceil(ratio).astype(np.int64)
    edge = np.flatnonzero(np.abs(ratio - np.rint(ratio)) < _BUCKET_EDGE)
    for i in edge.tolist():
        indices[i] = math.ceil(math.log(magnitudes[i]) / log_gamma)
    return indices


class QuantileSketch:
    """Log-bucketed quantile sketch with a relative-error bound.

    ``quantile(q)`` returns an estimate ``e`` of the exact rank-``q``
    sample ``x`` with ``|e - x| <= relative_accuracy * |x|`` (zero is
    returned exactly). Memory is bounded by ``max_buckets`` bucket
    counts regardless of how many values are observed.
    """

    __slots__ = ("relative_accuracy", "gamma", "_log_gamma", "max_buckets",
                 "count", "buckets", "negative", "zeros")

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                 max_buckets: int = DEFAULT_MAX_BUCKETS):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy!r}")
        self.relative_accuracy = relative_accuracy
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self.gamma)
        self.max_buckets = max_buckets
        self.count = 0
        self.buckets: dict[int, int] = {}     # positive values
        self.negative: dict[int, int] = {}    # mirrored for v < 0
        self.zeros = 0

    def _estimate(self, index: int) -> float:
        # midpoint (in log space) of bucket (gamma^(i-1), gamma^i]:
        # max relative error (gamma-1)/(gamma+1) == relative_accuracy
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

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
            indices = _bucket_indices(magnitudes, self._log_gamma)
            low = int(indices.min())
            counts = np.bincount(indices - low)
            seen = np.flatnonzero(counts)
            for index, count in zip((seen + low).tolist(),
                                    counts[seen].tolist()):
                table[index] = table.get(index, 0) + count
            if len(table) > self.max_buckets:
                self._collapse(table)

    def _collapse(self, table: dict[int, int]) -> None:
        # fold the lowest bucket into its neighbour above: the low tail
        # (smallest magnitudes) loses accuracy first, as in DDSketch
        while len(table) > self.max_buckets:
            low, second = sorted(table)[:2]
            table[second] += table.pop(low)

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
                return -self._estimate(index)
        remaining -= self.zeros
        if remaining <= 0:
            return 0.0
        for index in sorted(self.buckets):
            remaining -= self.buckets[index]
            if remaining <= 0:
                return self._estimate(index)
        # unreachable unless counts were tampered with; clamp to the top
        return self._estimate(max(self.buckets)) if self.buckets else 0.0

    def merge(self, other: "QuantileSketch") -> None:
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different relative accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})")
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        for index, count in other.negative.items():
            self.negative[index] = self.negative.get(index, 0) + count
        self.zeros += other.zeros
        self.count += other.count
        if len(self.buckets) > self.max_buckets:
            self._collapse(self.buckets)
        if len(self.negative) > self.max_buckets:
            self._collapse(self.negative)

    def state(self) -> dict:
        """JSON-safe, deterministically ordered dump of the full state."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "zeros": self.zeros,
            "buckets": [[index, self.buckets[index]]
                        for index in sorted(self.buckets)],
            "negative": [[index, self.negative[index]]
                         for index in sorted(self.negative)],
        }

    @classmethod
    def from_state(cls, state: dict,
                   max_buckets: int = DEFAULT_MAX_BUCKETS) -> "QuantileSketch":
        sketch = cls(relative_accuracy=state["relative_accuracy"],
                     max_buckets=max_buckets)
        sketch.zeros = int(state.get("zeros", 0))
        sketch.buckets = {int(i): int(c) for i, c in state.get("buckets", ())}
        sketch.negative = {int(i): int(c) for i, c in state.get("negative", ())}
        sketch.count = (sketch.zeros + sum(sketch.buckets.values())
                        + sum(sketch.negative.values()))
        return sketch


class ReservoirSample:
    """Deterministic bottom-k sample of raw observed values."""

    __slots__ = ("k", "entries")

    def __init__(self, k: int = DEFAULT_RESERVOIR_K):
        if k < 1:
            raise ValueError(f"reservoir size must be >= 1, got {k!r}")
        self.k = k
        self.entries: list[tuple[int, float]] = []  # (priority, value), sorted

    def add(self, index: int, value: float) -> None:
        entry = (priority(index, value), float(value))
        if len(self.entries) < self.k or entry < self.entries[-1]:
            bisect.insort(self.entries, entry)
            del self.entries[self.k:]

    def add_many(self, start: int, values) -> None:
        """Offer ``values`` observed at stream positions ``start, start+1, ...``.

        Candidates above the current k-th priority cannot enter; the
        rest are cut to their own bottom k by (priority, value) before
        the merge with the kept entries, which leaves the same bottom k
        as one ``add`` per value.
        """
        import numpy as np

        values = np.ascontiguousarray(values, dtype=np.float64)
        if not values.size:
            return
        indices = np.arange(start, start + values.size, dtype=np.uint64)
        priorities = _mix(indices, values.view(np.uint64))
        if len(self.entries) >= self.k:
            keep = priorities <= np.uint64(self.entries[-1][0])
            priorities, values = priorities[keep], values[keep]
        if priorities.size > self.k:
            keep = priorities <= np.partition(priorities, self.k - 1)[self.k - 1]
            priorities, values = priorities[keep], values[keep]
        order = np.lexsort((values, priorities))[:self.k]
        fresh = zip(priorities[order].tolist(), values[order].tolist())
        self.entries = sorted([*self.entries, *fresh])[:self.k]

    def merge(self, other: "ReservoirSample") -> None:
        merged = sorted(self.entries + other.entries)
        self.entries = merged[:self.k]

    def values(self) -> list[float]:
        """The kept raw values (selection order, not observation order)."""
        return [value for _, value in self.entries]

    def state(self) -> list[list]:
        return [[entry_priority, value] for entry_priority, value in self.entries]

    @classmethod
    def from_state(cls, state: list, k: int = DEFAULT_RESERVOIR_K) -> "ReservoirSample":
        reservoir = cls(k=k)
        entries = sorted((int(p), float(v)) for p, v in state)
        reservoir.entries = entries[:k]
        return reservoir
