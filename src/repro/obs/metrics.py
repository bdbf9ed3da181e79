"""Named counters and histograms for the simulator.

The seed code accumulated its statistics in ad-hoc dicts scattered across
``ExperimentResult`` and the TCP endpoints; this registry gives every
quantity a stable dotted name (``tcp.client.retransmits``,
``cpu.server.libcrypto``, ``cache.hit``) so campaign code, the CLI, and
tests all read the same instrument. A counter is a float that only goes
up; a histogram is a sample distribution. A counter appears on its first
``inc``, a histogram on first access; both snapshot to plain dicts for
JSON export, and a snapshot is the one thing registries merge:
``merge_snapshot`` folds one in, whether it came from this process, a
worker, a traffic shard or the result cache. Instrument names are dotted
lowercase ``[a-z0-9_.]`` by contract (pqtls-lint OBS001), so prefix
reads and cross-run diffs never fight naming drift.

Histograms are **exact below, streaming above** a retention threshold:
up to :data:`DEFAULT_RETENTION` raw samples are kept (with a cached
sorted view, so repeated ``quantile`` calls don't re-sort), and beyond
that the histogram *spills* — raw samples are dropped and every further
observation feeds a constant-memory
:class:`~repro.obs.sketch.QuantileSketch` (quantiles within a documented
relative-error bound). Sketch counts depend only on the observed
multiset and merge associatively, so worker→leader snapshot shipping in
``repro.core.executor`` is bit-identical at any ``--jobs`` and a
million-handshake campaign holds O(retention) memory per histogram.

``observe_many`` fills the exact window in one pass: the batch's head
becomes a list of floats, ``sum`` adds it left to right with
``functools.reduce`` (sequential IEEE addition, as scalar ``observe``
does; builtin ``sum`` is compensated from CPython 3.12), builtin
``min``/``max`` keep the first extreme as the running comparisons do,
and the samples extend at once — spilling at the same sample scalar
``observe`` would. This branch never imports numpy.

Streaming observations are *folded* in chunks: after the spill, scalar
``observe`` appends to a pending buffer of at most :data:`FOLD_CHUNK`
values, and ``observe_many`` hands a whole batch over at once. One fold
(numpy, imported on first use) feeds a chunk to the sketch; it serves
the spill itself, the pending buffer, batches, merges of unspilled
histograms and snapshot restores. Sketch counts do not depend on how a
stream was chunked or ordered, so batching is invisible in every
snapshot. The buffer is folded before any read of streaming state,
before a merge and before a snapshot.

:data:`NULL_METRICS` mirrors :data:`repro.obs.tracer.NULL_TRACER`:
``enabled`` is False, writes are dropped and the histogram it hands out
swallows observations, so un-observed runs pay nothing beyond an
attribute check.
"""

from __future__ import annotations

import functools
import operator
import statistics

from repro.obs.sketch import QuantileSketch

# Raw samples retained per histogram before it spills to streaming mode.
# Sized so every per-experiment histogram of the paper's campaigns (≤151
# handshake samples, a few thousand TCP flight observations) stays exact,
# while campaign-level aggregates over large sets stream.
DEFAULT_RETENTION = 4096

# Streaming values buffered per histogram before one numpy fold.
FOLD_CHUNK = 4096


class Histogram:
    """Sample distribution: exact to ``retention`` samples, streaming after.

    While unspilled, ``samples`` is the full observation stream in order
    and every statistic is exact (quantiles served from a cached sorted
    view, invalidated on observe). Once the count crosses ``retention``
    the histogram spills: ``samples`` empties, scalars (count/sum/min/
    max) stay exact, and quantiles come from the log-bucketed sketch
    with relative error ≤ ``DEFAULT_RELATIVE_ACCURACY``.
    """

    def __init__(self, name: str, retention: int = DEFAULT_RETENTION):
        self.name = name
        self.retention = retention
        self.samples: list[float] = []
        self._sketch: QuantileSketch | None = None
        self._pending: list[float] = []   # streaming values not yet folded
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._sorted: list[float] | None = None   # cached sorted view

    # -- writes --------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self._sketch is None:
            self.samples.append(value)
            self._sorted = None
            if len(self.samples) > self.retention:
                self._spill()
        else:
            self._pending.append(value)
            if len(self._pending) >= FOLD_CHUNK:
                self._flush()

    def observe_many(self, values) -> None:
        """Observe a sequence of values in order, as ``observe`` would.

        The exact window fills (and spills) at the same sample in one
        pass; past the spill, count/min/max are exact and ``sum``
        accumulates in stream order, so the result is bit-identical to
        one ``observe`` per value.
        """
        if self._sketch is None:
            room = self.retention + 1 - len(self.samples)
            head = list(map(float, values[:room]))
            if head:
                # reduce, not builtin sum: see the module docstring
                self._account(len(head),
                              functools.reduce(operator.add, head, self._sum),
                              min(head), max(head))
                self.samples.extend(head)
                self._sorted = None
                if len(self.samples) > self.retention:
                    self._spill()
            if len(values) <= room:
                return
            values = values[room:]
        import numpy as np

        chunk = np.asarray(values, dtype=np.float64)
        if not chunk.size:
            return
        # the first value equal to the extreme, as a running `<` keeps it
        self._account(
            chunk.size,
            float(np.add.accumulate(np.concatenate(((self._sum,), chunk)))[-1]),
            float(chunk[(chunk == chunk.min()).argmax()]),
            float(chunk[(chunk == chunk.max()).argmax()]))
        self._flush()
        self._sketch.add_many(chunk)

    def _account(self, count: int, total: float, low: float,
                 high: float) -> None:
        """Fold a batch's count, running sum and extremes into the scalars."""
        self._count += count
        self._sum = total
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high

    def _flush(self) -> None:
        if self._pending:
            pending, self._pending = self._pending, []
            self._sketch.add_many(pending)

    def _spill(self) -> None:
        """Hand the retained samples to the sketch.

        Sketch counts depend only on the observed multiset, so a spilled
        histogram's state is the same whichever process, merge order, or
        snapshot round-trip produced it (the ``--jobs`` bit-identity
        contract).
        """
        self._sketch = QuantileSketch()
        self._sketch.add_many(self.samples)
        self.samples.clear()
        self._sorted = None

    # -- reads ---------------------------------------------------------------
    @property
    def spilled(self) -> bool:
        return self._sketch is not None

    @property
    def sketch(self) -> QuantileSketch | None:
        self._flush()
        return self._sketch

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        if not self.spilled:
            return statistics.fmean(self.samples)
        return self._sum / self._count

    @property
    def median(self) -> float:
        if self._count == 0:
            return 0.0
        if not self.spilled:
            return statistics.median(self.samples)
        return self.sketch.quantile(0.5)

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    def quantile(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        if not self.spilled:
            if self._sorted is None:
                self._sorted = sorted(self.samples)
            ordered = self._sorted
            index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
            return ordered[index]
        return self.sketch.quantile(q)

    # -- merging -------------------------------------------------------------
    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in, as if its stream were observed here.

        Exact if the combined count fits the retention window; spills
        (both ways) otherwise. Spilled state merges associatively, so
        campaign aggregation gives one answer at any ``--jobs``.
        """
        self._flush()
        other._flush()
        if other._count == 0:
            return
        self._count += other._count
        self._sum += other._sum
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max
        if (not self.spilled and not other.spilled
                and len(self.samples) + len(other.samples) <= self.retention):
            self.samples.extend(other.samples)
            self._sorted = None
            return
        if not self.spilled:
            self._spill()
        if not other.spilled:
            self._sketch.add_many(other.samples)
        else:
            self._sketch.merge(other._sketch)

    def snapshot_entry(self) -> dict:
        """Plain-dict dump; lossless (see :meth:`from_snapshot_entry`)."""
        entry = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "median": self.median,
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "samples": list(self.samples),
        }
        if self.spilled:
            entry["streaming"] = {"sketch": self.sketch.state()}
        return entry

    @classmethod
    def from_snapshot_entry(cls, name: str, entry: dict,
                            retention: int = DEFAULT_RETENTION) -> "Histogram":
        """Rebuild the histogram a snapshot came from.

        Unspilled snapshots carry the full ordered stream and replay
        exactly; spilled ones import their streaming state. Both keep the
        recorded ``sum``: a merged histogram's sum adds its parts' sums,
        which need not equal its samples added in stream order.
        """
        histogram = cls(name, retention=retention)
        streaming = entry.get("streaming")
        if streaming is None:
            histogram.observe_many(entry["samples"])
        else:
            histogram._sketch = QuantileSketch.from_state(streaming["sketch"])
            histogram._count = int(entry["count"])
            if histogram._count:
                histogram._min = float(entry["min"])
                histogram._max = float(entry["max"])
        histogram._sum = float(entry["sum"])
        return histogram


class Metrics:
    """Registry: float counters and histograms in one flat namespace."""

    enabled = True

    def __init__(self, retention: int = DEFAULT_RETENTION):
        self.retention = retention
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, retention=self.retention)
        return instrument

    # -- write paths (read like statsd calls) --------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a counter; counters only go up."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- reads -------------------------------------------------------------
    def value(self, name: str) -> float:
        if name in self._counters:
            return self._counters[name]
        raise KeyError(f"no counter named {name!r}")

    def names(self) -> list[str]:
        return sorted([*self._counters, *self._histograms])

    def counters_with_prefix(self, prefix: str) -> dict[str, float]:
        """``{suffix: value}`` for every counter named ``prefix + suffix``."""
        return {
            name[len(prefix):]: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters add; each histogram is rebuilt from its entry and folded
        in with :meth:`Histogram.merge`, streaming (sketch) state
        included, so cache-hit restores, parallel workers and traffic
        shards aggregate bit-identically to observing every stream here.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, entry in snapshot.get("histograms", {}).items():
            self.histogram(name).merge(Histogram.from_snapshot_entry(
                name, entry, retention=self.retention))

    def snapshot(self) -> dict:
        """Plain-dict dump, stable across runs, ready for ``json.dump``.

        Lossless: unspilled histograms carry their raw ``samples``,
        spilled ones their ``streaming`` sketch state, so
        :meth:`merge_snapshot` reconstructs the full instrument (cache-hit
        restore, cross-process aggregation).
        """
        return {
            "counters": {name: self._counters[name]
                         for name in sorted(self._counters)},
            "histograms": {name: self._histograms[name].snapshot_entry()
                           for name in sorted(self._histograms)},
        }


class _NullInstrument:
    """Accepts every observation, keeps nothing."""

    name = ""
    samples: tuple = ()
    count = 0
    sum = 0.0
    mean = 0.0
    median = 0.0
    min = 0.0
    max = 0.0
    spilled = False

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Disabled registry: hands out one shared no-op histogram."""

    enabled = False

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def names(self) -> list:
        return []

    def counters_with_prefix(self, prefix: str) -> dict:
        return {}

    def merge_snapshot(self, snapshot: dict) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": {}, "histograms": {}}


NULL_METRICS = NullMetrics()
