"""Observability: handshake tracing and perf-style profiling (`repro.obs`).

The paper's white-box analysis (§5.5, Table 3) comes from ``perf``
call-stack profiling of real handshakes; this package is the simulator's
equivalent. A :class:`Tracer` records nested spans on the **simulated
clock** — handshake phases, per-TLS-message work, per-crypto-op CPU time,
TCP events — and exports them as JSONL or Chrome ``trace_event`` JSON
(loadable in Perfetto / ``chrome://tracing``). A :class:`Metrics` registry
replaces ad-hoc stat dicts with named counters and histograms.

Everything is zero-overhead when disabled: the default
:data:`NULL_TRACER` / :data:`NULL_METRICS` singletons answer ``enabled ==
False`` and hot paths guard on that flag, so a simulation run without
observability executes exactly the code it did before this package
existed, so its results are bit-identical. Cache keys are not: the
experiment digest (``repro.cache.CODE_PATHS``) covers every file under
``obs/``, so after an edit here cached experiments re-render (to the
same results).
"""

from repro.obs.metrics import NULL_METRICS, Histogram, Metrics, NullMetrics
from repro.obs.profiler import SamplingProfiler
from repro.obs.recorder import NULL_RECORDER, FlightRecorder, NullRecorder, walltime
from repro.obs.sketch import QuantileSketch
from repro.obs.tracer import (
    NULL_TRACER,
    CounterSample,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "InstantRecord",
    "CounterSample",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "Histogram",
    "QuantileSketch",
    "SamplingProfiler",
    "FlightRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "walltime",
]
