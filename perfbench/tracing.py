"""Timing wrappers around each layer's public functions, from outside.

:class:`Tracer` replaces a boundary function with a wrapper that keeps,
per boundary, a call count, total seconds and self seconds (total minus
the time spent in wrapped callees), and records a span (id, parent,
name, start, end) for boundaries called rarely enough to keep them all.
Hot boundaries (``Histogram.observe``, ``EventLoop.schedule``, ...) keep
only the aggregates. A call nested directly inside the same boundary (a
hybrid KEM calling its component KEMs) is not counted twice.

A wrapper costs about a microsecond, which would land in the self time
of whoever calls a hot boundary (the traffic engine makes ~12 wrapped
calls per handshake). :meth:`Tracer.readout` therefore subtracts the
wrapper cost, calibrated on a no-op at install time, per call and per
wrapped child call. Totals are corrected for the boundary's own calls
only, so they are exact for leaf boundaries, which is where they are
reported.

Module-level functions are patched in every loaded ``repro`` module that
holds them, so callers that imported the name directly see the wrapper
too. ``EventLoop.run`` is deliberately not wrapped: its span would
contain every simulated callback and leave the netsim and traffic layers
no self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

# boundary name, module, attribute, keeps spans
BOUNDARIES = (
    ("tls.script", "repro.netsim.scripted", "record_script", True),
    ("tls.record", "repro.tls.records", "RecordProtection.encrypt", True),
    ("tls.record", "repro.tls.records", "RecordProtection.decrypt", True),
    ("cache.io", "repro.cache", "load", True),
    ("cache.io", "repro.cache", "store", True),
    ("experiment", "repro.core.experiment", "run_experiment", True),
    ("netsim.handshake", "repro.netsim.testbed", "run_simulated_handshake", True),
    ("eventloop.schedule", "repro.netsim.eventloop", "EventLoop.schedule", False),
    ("traffic.run", "repro.traffic.engine", "run_traffic", True),
    ("traffic.acquire", "repro.traffic.server", "ServerCores.acquire", False),
    ("arrivals.next", "repro.traffic.arrivals", "ThinnedArrivals.next_time",
     False),
    ("obs.observe", "repro.obs.metrics", "Histogram.observe", False),
    ("obs.sketch_add", "repro.obs.sketch", "QuantileSketch.add", False),
    ("obs.merge", "repro.obs.metrics", "Metrics.merge_snapshot", True),
    ("analysis.run", "repro.analysis.runner", "analyze", True),
    ("analysis.file", "repro.analysis.parallel", "build_record", True),
    ("analysis.flow", "repro.analysis.flow.engine", "FlowEngine.solve", True),
)
PQC_METHODS = {"kem": ("keygen", "encaps", "decaps"),
               "sig": ("keygen", "sign", "verify")}
SPAN_LIMIT = 50_000


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        # boundary -> [calls, total s, self s, wrapped child calls]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []          # (id, parent id, name, start, end)
        self.recording = True                 # keep spans (first round only)
        # open calls: [boundary, start, child seconds, id, child calls]
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []       # (owner, attribute, original)
        self.inner = self.outer = 0.0         # wrapper seconds per call

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        self._calibrate()
        for boundary, module_name, attribute, keep in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                self._patch(getattr(module, owner_name), method, boundary, keep)
            else:
                original = getattr(module, attribute)
                wrapper = self._wrap(boundary, original, keep)
                for name, loaded in list(sys.modules.items()):
                    if name.startswith("repro") and \
                            getattr(loaded, attribute, None) is original:
                        self._patches.append((loaded, attribute, original))
                        setattr(loaded, attribute, wrapper)
        from repro.pqc.kem import Kem
        from repro.pqc.sig import SignatureScheme

        for kind, base in (("kem", Kem), ("sig", SignatureScheme)):
            for cls in _subclasses(base):
                for method in PQC_METHODS[kind]:
                    if method in cls.__dict__:
                        self._patch(cls, method, f"pqc.{kind}.{method}", True)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, owner, attribute: str, boundary: str, keep: bool) -> None:
        original = owner.__dict__[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(boundary, original, keep))

    def _calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Measure the wrapper's cost inside and outside its own interval.

        The probe takes two arguments, like a bound method with one. A
        loop iteration and a no-op call are taken to cost the same, so
        half the direct loop is the call a wrapped run also makes.
        """
        def noop(a, b):
            pass

        probe = self._wrap("trace.probe", noop, False)
        stats = self.stats.pop("trace.probe")
        clock = time.perf_counter
        inner, outer = [], []
        self._stack.append(["trace.calibrate", 0.0, 0.0, 0, 0])
        for _ in range(repeats):
            start = clock()
            for _ in range(calls):
                noop(1, 2)
            direct = clock() - start
            stats[:] = [0, 0.0, 0.0, 0]
            start = clock()
            for _ in range(calls):
                probe(1, 2)
            wrapped = clock() - start
            inner.append((stats[1] - direct / 2) / calls)
            outer.append((wrapped - stats[1] - direct / 2) / calls)
        self._stack.pop()
        self.inner = max(statistics.median(inner), 0.0)
        self.outer = max(statistics.median(outer), 0.0)

    def _wrap(self, boundary: str, fn, keep_spans: bool):
        stats = self.stats.setdefault(boundary, [0, 0.0, 0.0, 0])
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == boundary:
                return fn(*args, **kwargs)
            frame = [boundary, clock(), 0.0, next(ids), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[1]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[2]
                stats[3] += frame[4]
                parent = 0
                if stack:
                    stack[-1][2] += elapsed
                    stack[-1][4] += 1
                    parent = stack[-1][3]
                if keep_spans and tracer.recording and len(spans) < SPAN_LIMIT:
                    spans.append((frame[3], parent, boundary, frame[1], end))
        return wrapper

    # -- readout ----------------------------------------------------------------
    def reset(self) -> None:
        """Zero the aggregates (the wrappers hold the lists themselves)."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0, 0]

    def readout(self) -> dict[str, tuple[int, float, float]]:
        """(calls, total s, self s) per boundary, wrapper cost removed."""
        out = {}
        for boundary, (calls, total, own, children) in self.stats.items():
            own -= self.inner * calls + self.outer * children
            out[boundary] = (calls, max(total - self.inner * calls, 0.0),
                             max(own, 0.0))
        return out

    def write_chrome(self, path: Path, extra: dict) -> None:
        """Spans as Chrome trace JSON (chrome://tracing, Perfetto)."""
        t0 = min((span[3] for span in self.spans), default=0.0)
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": round((start - t0) * 1e6, 3),
                   "dur": round((end - start) * 1e6, 3),
                   "pid": 1, "tid": 1, "args": {"id": sid, "parent": parent}}
                  for sid, parent, name, start, end in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "otherData": extra}))


def layer_self_seconds(stats: dict) -> dict[str, float]:
    """Self seconds per layer (the boundary name's first component)."""
    layers: dict[str, float] = {}
    for boundary, (_, _, own) in stats.items():
        layer = boundary.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


def layer_values(stats: dict, facts: dict,
                 cache_counters: dict) -> dict[str, float]:
    """One traced round's per-layer metrics (executor and trace excluded).

    ``stats`` is :meth:`Tracer.readout`. ``obs.share`` is obs self time
    over the self time of every boundary, which is the traced host time
    of the round minus what no wrapped boundary encloses.
    """
    def count(name):
        return stats.get(name, (0,))[0]

    def total(*names):
        return sum(stats.get(name, (0, 0.0))[1] for name in names)

    def own(*names):
        return sum(stats.get(name, (0, 0.0, 0.0))[2] for name in names)

    def per_call_us(name):
        return own(name) / count(name) * 1e6 if count(name) else 0.0

    kem = ("pqc.kem.keygen", "pqc.kem.encaps", "pqc.kem.decaps")
    sig = ("pqc.sig.sign", "pqc.sig.verify")
    obs = ("obs.observe", "obs.sketch_add", "obs.merge")

    def cache_count(*suffixes):
        return sum(value for name, value in cache_counters.items()
                   if name.endswith(suffixes))

    completed = facts.get("completed", 0)
    traced = own(*stats)
    return {
        "pqc.kem_ops": sum(count(name) for name in kem),
        "pqc.kem_s": total(*kem),
        "pqc.sig_ops": sum(count(name) for name in sig),
        "pqc.sig_s": total(*sig),
        "pqc.keygen_s": total("pqc.sig.keygen"),
        "tls.records": count("tls.record"),
        "tls.record_s": total("tls.record"),
        "tls.self_s": own("tls.script", "tls.record"),
        "cache.loads": cache_count(".hit", ".miss"),
        "cache.hits": cache_count(".hit"),
        "cache.stores": cache_count(".store"),
        "cache.s": total("cache.io"),
        "experiment.runs": count("experiment"),
        "experiment.self_s": own("experiment"),
        "netsim.handshakes": count("netsim.handshake"),
        "netsim.handshake_us": per_call_us("netsim.handshake"),
        "netsim.retransmits": facts.get("netsim.retransmits", 0),
        "netsim.failed": facts.get("netsim.failed", 0),
        "eventloop.events": count("eventloop.schedule"),
        "eventloop.schedule_us": per_call_us("eventloop.schedule"),
        "traffic.engine_us_per_handshake":
            own("traffic.run") / completed * 1e6 if completed else 0.0,
        "traffic.acquires": count("traffic.acquire"),
        "traffic.peak_in_flight": facts.get("traffic.peak_in_flight", 0),
        "traffic.refused_ratio": facts.get("traffic.refused_ratio", 0.0),
        "arrivals.calls": count("arrivals.next"),
        "arrivals.next_us": per_call_us("arrivals.next"),
        "obs.observes": count("obs.observe"),
        "obs.observe_us": per_call_us("obs.observe"),
        "obs.sketch_adds": count("obs.sketch_add"),
        "obs.merge_s": total("obs.merge"),
        "obs.share": own(*obs) / traced if traced else 0.0,
        "analysis.files": count("analysis.file"),
        "analysis.check_files_s": total("analysis.file"),
        "analysis.flow_s": total("analysis.flow"),
        "analysis.findings": facts.get("analysis.findings", 0),
    }


def executor_values(events: list[dict], busy: float, wall: float,
                    jobs: int) -> dict[str, float]:
    """Executor metrics of one round from its flight-recorder events.

    ``busy`` is the CPU seconds the benchmark process and its pool
    workers spent in the round. Workloads that never dispatch through
    ``repro.core.executor`` report zeros.
    """
    units = sum(1 for event in events
                if event["event"] in ("task_finish", "shard_finish"))
    if not units:
        return dict.fromkeys(("executor.units", "executor.busy_s",
                              "executor.idle_s", "executor.utilization"), 0)
    capacity = jobs * wall
    return {"executor.units": units, "executor.busy_s": busy,
            "executor.idle_s": max(capacity - busy, 0.0),
            "executor.utilization": busy / capacity}


def longest_unit(events: list[dict]) -> float:
    """Host seconds of the longest dispatch unit of a serial round.

    Tasks report their own host seconds; serial traffic shards run back
    to back, so a shard's time is the gap since the previous event.
    """
    longest, last = 0.0, 0.0
    for event in events:
        kind = event["event"]
        if kind == "task_finish":
            longest = max(longest, event.get("host_seconds", 0.0))
        elif kind == "traffic_begin":
            last = event["t"]
        elif kind == "shard_finish":
            longest = max(longest, event["t"] - last)
            last = event["t"]
    return longest
