"""Trace exporters: JSONL and Chrome ``trace_event`` JSON.

The Chrome format (the ``chrome://tracing`` / Perfetto "JSON Array
Format") maps our model directly: spans become complete events (``"ph":
"X"``) with microsecond ``ts``/``dur``, instants become ``"i"`` events,
counter samples become ``"C"`` events. Each track is a ``tid`` under one
``pid`` with a ``thread_name`` metadata event, so Perfetto shows
``client-cpu`` / ``server-cpu`` / ``phases`` / ``tcp-*`` as parallel
swimlanes and nests same-track spans by time containment.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.tracer import Tracer

_US = 1e6  # simulated seconds -> trace microseconds


def _track_ids(tracer: Tracer) -> dict[str, int]:
    # stable lane ordering: phases on top, then CPUs, then the rest by
    # name, so a lane's id never depends on which record came first
    preferred = ["phases", "client-cpu", "server-cpu"]
    tracks = tracer.tracks()
    ordered = [t for t in preferred if t in tracks]
    ordered += sorted(t for t in tracks if t not in preferred)
    return {track: index + 1 for index, track in enumerate(ordered)}


def chrome_trace_events(tracer: Tracer, pid: int = 1) -> list[dict]:
    """The ``traceEvents`` list for one tracer's records."""
    tids = _track_ids(tracer)
    events: list[dict] = []
    for track, tid in tids.items():
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": track},
        })
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_sort_index",
            "args": {"sort_index": tid},
        })
    for span in tracer.spans:
        events.append({
            "ph": "X", "pid": pid, "tid": tids[span.track],
            "name": span.name, "cat": span.cat or "span",
            "ts": span.start * _US, "dur": span.duration * _US,
            "args": dict(span.args),
        })
    for instant in tracer.instants:
        events.append({
            "ph": "i", "pid": pid, "tid": tids[instant.track],
            "name": instant.name, "cat": instant.cat or "event",
            "ts": instant.time * _US, "s": "t",
            "args": dict(instant.args),
        })
    for sample in tracer.counters:
        events.append({
            "ph": "C", "pid": pid, "tid": tids[sample.track],
            "name": sample.name, "ts": sample.time * _US,
            "args": {"value": sample.value},
        })
    events.sort(key=lambda e: (e.get("ts", -1.0), e["tid"]))
    return events


def chrome_trace(tracer: Tracer, pid: int = 1) -> dict:
    """Chrome "JSON Object Format": load in Perfetto or chrome://tracing."""
    return {
        "traceEvents": chrome_trace_events(tracer, pid),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "producer": "repro.obs"},
    }


def write_chrome_trace(tracer: Tracer, path: str | Path, pid: int = 1) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(tracer, pid), indent=1) + "\n")
    return path


def jsonl_lines(tracer: Tracer) -> list[str]:
    """One JSON object per record — greppable, streamable, diffable."""
    lines = []
    for span in tracer.spans:
        lines.append(json.dumps({
            "type": "span", "track": span.track, "name": span.name,
            "cat": span.cat, "start": span.start, "end": span.end,
            "depth": span.depth, "args": dict(span.args),
        }, sort_keys=True))
    for instant in tracer.instants:
        lines.append(json.dumps({
            "type": "instant", "track": instant.track, "name": instant.name,
            "cat": instant.cat, "time": instant.time, "args": dict(instant.args),
        }, sort_keys=True))
    for sample in tracer.counters:
        lines.append(json.dumps({
            "type": "counter", "track": sample.track, "name": sample.name,
            "time": sample.time, "value": sample.value,
        }, sort_keys=True))
    return lines


def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(jsonl_lines(tracer)) + "\n")
    return path


def write_metrics_json(metrics, path: str | Path) -> Path:
    """Dump a :class:`repro.obs.metrics.Metrics` snapshot as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(metrics.snapshot(), indent=1, sort_keys=True) + "\n")
    return path
