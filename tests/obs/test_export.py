"""Exporters: Chrome trace_event JSON and JSONL round-trips."""

import json

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    jsonl_lines,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.obs.metrics import Metrics
from repro.obs.tracer import Tracer


def _tracer():
    tracer = Tracer()
    tracer.begin("client-cpu", "batch", 0.0, cat="batch")
    tracer.span("client-cpu", "sign", 0.0, 0.001, cat="libcrypto", size=64)
    tracer.end("client-cpu", 0.001)
    tracer.span("phases", "handshake", 0.0, 0.002, cat="phase")
    tracer.instant("tcp-client", "retransmit", 0.0015, seq=1)
    tracer.counter("tcp-client", "cwnd", 0.0015, 4.0)
    return tracer


def test_chrome_events_cover_all_record_shapes():
    events = chrome_trace_events(_tracer())
    phases = [e["ph"] for e in events]
    assert phases.count("X") == 3
    assert phases.count("i") == 1
    assert phases.count("C") == 1
    # two metadata events (name + sort index) per track
    assert phases.count("M") == 2 * 3


def test_chrome_timestamps_are_microseconds():
    events = chrome_trace_events(_tracer())
    sign = next(e for e in events if e.get("name") == "sign")
    assert sign["ts"] == 0.0
    assert sign["dur"] == 1000.0  # 1 ms -> 1000 us
    assert sign["args"] == {"size": 64}


def test_track_lanes_are_stable_and_named():
    events = chrome_trace_events(_tracer())
    names = {e["args"]["name"]: e["tid"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    # preferred ordering puts phases first, then client-cpu
    assert names["phases"] == 1
    assert names["client-cpu"] == 2
    # every event's tid maps to a declared lane
    assert {e["tid"] for e in events} <= set(names.values())


def test_chrome_trace_is_valid_json_on_disk(tmp_path):
    path = write_chrome_trace(_tracer(), tmp_path / "trace.json")
    loaded = json.loads(path.read_text())
    assert loaded["displayTimeUnit"] == "ms"
    assert len(loaded["traceEvents"]) == len(chrome_trace(_tracer())["traceEvents"])


def test_jsonl_one_valid_object_per_line(tmp_path):
    path = write_jsonl(_tracer(), tmp_path / "trace.jsonl")
    lines = path.read_text().splitlines()
    objects = [json.loads(line) for line in lines]
    assert len(objects) == len(jsonl_lines(_tracer()))
    kinds = {o["type"] for o in objects}
    assert kinds == {"span", "instant", "counter"}


def test_metrics_json_round_trip(tmp_path):
    metrics = Metrics()
    metrics.inc("cache.script.hit", 3)
    metrics.observe("handshake.total", 0.004)
    path = write_metrics_json(metrics, tmp_path / "metrics.json")
    loaded = json.loads(path.read_text())
    assert loaded["counters"]["cache.script.hit"] == 3
    assert loaded["histograms"]["handshake.total"]["count"] == 1


def test_lane_ids_do_not_depend_on_emission_order():
    # the same records, emitted with the non-preferred tracks interleaved
    # differently, export to the same bytes
    records = [
        ("span", "tcp-server", "recv", 0.0, 0.001),
        ("span", "tcp-client", "send", 0.0005, 0.001),
        ("instant", "link", "drop", 0.001),
        ("counter", "tcp-client", "cwnd", 0.001, 3.0),
        ("span", "phases", "handshake", 0.0, 0.002),
    ]
    dumps = set()
    for order in (records, records[::-1], records[1:] + records[:1]):
        tracer = Tracer()
        for kind, *fields in order:
            getattr(tracer, kind)(*fields)
        dumps.add(json.dumps(chrome_trace(tracer), sort_keys=True))
    assert len(dumps) == 1
