"""Flight recorder: event stream, JSONL sink, live line, null impl."""

import io
import json

from repro.obs.recorder import NULL_RECORDER, FlightRecorder, walltime


def test_walltime_is_monotonic():
    a = walltime()
    b = walltime()
    assert b >= a


def test_events_are_stamped_and_ordered():
    recorder = FlightRecorder()
    first = recorder.event("campaign_begin", set="s", experiments=2)
    second = recorder.event("campaign_end", set="s")
    assert [e["event"] for e in recorder.events] == [
        "campaign_begin", "campaign_end"]
    assert first["experiments"] == 2
    assert 0.0 <= first["t"] <= second["t"]


def test_jsonl_file_is_written_incrementally(tmp_path):
    path = tmp_path / "log" / "flight.jsonl"
    recorder = FlightRecorder(path)
    recorder.event("campaign_begin", set="s")
    # flushed line-by-line: readable before close (crash-safe log)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    recorder.task_start("k1", set_name="s", est_cost=1.23456789)
    recorder.task_finish("k1", mode="inline", set_name="s",
                         host_seconds=0.5, outcomes={"success": 3},
                         retransmits=2, cache_counters={"cache.hit": 1})
    recorder.close()
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["event"] for e in events] == [
        "campaign_begin", "task_start", "task_finish"]
    start, finish = events[1], events[2]
    assert "mode" not in start and start["est_cost"] == 1.2346
    assert finish["host_seconds"] == 0.5
    assert finish["outcomes"] == {"success": 3}
    assert finish["retransmits"] == 2
    assert finish["cache"] == {"cache.hit": 1}


def test_task_events_omit_empty_optional_fields():
    recorder = FlightRecorder()
    recorder.task_finish("k", mode="inline", set_name="s",
                         outcomes={}, retransmits=0, cache_counters={})
    (event,) = recorder.events
    assert "outcomes" not in event and "retransmits" not in event
    assert "cache" not in event


def test_live_progress_line_writes_and_clears():
    stream = io.StringIO()
    recorder = FlightRecorder(live=True, stream=stream)
    recorder.progress("small", 2, 10, elapsed=3.0, eta=12.0, hits=1)
    line = stream.getvalue()
    assert line.startswith("\r")
    assert "[small] 2/10" in line and "eta 12.0s" in line and "1 hits" in line
    recorder.close()
    assert stream.getvalue().endswith("\r")  # line cleared on close


def test_event_clears_live_line_without_a_file():
    # the campaign CLI's recorder is live with no file: campaign_end must
    # leave stderr on a clean line for the CLI's next message
    stream = io.StringIO()
    recorder = FlightRecorder(live=True, stream=stream)
    recorder.progress("s", 1, 2, elapsed=1.0)
    recorder.event("campaign_end", set="s")
    assert stream.getvalue().endswith(" " * 78 + "\r")


def test_live_line_suppressed_when_not_live():
    stream = io.StringIO()
    recorder = FlightRecorder(live=False, stream=stream)
    recorder.progress("s", 1, 2, elapsed=1.0)
    assert stream.getvalue() == ""


def test_context_manager_closes_file(tmp_path):
    path = tmp_path / "flight.jsonl"
    with FlightRecorder(path) as recorder:
        recorder.event("campaign_begin", set="s")
    assert recorder._file is None
    assert len(path.read_text().splitlines()) == 1


def test_null_recorder_is_inert():
    assert NULL_RECORDER.enabled is False
    NULL_RECORDER.event("x")
    NULL_RECORDER.task_start("k", mode="serial", set_name="s")
    NULL_RECORDER.task_finish("k", mode="serial", set_name="s")
    NULL_RECORDER.progress("s", 1, 2, elapsed=0.0)
    with NULL_RECORDER:
        pass
    assert NULL_RECORDER.events == ()


def test_heartbeat_rounds_and_renames_units():
    recorder = FlightRecorder()
    recorder.heartbeat(in_flight=37, completed=2048, hps=41234.567,
                      rss=96 * 1048576, shard=3)
    beat = recorder.events[-1]
    assert beat["event"] == "heartbeat"
    assert beat["in_flight"] == 37
    assert beat["completed"] == 2048
    assert beat["hps"] == 41234.6           # one decimal is plenty
    assert beat["rss_mb"] == 96.0           # bytes in, MB in the log
    assert beat["shard"] == 3


def test_heartbeat_omits_what_the_emitter_cannot_observe():
    recorder = FlightRecorder()
    recorder.heartbeat(completed=10)        # no rss/hps/in_flight available
    beat = recorder.events[-1]
    assert beat["completed"] == 10
    for absent in ("in_flight", "hps", "rss_mb"):
        assert absent not in beat
    NULL_RECORDER.heartbeat(completed=10)   # inert, like every other event
    assert NULL_RECORDER.events == ()
