"""Campaign flight recorder: a structured JSONL log of what actually ran.

A campaign is a black box while it runs — hundreds of experiments, a
process pool, a shared cache — and when one stalls or a CI run slows
down, the question is always the same: which task, which worker, cache
hit or cold recording, how long. The flight recorder answers it with an
append-only JSONL event stream (``campaign_begin``, ``schedule``,
``task_start``, ``task_finish``, ``cache_hit``, ``campaign_end``; one
JSON object per line, written incrementally so a crashed campaign still
leaves its log) plus an optional single-line live progress/ETA display.

Timestamps are **host** seconds relative to the recorder's creation
(``t`` field), read through :func:`walltime` — the sanctioned wall-clock
accessor for the rest of the stack. pqtls-lint DET001 confines clock
reads to ``repro.obs``: simulation code must never see the host clock,
but the executor may route its flight-recorder timing through here
because it only *reports* host time, never feeds it into results.

The recorder is pure observation: events change no result, no cache
entry, no metric. :data:`NULL_RECORDER` is the disabled implementation
(``enabled`` is False, every method a no-op), so un-recorded campaigns
pay one attribute check per site.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import IO

__all__ = ["FlightRecorder", "NullRecorder", "NULL_RECORDER", "walltime"]


def walltime() -> float:
    """Monotonic host seconds — the one sanctioned wall-clock read."""
    return time.perf_counter()


class FlightRecorder:
    """Collects flight events, optionally streaming them to a JSONL file."""

    enabled = True

    def __init__(self, path: str | Path | None = None, *,
                 live: bool = False, stream: IO | None = None):
        self.events: list[dict] = []
        self._t0 = walltime()
        self._file: IO | None = None
        self._live = live
        self._stream = stream if stream is not None else sys.stderr
        self._live_dirty = False
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file = path.open("w")
            self.path = path
        else:
            self.path = None

    # -- events ------------------------------------------------------------
    def event(self, kind: str, **fields) -> dict:
        """Record one event, stamped with seconds since recorder creation."""
        record = {"event": kind, "t": round(walltime() - self._t0, 6), **fields}
        self.events.append(record)
        if self._file is not None:
            self._clear_live()
            self._file.write(json.dumps(record, sort_keys=True) + "\n")
            self._file.flush()
        return record

    def task_start(self, key: str, *, set_name: str,
                   est_cost: float | None = None) -> None:
        fields = {"key": key, "set": set_name}
        if est_cost is not None:
            fields["est_cost"] = round(est_cost, 4)
        self.event("task_start", **fields)

    def task_finish(self, key: str, *, mode: str, set_name: str,
                    host_seconds: float | None = None,
                    outcomes: dict | None = None,
                    retransmits: float | None = None,
                    cache_counters: dict | None = None) -> None:
        fields: dict = {"key": key, "mode": mode, "set": set_name}
        if host_seconds is not None:
            fields["host_seconds"] = round(host_seconds, 6)
        if outcomes:
            fields["outcomes"] = dict(sorted(outcomes.items()))
        if retransmits:
            fields["retransmits"] = retransmits
        if cache_counters:
            fields["cache"] = dict(sorted(cache_counters.items()))
        self.event("task_finish", **fields)

    def heartbeat(self, *, in_flight: int | None = None,
                  completed: int | None = None, hps: float | None = None,
                  rss: int | None = None, **fields) -> None:
        """Periodic liveness event for long runs (traffic engine).

        ``in_flight`` is the number of concurrent handshakes, ``completed``
        the running total, ``hps`` the recent handshakes-per-host-second
        rate, ``rss`` the resident set size in bytes (logged as ``rss_mb``).
        All optional: emitters report what they can observe.
        """
        if in_flight is not None:
            fields["in_flight"] = in_flight
        if completed is not None:
            fields["completed"] = completed
        if hps is not None:
            fields["hps"] = round(hps, 1)
        if rss is not None:
            fields["rss_mb"] = round(rss / 1048576, 1)
        self.event("heartbeat", **fields)

    # -- live progress/ETA line --------------------------------------------
    def progress(self, set_name: str, done: int, total: int, *,
                 elapsed: float, eta: float | None = None,
                 hits: int | None = None) -> None:
        if not self._live:
            return
        parts = [f"[{set_name}] {done}/{total}"]
        if hits is not None:
            parts.append(f"{hits} hits")
        parts.append(f"elapsed {elapsed:.1f}s")
        if eta is not None:
            parts.append(f"eta {eta:.1f}s")
        line = " · ".join(parts)
        self._stream.write("\r" + line.ljust(78))
        self._stream.flush()
        self._live_dirty = True

    def _clear_live(self) -> None:
        if self._live_dirty:
            self._stream.write("\r" + " " * 78 + "\r")
            self._stream.flush()
            self._live_dirty = False

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        self._clear_live()
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullRecorder:
    """Disabled flight recorder: every method is a no-op."""

    enabled = False
    events: tuple = ()
    path = None

    def event(self, kind: str, **fields) -> None:
        pass

    def task_start(self, key: str, **fields) -> None:
        pass

    def task_finish(self, key: str, **fields) -> None:
        pass

    def heartbeat(self, **fields) -> None:
        pass

    def progress(self, set_name: str, done: int, total: int, **fields) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_RECORDER = NullRecorder()
