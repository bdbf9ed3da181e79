"""Span-based tracing on the simulated clock.

A span is a named interval ``[start, end]`` on a *track* (one per
simulated resource: ``client-cpu``, ``server-cpu``, ``phases``,
``tcp-client``, ...). Spans nest: :meth:`Tracer.begin` / :meth:`Tracer.end`
maintain a per-track stack, and :meth:`Tracer.span` records a complete
child of whatever is open on its track. Because the simulator computes
end times ahead of the event loop (a host's CPU busy-mark runs ahead of
``loop.now``), all timestamps are passed in explicitly rather than read
from a clock.

Instant events (retransmits, recovery entry) and counter samples (cwnd)
complete the model — the three shapes map 1:1 onto Chrome ``trace_event``
phases ``X`` / ``i`` / ``C`` (see :mod:`repro.obs.export`).

:data:`NULL_TRACER` is the disabled implementation: every method is a
no-op ``pass`` and ``enabled`` is ``False``, so instrumented hot paths can
skip even argument construction with ``if tracer.enabled:``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SpanRecord:
    """One closed interval on a track, with a depth for cheap nesting."""

    track: str
    name: str
    start: float
    end: float
    cat: str = ""              # library attribution or event category
    depth: int = 0             # 0 = root of its track
    args: tuple = ()           # ((key, value), ...) extra context

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class InstantRecord:
    track: str
    name: str
    time: float
    cat: str = ""
    args: tuple = ()


@dataclass(frozen=True)
class CounterSample:
    track: str
    name: str
    time: float
    value: float


@dataclass
class _OpenSpan:
    name: str
    start: float
    cat: str
    args: tuple


class Tracer:
    """Collects spans / instants / counter samples on the simulated clock."""

    enabled = True

    def __init__(self):
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self.counters: list[CounterSample] = []
        self._stacks: dict[str, list[_OpenSpan]] = {}

    # -- spans -------------------------------------------------------------
    def span(self, track: str, name: str, start: float, end: float,
             cat: str = "", **args) -> SpanRecord:
        """Record a complete span, nested under the track's open span."""
        record = SpanRecord(track, name, start, end, cat,
                            depth=len(self._stacks.get(track, ())),
                            args=tuple(sorted(args.items())))
        self.spans.append(record)
        return record

    def begin(self, track: str, name: str, start: float, cat: str = "",
              **args) -> None:
        """Open a span; children recorded before :meth:`end` nest inside."""
        stack = self._stacks.setdefault(track, [])
        stack.append(_OpenSpan(name, start, cat, tuple(sorted(args.items()))))

    def end(self, track: str, end: float) -> SpanRecord:
        """Close the innermost open span on *track*."""
        stack = self._stacks.get(track)
        if not stack:
            raise RuntimeError(f"Tracer.end with no open span on track {track!r}")
        open_span = stack.pop()
        record = SpanRecord(track, open_span.name, open_span.start, end,
                            open_span.cat, depth=len(stack), args=open_span.args)
        self.spans.append(record)
        return record

    # -- point events ------------------------------------------------------
    def instant(self, track: str, name: str, time: float, cat: str = "",
                **args) -> None:
        self.instants.append(InstantRecord(track, name, time, cat,
                                           tuple(sorted(args.items()))))

    def counter(self, track: str, name: str, time: float, value: float) -> None:
        self.counters.append(CounterSample(track, name, time, value))

    # -- merging -----------------------------------------------------------
    def absorb(self, spans, instants, counters) -> None:
        """Append records collected by another tracer.

        The record dataclasses are immutable and picklable, so a worker
        process can trace locally and ship ``(tracer.spans,
        tracer.instants, tracer.counters)`` back for the parent to absorb
        — the parent's trace is then identical to having traced in-process.
        """
        self.spans.extend(spans)
        self.instants.extend(instants)
        self.counters.extend(counters)

    # -- queries -----------------------------------------------------------
    def tracks(self) -> list[str]:
        seen: dict[str, None] = {}
        for record in self.spans:
            seen.setdefault(record.track, None)
        for record in self.instants:
            seen.setdefault(record.track, None)
        for record in self.counters:
            seen.setdefault(record.track, None)
        return list(seen)

    def spans_on(self, track: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.track == track]

    @property
    def empty(self) -> bool:
        return not (self.spans or self.instants or self.counters)


class NullTracer:
    """Disabled tracer: every method is a no-op, ``enabled`` is False.

    Hot paths guard with ``if tracer.enabled:`` so a disabled run does not
    even build the argument tuples; calling the methods anyway is still
    safe (and free of records).
    """

    enabled = False
    spans: tuple = ()
    instants: tuple = ()
    counters: tuple = ()
    empty = True

    def span(self, *args, **kwargs) -> None:
        pass

    def begin(self, *args, **kwargs) -> None:
        pass

    def end(self, *args, **kwargs) -> None:
        pass

    def instant(self, *args, **kwargs) -> None:
        pass

    def counter(self, *args, **kwargs) -> None:
        pass

    def absorb(self, spans, instants, counters) -> None:
        pass

    def tracks(self) -> list:
        return []

    def spans_on(self, track: str) -> list:
        return []


NULL_TRACER = NullTracer()
