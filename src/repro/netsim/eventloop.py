"""Minimal deterministic discrete-event scheduler (time unit: seconds).

Queue entries are ``(time, sequence, callback)`` tuples on a binary
heap; the sequence number breaks time ties in schedule order and is the
handle :meth:`EventLoop.schedule` returns. A cancelled handle goes into
a set that ``run`` checks as it pops, so code that never cancels pays
one empty-set test per event.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable


class EventLoopRunaway(RuntimeError):
    """The event budget was exhausted — almost always a protocol deadlock
    (two endpoints retransmitting at each other forever)."""


class EventLoop:
    def __init__(self):
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        # sequences of cancelled entries not yet popped (or already run)
        self._cancelled: set[int] = set()

    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule *callback* after *delay* seconds; returns its sequence
        number as the handle for :meth:`cancel`."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._sequence += 1
        heapq.heappush(self._queue, (self.now + delay, self._sequence, callback))
        return self._sequence

    def cancel(self, handle: int | None) -> None:
        """Keep a scheduled callback from running; a no-op on ``None`` or
        on an event that already ran. The entry stays in the queue until
        ``run`` pops it, and then neither moves the clock nor counts. The
        set of cancelled handles is emptied whenever the queue drains, and
        a cancel on an empty queue records nothing."""
        if handle is not None and self._queue:
            self._cancelled.add(handle)

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> None:
        """Run until the queue drains (or simulated time passes *until*)."""
        queue = self._queue
        pop = heapq.heappop
        cancelled = self._cancelled
        horizon = math.inf if until is None else until
        events = 0
        while queue and queue[0][0] <= horizon:
            at, sequence, callback = pop(queue)
            if cancelled and sequence in cancelled:
                cancelled.discard(sequence)
                continue
            if at > self.now:
                self.now = at
            callback()
            events += 1
            if events > max_events:
                raise EventLoopRunaway("event loop runaway (likely a protocol deadlock)")
        if cancelled and not queue:
            # only handles of events that already ran can be left
            cancelled.clear()
        if until is not None and until > self.now:
            # the clock reflects the requested horizon even when idle, so
            # callers interleaving run(until=...) with direct calls (tests,
            # interactive drivers) get consistent timestamps
            self.now = until
