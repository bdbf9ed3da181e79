"""Minimal deterministic discrete-event scheduler (time unit: seconds)."""

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
        # [time, sequence, callback] entries; cancel() clears the callback
        self._queue: list[list] = []
        self._sequence = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> list:
        """Schedule *callback* after *delay* seconds; returns a handle for
        :meth:`cancel`."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._sequence += 1
        event = [self.now + delay, self._sequence, callback]
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: list | None) -> None:
        """Keep a scheduled callback from running; a no-op on ``None`` or
        on an event that already ran. The entry stays in the queue until
        ``run`` pops it, and then neither moves the clock nor counts."""
        if event is not None:
            event[2] = None

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> None:
        """Run until the queue drains (or simulated time passes *until*)."""
        queue = self._queue
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        events = 0
        while queue and queue[0][0] <= horizon:
            at, _, callback = pop(queue)
            if callback is None:
                continue
            if at > self.now:
                self.now = at
            callback()
            events += 1
            if events > max_events:
                raise EventLoopRunaway("event loop runaway (likely a protocol deadlock)")
        if until is not None and until > self.now:
            # the clock reflects the requested horizon even when idle, so
            # callers interleaving run(until=...) with direct calls (tests,
            # interactive drivers) get consistent timestamps
            self.now = until
