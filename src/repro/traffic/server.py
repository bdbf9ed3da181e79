"""The shared server's CPU: a k-core FCFS run queue in O(log k) per burst.

The experiment layer's :class:`repro.netsim.hosts.Host` serializes CPU
bursts on one implicit core per host; under load the server is the
bottleneck and needs k cores with a queue. Because the engine enqueues
bursts in non-decreasing simulated time and a burst never jumps the
queue, "earliest-free core at enqueue time" is exactly FCFS dispatch —
no separate queue structure, just a min-heap of the cores' busy-until
times. A burst's ``(start, end)`` depends only on that multiset of
times, so which core runs it never needs a name.
"""

from __future__ import annotations

from heapq import heapreplace


class ServerCores:
    """k cores, each a busy-until horizon; FCFS assignment per burst."""

    __slots__ = ("_free", "busy_seconds")

    def __init__(self, cores: int):
        if cores < 1:
            raise ValueError(f"server needs >= 1 core, got {cores!r}")
        self._free = [0.0] * cores  # a min-heap (all equal, so already one)
        self.busy_seconds = 0.0

    @property
    def cores(self) -> int:
        return len(self._free)

    def acquire(self, now: float, seconds: float) -> tuple[float, float]:
        """Claim ``seconds`` of CPU for a burst arriving at ``now``.

        Returns ``(start, end)``: the burst runs on the earliest-free
        core, no sooner than ``now``. ``start - now`` is the queueing
        wait the caller folds into the handshake's latency.
        """
        free = self._free
        start = free[0]
        if start < now:
            start = now
        end = start + seconds
        heapreplace(free, end)
        self.busy_seconds += seconds
        return start, end
