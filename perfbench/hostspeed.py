"""Host speed, sampled while the program runs, for times at nominal speed.

A shared VM's speed swings by up to ~2x as neighbours load its cores,
for a fraction of a second or for minutes; no number of rounds averages
that away. :class:`HostSpeed` times a fixed pure-Python loop every
``INTERVAL_S`` seconds from a ``SIGALRM`` handler, which the interpreter
runs between the program's own bytecodes, so the samples cover the
timed call itself. The program and the loop slow down together, and a
time is reported at nominal host speed: with the sampling removed, and
weighted by ``NOMINAL_S`` over each sample's loop time.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOPS = 4000
NOMINAL_S = 0.5e-3      # one loop on a quiet 2-vCPU VM (2.0 GHz, Python 3.11)
INTERVAL_S = 0.02


def reference_loop() -> int:
    table, total = {}, 0
    for i in range(LOOPS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    return total


class HostSpeed:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, loop seconds)

    def start(self) -> float:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return time.perf_counter()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append((start, time.perf_counter() - start))

    def at_nominal(self, seconds: float, start: float,
                   end: float) -> tuple[float, float]:
        """``seconds`` spent from ``start`` to ``end``: (net, nominal).

        Net is ``seconds`` without the samples taken in the interval;
        nominal is net with each sample scaling its share. An interval
        too short to hold a sample is scaled by one taken now.
        """
        inside = [loop for taken, loop in self.samples if start <= taken < end]
        net = seconds - sum(inside)
        if not inside:
            self.sample()
            inside = [self.samples[-1][1]]
        return net, net * NOMINAL_S * statistics.mean(1 / s for s in inside)
