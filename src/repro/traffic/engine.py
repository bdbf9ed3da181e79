"""The traffic engine: arrivals × queueing profiles on the event loop.

One *shard* simulates a contiguous time-slice of the arrival timeline
against its own :class:`~repro.traffic.server.ServerCores` and a fresh
:class:`~repro.obs.metrics.Metrics` registry. Open-loop arrivals are
not events: the shard pulls each arrival time from its
:class:`~repro.traffic.arrivals.ThinnedArrivals` (already in order),
runs the event loop up to that instant, then admits the arrival. An
open-loop handshake takes two event-loop callbacks — burst-A enqueue,
burst-B enqueue (where the two queueing waits are kept) — and allocates
two `partial` thunks and one finish-heap entry: connection state lives
in a pooled free-list. Completion is bookkeeping, not an event: burst B
pushes ``(finish, n, conn)`` onto a shard-local min-heap (``n`` is a
shard counter, so two conns are never compared), and the next arrival
*retires* every entry with ``finish <= now`` (in-flight count,
completion count, the conn back to the pool, heartbeat check) before
its admission check; the shard retires the rest once the loop drains.
Tie rules: an event due at exactly an arrival's instant runs before
that arrival, and a completion at that instant is retired before the
arrival is admitted. A closed-loop client starts thinking at its finish
time, so closed-loop shards schedule each handshake as an event and
also schedule a wake-up at that instant; it retires every due entry
through the same path, then schedules the client's next handshake. The
pool grows only at retirement and shrinks only at admission, so its
length at every admission — and ``pool_peak`` — is what a completion
event per handshake would give.

The five latencies of a handshake are its profile's constants plus its
two waits, so each channel keeps only (wait_a, wait_b); every
:data:`OBSERVE_CHUNK` handshakes, and at the shard's end, it computes
the latencies as numpy arrays and hands them to its histograms'
``observe_many`` (exact to the retention window, a constant-memory
quantile sketch beyond), so memory is flat in the handshake count.

Determinism contract (`--jobs` bit-identity): the shard layout depends
only on the config (never on the worker count), each shard forks its
DRBG as ``Drbg("traffic:<key>").fork("shard:<i>")``, and the leader
merges the per-shard snapshots in shard-index order. The serial path
runs the *same* shard task inline, so ``--jobs 1`` and ``--jobs N``
produce byte-identical merged sketch state. Closed-loop runs restart
their N clients at each shard boundary (a cold-cache approximation the
shard size controls); open-loop arrivals are exact.

Host wall-clock appears only in flight-recorder heartbeats (via
:func:`repro.obs.recorder.walltime`, the sanctioned accessor) and never
feeds a simulated result.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush

import numpy as np

from repro.core import fanout
from repro.crypto.drbg import Drbg
from repro.netsim.eventloop import EventLoop
from repro.obs.hostmeta import rss_bytes
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.obs.recorder import NULL_RECORDER, walltime
from repro.traffic.arrivals import (DRAW_CHUNK, Window, finite,
                                    open_arrivals, parse_arrival)
from repro.traffic.profile import handshake_profile
from repro.traffic.server import ServerCores

# host seconds between flight-recorder heartbeats (checked whenever a
# retirement crosses a multiple of _HEARTBEAT_MASK+1 completions, so the
# hot path never reads the clock)
HEARTBEAT_SECONDS = 5.0
_HEARTBEAT_MASK = 0x3FF

# handshakes a channel keeps (as two waits) before it observes them
OBSERVE_CHUNK = 4096

_UNSAFE = re.compile(r"[^a-z0-9_]")


def metric_key(name: str) -> str:
    """An algorithm name as a metric-name component (OBS001-clean)."""
    return _UNSAFE.sub("_", name.lower())


@dataclass(frozen=True)
class TrafficConfig:
    """One traffic run; hashable and picklable (pairs are tuples)."""

    arrival: str = "poisson:1000/s"
    duration: float = 60.0
    pairs: tuple[tuple[str, str], ...] = (("kyber512", "dilithium2"),)
    scenario: str = "none"
    policy: str = "optimized"
    seed: str = "paper"
    shard_seconds: float = 60.0
    server_cores: int = 1
    max_in_flight: int = 100_000
    # per-pair PSK-resumption fraction in [0, 1] (one entry per pair;
    # empty = all-full handshakes, the pre-lifecycle behavior)
    resume: tuple[float, ...] = ()

    @property
    def key(self) -> str:
        pair_text = "+".join(f"{kem}/{sig}" for kem, sig in self.pairs)
        base = (f"{self.arrival}|d={self.duration}|{pair_text}"
                f"|{self.scenario}|{self.policy}|seed={self.seed}"
                f"|shard={self.shard_seconds}|cores={self.server_cores}"
                f"|mif={self.max_in_flight}")
        # appended only when set, so pre-lifecycle keys stay stable
        if any(self.resume):
            base += "|resume=" + ",".join(f"{f:g}" for f in self.resume)
        return base


@dataclass(frozen=True)
class TrafficSummary:
    """Leader-side aggregate of a run (quantiles live in the metrics)."""

    config: TrafficConfig
    jobs: int
    shards: int
    offered: int
    completed: int
    dropped: int
    peak_in_flight: int
    busy_seconds: float
    pool_peak: int

    @property
    def load_factor(self) -> float:
        """Offered CPU seconds over capacity (ρ); > 1 means overload —
        every admitted handshake is still served, draining past the
        window's end, so this measures offered load, not busy fraction."""
        capacity = self.config.duration * self.config.server_cores
        return self.busy_seconds / capacity if capacity > 0 else 0.0


def shard_windows(config: TrafficConfig) -> list[Window]:
    """The run's deterministic shard layout (independent of ``--jobs``)."""
    duration = finite(config.duration, "duration")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration!r}")
    size = finite(config.shard_seconds, "shard_seconds")
    if size <= 0:
        raise ValueError(f"shard_seconds must be positive, got {size!r}")
    count = max(1, math.ceil(duration / size - 1e-12))
    return [Window(i, i * size, duration if i == count - 1 else (i + 1) * size)
            for i in range(count)]


class _Conn:
    """Pooled per-handshake state (free-listed, never per-handshake GC)."""

    __slots__ = ("channel", "wait_a")

    def __init__(self):
        self.channel = None
        self.wait_a = 0.0


class _PairChannel:
    """One (KEM, SIG) pair's profile, its histograms and unobserved waits."""

    __slots__ = ("profile", "prefix", "completed", "wait_a", "wait_b",
                 "histograms")

    def __init__(self, profile, metrics, prefix: str):
        self.profile = profile
        self.prefix = prefix
        self.completed = 0
        self.wait_a: list[float] = []
        self.wait_b: list[float] = []
        self.histograms = tuple(
            metrics.histogram(prefix + name)
            for name in ("part_a", "part_b", "total", "ttfb", "server_wait"))

    def observe(self) -> None:
        """Turn the kept waits into latencies and observe them in order.

        wait_a shifts the whole server flight, so it lands in part A and
        everything downstream; wait_b happens after the client's Finished
        is already on the wire, so only TTFB sees it. The additions run
        left to right, as one handshake at a time would.
        """
        if not self.wait_a:
            return
        profile = self.profile
        wait_a = np.array(self.wait_a)
        wait_b = np.array(self.wait_b)
        part_a, part_b, total, ttfb, wait = self.histograms
        part_a.observe_many(profile.part_a + wait_a)
        part_b.observe_many(np.full(wait_a.size, profile.part_b))
        total.observe_many(profile.total + wait_a)
        ttfb.observe_many((profile.ttfb + wait_a) + wait_b)
        wait.observe_many(wait_a + wait_b)
        self.wait_a.clear()
        self.wait_b.clear()


class _ShardEngine:
    """One time-slice of the run: arrivals -> queueing -> streamed latencies."""

    def __init__(self, config: TrafficConfig, window: Window, metrics,
                 recorder=NULL_RECORDER):
        self.config = config
        self.window = window
        self.loop = EventLoop()
        self.server = ServerCores(config.server_cores)
        self.spec = parse_arrival(config.arrival, config.duration)
        self.drbg = Drbg(f"traffic:{config.key}").fork(f"shard:{window.index}")
        fractions = config.resume or (0.0,) * len(config.pairs)
        self.channels = []
        self.resume_channels = []
        for (kem, sig), fraction in zip(config.pairs, fractions):
            prefix = f"traffic.{metric_key(kem)}.{metric_key(sig)}."
            self.channels.append(_PairChannel(
                handshake_profile(kem, sig, scenario=config.scenario,
                                  policy=config.policy, seed=config.seed),
                metrics, prefix))
            # a resumed-handshake channel exists only for mixed pairs, so
            # all-full configs build (and draw) exactly what they used to
            self.resume_channels.append(_PairChannel(
                handshake_profile(kem, sig, scenario=config.scenario,
                                  policy=config.policy, seed=config.seed,
                                  session="resume"),
                metrics, prefix + "resume.") if fraction > 0.0 else None)
        self.fractions = fractions
        self._pick = (self.drbg.fork("pair")
                      if len(self.channels) > 1 else None)
        self._resume_pick = (self.drbg.fork("resume")
                             if any(fractions) else None)
        # each pick stream is drawn DRAW_CHUNK at a time; the pending
        # draws are kept latest first so the next one is a list pop
        self._picks: list[int] = []
        self._resume_draws: list[float] = []
        self.pool: list[_Conn] = []
        self.pool_peak = 0
        # (finish, n, conn) per served, not yet retired handshake
        self._finishes: list[tuple[float, int, _Conn]] = []
        self._finish_n = 0
        self._closed = self.spec.closed
        self.in_flight = 0
        self.peak_in_flight = 0
        self.offered = 0
        self.completed = 0
        self.dropped = 0
        # heartbeat bookkeeping (host clock; observation only)
        self._recorder = recorder
        self._beat = recorder.enabled
        self._beat_t = walltime() if self._beat else 0.0
        self._beat_done = 0

    # -- arrival drivers ----------------------------------------------------
    def run(self) -> None:
        loop = self.loop
        if self._closed:
            self._start_closed()
        else:
            # arrivals are not events: the loop runs every event due by
            # an arrival's instant (ties included), then it is admitted
            arrivals = open_arrivals(self.spec, self.window,
                                     self.drbg.fork("arrivals"))
            at = arrivals.next_time()
            while at is not None:
                loop.run(until=at)
                self._begin()
                at = arrivals.next_time()
        # in-flight handshakes complete past the window's end, then the
        # loop goes idle (no budget cap — 1M handshakes is ~2M events)
        loop.run(max_events=1 << 62)
        self._retire(math.inf)

    def _start_closed(self) -> None:
        # clients ramp in uniformly over one think time (10 ms minimum)
        # so a shard never opens with a synchronized thundering herd
        ramp = max(self.spec.think, 0.01)
        stagger = self.drbg.fork("stagger")
        start = self.window.start
        for _ in range(self.spec.clients):
            self.loop.schedule(start + stagger.random() * ramp, self._begin)

    # -- per-handshake hot path (2 events open loop, 4 closed loop) ----------
    def _begin(self) -> None:
        finishes = self._finishes
        if finishes and finishes[0][0] <= self.loop.now:
            self._retire(self.loop.now)
        self.offered += 1
        if self.in_flight >= self.config.max_in_flight:
            self.dropped += 1
            return
        channels = self.channels
        if self._pick is None:
            index = 0
        else:
            picks = self._picks
            if not picks:
                picks = self._picks = self._pick.randints_below(
                    len(channels), DRAW_CHUNK)[::-1]
            index = picks.pop()
        channel = channels[index]
        resume_channel = self.resume_channels[index]
        if resume_channel is not None:
            draws = self._resume_draws
            if not draws:
                draws = self._resume_draws = self._resume_pick.randoms(
                    DRAW_CHUNK)[::-1].tolist()
            if draws.pop() < self.fractions[index]:
                channel = resume_channel
        pool = self.pool
        conn = pool.pop() if pool else _Conn()
        conn.channel = channel
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        self.loop.schedule(channel.profile.a_enqueue,
                           partial(self._enqueue_a, conn))

    def _enqueue_a(self, conn: _Conn) -> None:
        now = self.loop.now
        profile = conn.channel.profile
        start, end = self.server.acquire(now, profile.burst_a)
        conn.wait_a = start - now
        self.loop.schedule(end + profile.b_gap - now,
                           partial(self._enqueue_b, conn))

    def _enqueue_b(self, conn: _Conn) -> None:
        now = self.loop.now
        channel = conn.channel
        profile = channel.profile
        start, end = self.server.acquire(now, profile.burst_b)
        channel.wait_a.append(conn.wait_a)
        channel.wait_b.append(start - now)
        channel.completed += 1
        if len(channel.wait_b) >= OBSERVE_CHUNK:
            channel.observe()
        # the same float the loop would give an event after this delay
        delay = end + profile.resp_transit - now
        self._finish_n += 1
        heappush(self._finishes, (now + delay, self._finish_n, conn))
        if self._closed:
            self.loop.schedule(delay, self._wake)

    def _wake(self) -> None:
        """A closed-loop client's response arrived: think, then go again."""
        now = self.loop.now
        self._retire(now)
        think = self.spec.think
        if now + think < self.window.end:
            self.loop.schedule(think, self._begin)

    def _retire(self, now: float) -> None:
        """Complete every handshake whose response arrived by ``now``."""
        finishes = self._finishes
        pool = self.pool
        done = 0
        while finishes and finishes[0][0] <= now:
            pool.append(heappop(finishes)[2])
            done += 1
        if not done:
            return
        self.in_flight -= done
        before = self.completed
        self.completed = before + done
        if len(pool) > self.pool_peak:
            self.pool_peak = len(pool)
        if self._beat and (before | _HEARTBEAT_MASK) < self.completed:
            self._heartbeat()

    # -- observation ---------------------------------------------------------
    def _heartbeat(self) -> None:
        now = walltime()
        elapsed = now - self._beat_t
        if elapsed < HEARTBEAT_SECONDS:
            return
        done = self.completed
        self._recorder.heartbeat(
            in_flight=self.in_flight, completed=done,
            hps=(done - self._beat_done) / elapsed if elapsed > 0 else None,
            rss=rss_bytes(), shard=self.window.index,
            sim_t=round(self.loop.now, 3))
        self._beat_t = now
        self._beat_done = done

    def finalize(self, metrics) -> dict:
        """Flush shard counters into the registry, return the aggregates."""
        for channel in (*self.channels, *self.resume_channels):
            if channel is not None:
                channel.observe()
        metrics.inc("traffic.offered", self.offered)
        metrics.inc("traffic.completed", self.completed)
        metrics.inc("traffic.dropped", self.dropped)
        metrics.inc("traffic.shards")
        metrics.inc("traffic.server.busy_s", self.server.busy_seconds)
        for channel in self.channels:
            metrics.inc(channel.prefix + "completed", channel.completed)
        for channel in self.resume_channels:
            if channel is not None:
                metrics.inc(channel.prefix + "completed", channel.completed)
        return {
            "offered": self.offered,
            "completed": self.completed,
            "dropped": self.dropped,
            "peak_in_flight": self.peak_in_flight,
            "busy_seconds": self.server.busy_seconds,
            "pool_peak": self.pool_peak,
        }


def _run_shard(config: TrafficConfig, index: int, metrics,
               recorder=NULL_RECORDER) -> dict:
    """Run one shard into ``metrics`` (a fresh per-shard registry)."""
    window = shard_windows(config)[index]
    engine = _ShardEngine(config, window, metrics, recorder=recorder)
    engine.run()
    return engine.finalize(metrics)


def _shard_task(payload: tuple[TrafficConfig, int]) -> tuple[dict, dict]:
    """Worker entry point: one shard -> (metrics snapshot, aggregates)."""
    config, index = payload
    metrics = Metrics()
    shard = _run_shard(config, index, metrics)
    return metrics.snapshot(), shard


def run_traffic(config: TrafficConfig, *, jobs: int | None = 1,
                metrics=NULL_METRICS, recorder=NULL_RECORDER) -> TrafficSummary:
    """Run the full arrival timeline, sharded over ``jobs`` workers.

    The merged content of ``metrics`` — and therefore any exported
    snapshot — is byte-identical at any ``jobs``: both paths run the
    same per-shard task against a fresh registry and merge the snapshots
    in shard-index order; only wall-clock time changes. ``recorder``
    observes (shard progress, heartbeats) and never alters results.
    """
    # fail fast on bad timing or specs, before calibrating profiles
    windows = shard_windows(config)
    parse_arrival(config.arrival, config.duration)
    if config.resume:
        if len(config.resume) != len(config.pairs):
            raise ValueError(
                f"resume needs one fraction per pair: got "
                f"{len(config.resume)} fractions for {len(config.pairs)} pairs")
        for fraction in config.resume:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(
                    f"resume fractions must be in [0, 1], got {fraction!r}")
    fractions = config.resume or (0.0,) * len(config.pairs)
    for (kem, sig), fraction in zip(config.pairs, fractions):
        handshake_profile(kem, sig, scenario=config.scenario,
                          policy=config.policy, seed=config.seed)
        if fraction > 0.0:
            handshake_profile(kem, sig, scenario=config.scenario,
                              policy=config.policy, seed=config.seed,
                              session="resume")
    jobs = fanout.resolve_jobs(jobs)
    flight = recorder.enabled
    started = walltime() if flight else 0.0
    if flight:
        recorder.event("traffic_begin", key=config.key, shards=len(windows),
                       jobs=jobs)

    if jobs == 1 or len(windows) == 1:
        results = []
        for window in windows:
            shard_metrics = Metrics()
            shard = _run_shard(config, window.index, shard_metrics,
                               recorder=recorder)
            results.append((shard_metrics.snapshot(), shard))
            if flight:
                recorder.event("shard_finish", shard=window.index,
                               mode="serial", **shard)
    else:
        payloads = [(config, window.index) for window in windows]
        on_complete = _leader_progress(recorder, started) if flight else None
        results = fanout.run_sharded(_shard_task, payloads, jobs=jobs,
                                     on_complete=on_complete)

    offered = completed = dropped = peak = pool_peak = 0
    busy = 0.0
    for snapshot, shard in results:
        metrics.merge_snapshot(snapshot)
        offered += shard["offered"]
        completed += shard["completed"]
        dropped += shard["dropped"]
        busy += shard["busy_seconds"]
        peak = max(peak, shard["peak_in_flight"])
        pool_peak = max(pool_peak, shard["pool_peak"])
    summary = TrafficSummary(
        config=config, jobs=jobs, shards=len(windows), offered=offered,
        completed=completed, dropped=dropped, peak_in_flight=peak,
        busy_seconds=busy, pool_peak=pool_peak)
    if flight:
        recorder.event("traffic_end", offered=offered, completed=completed,
                       dropped=dropped, shards=len(windows),
                       host_seconds=round(walltime() - started, 6))
    return summary


def _leader_progress(recorder, started: float):
    """Per-shard-completion observer for the parallel path (leader side)."""
    progress = {"shards": 0, "completed": 0}

    def on_complete(index: int, result) -> None:
        _, shard = result
        progress["shards"] += 1
        progress["completed"] += shard["completed"]
        recorder.event("shard_finish", shard=index, mode="worker", **shard)
        elapsed = walltime() - started
        recorder.heartbeat(
            completed=progress["completed"],
            hps=progress["completed"] / elapsed if elapsed > 0 else None,
            rss=rss_bytes(), shards_done=progress["shards"])

    return on_complete
