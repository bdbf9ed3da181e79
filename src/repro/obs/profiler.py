"""Wall-clock sampling profiler for the harness itself.

Everything else in ``repro.obs`` observes the *simulated* clock; this
module observes the *real* one — where the Python process spends its CPU
time while recording kernels or running campaigns. It answers the
question the kernel-speed work keeps raising (which of hqc128 decaps,
dilithium2 sign, an AES-GCM record is actually burning host CPU, and in
which frames) without ``perf`` or any third-party profiler.

A background thread wakes every ``interval`` seconds, grabs the profiled
thread's current Python frame via ``sys._current_frames()``, and records
the stack as a tuple of ``module:function`` frames. Aggregated stacks
are attributed to a coarse category (crypto kernel / crypto / pqc / tls
/ netsim / harness) by their innermost ``repro`` frame — a shared kernel
takes the algorithm of the ``repro.pqc`` frame that called it — and can be
exported through the existing flame / Chrome-trace views: samples are
laid out on a synthetic ``host-cpu`` track where **width is samples, not
wall-clock order** — the usual flamegraph convention.

The sampler is statistical: costs below ``interval`` resolution are
noise, and the sampling thread itself is excluded. This is the only
module in ``repro.obs`` allowed to import ``threading`` (the layer
checker carves out a named exemption): the thread never touches
simulation state, it only reads interpreter frames.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

from repro.obs.tracer import Tracer

DEFAULT_INTERVAL = 0.002  # 2 ms ≈ 500 Hz: cheap, resolves ms-scale kernels

# innermost-frame module prefix -> attribution category, first match wins
CATEGORY_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.crypto.kernels", "kernel"),
    ("repro.crypto", "crypto"),
    ("repro.pqc", "pqc"),
    ("repro.tls", "tls"),
    ("repro.faults", "faults"),
    ("repro.netsim", "netsim"),
    ("repro.cache", "cache"),
    ("repro.obs", "obs"),
    ("repro", "harness"),
)

# algorithm families that refine the "pqc" and "kernel" categories: a
# frame in repro.pqc.hqc.* is attributed "pqc/hqc", one in
# repro.crypto.kernels.dilithium "kernel/dilithium" — so hotspot reports
# and flame SVGs name the algorithm, not just the layer
ALGORITHM_FAMILIES = ("kyber", "dilithium", "hqc", "sphincs", "falcon", "bike")

_FAMILY_ROOTS = {"kernel": "repro.crypto.kernels", "pqc": "repro.pqc"}


def categorize(module: str) -> str:
    """Cost category of one frame's module (``pqc/hqc``-style for crypto)."""
    for prefix, category in CATEGORY_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            root = _FAMILY_ROOTS.get(category)
            if root is not None and module.startswith(root + "."):
                family = module[len(root) + 1:].split(".", 1)[0]
                if family in ALGORITHM_FAMILIES:
                    return f"{category}/{family}"
            return category
    return "other"


def stack_category(stack: tuple[str, ...]) -> str:
    """Attribution of a whole sample: its innermost ``repro`` frame.

    Shared kernels (``kernels.lattice``, ``kernels.aes``, ``kernels.gcm``)
    name no algorithm, so a plain ``kernel`` frame takes the family of the
    nearest enclosing ``repro.pqc.<family>`` frame: a lattice NTT inside
    Dilithium signing reads ``kernel/dilithium``.
    """
    categories = [categorize(frame.split(":", 1)[0]) for frame in stack]
    for depth in range(len(stack) - 1, -1, -1):
        category = categories[depth]
        if category == "kernel":
            for outer in reversed(categories[:depth]):
                if outer.startswith("pqc/"):
                    return "kernel/" + outer[len("pqc/"):]
        if category != "other":
            return category
    return "other"


@dataclass(frozen=True)
class Hotspot:
    """One frame's share of the profile."""

    frame: str          # "module:function"
    category: str
    self_seconds: float
    total_seconds: float


class SamplingProfiler:
    """Samples the calling thread's Python stack on the host clock.

    Use as a context manager around the work to profile::

        with SamplingProfiler() as profiler:
            run_campaign(...)
        print(profiler.report())

    ``stacks`` maps root-first ``module:function`` tuples to sample
    counts; one sample stands for ``interval`` seconds of host CPU.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.interval = interval
        self.stacks: dict[tuple[str, ...], int] = {}
        self.sample_count = 0
        self.wall_seconds = 0.0
        self._target_ident: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="pqtls-profiler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        self.wall_seconds += time.perf_counter() - self._started_at

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target_ident)
            if frame is None:
                continue
            stack = self._extract(frame)
            if stack:
                self.stacks[stack] = self.stacks.get(stack, 0) + 1
            self.sample_count += 1

    @staticmethod
    def _extract(frame) -> tuple[str, ...]:
        frames: list[str] = []
        while frame is not None:
            module = frame.f_globals.get("__name__", "?")
            frames.append(f"{module}:{frame.f_code.co_name}")
            frame = frame.f_back
        frames.reverse()  # root first
        # trim harness entry noise (pytest, runpy, CLI glue) above the
        # first repro frame; keep everything if the stack never enters repro
        for index, entry in enumerate(frames):
            if entry.startswith("repro"):
                return tuple(frames[index:])
        return tuple(frames)

    # -- aggregation -------------------------------------------------------
    @property
    def sampled_seconds(self) -> float:
        return self.sample_count * self.interval

    def category_seconds(self) -> dict[str, float]:
        """Host seconds per attribution category (kernel/pqc/tls/...)."""
        totals: dict[str, float] = {}
        for stack, count in self.stacks.items():
            category = stack_category(stack)
            totals[category] = totals.get(category, 0.0) + count * self.interval
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def hotspots(self, top: int = 10) -> list[Hotspot]:
        """Frames ranked by self time (samples where they are innermost)."""
        self_counts: dict[str, int] = {}
        total_counts: dict[str, int] = {}
        for stack, count in self.stacks.items():
            self_counts[stack[-1]] = self_counts.get(stack[-1], 0) + count
            for entry in set(stack):
                total_counts[entry] = total_counts.get(entry, 0) + count
        ranked = sorted(self_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            Hotspot(frame=entry,
                    category=categorize(entry.split(":", 1)[0]),
                    self_seconds=count * self.interval,
                    total_seconds=total_counts[entry] * self.interval)
            for entry, count in ranked[:top]
        ]

    # -- export ------------------------------------------------------------
    def to_tracer(self, track: str = "host-cpu") -> Tracer:
        """Lay the aggregated stacks out as spans on one track.

        Sibling frames are merged into a flame trie first, so the result
        reads like a flamegraph in every existing view (``flame_text``,
        Chrome trace, SVG): span width is sampled host seconds, start
        offsets are synthetic.
        """
        trie: dict = {}
        for stack, count in self.stacks.items():
            node = trie
            for entry in stack:
                child = node.setdefault(entry, {"#": 0, ">": {}})
                child["#"] += count
                node = child[">"]

        tracer = Tracer()

        def emit(children: dict, offset: float) -> float:
            for entry in sorted(children):
                node = children[entry]
                width = node["#"] * self.interval
                module = entry.split(":", 1)[0]
                tracer.begin(track, entry, offset, cat=categorize(module))
                emit(node[">"], offset)
                tracer.end(track, offset + width)
                offset += width
            return offset

        emit(trie, 0.0)
        return tracer

    def report(self, top: int = 10) -> str:
        """Human-readable summary: categories, then top frames by self time."""
        lines = [f"host-cpu profile — {self.sample_count} samples "
                 f"@ {self.interval * 1e3:.1f} ms over {self.wall_seconds:.2f} s"]
        sampled = self.sampled_seconds
        lines.append("  by category:")
        for category, seconds in self.category_seconds().items():
            share = 100.0 * seconds / sampled if sampled else 0.0
            lines.append(f"    {share:5.1f}%  {seconds:8.3f} s  {category}")
        lines.append(f"  top {top} frames by self time:")
        for spot in self.hotspots(top):
            share = 100.0 * spot.self_seconds / sampled if sampled else 0.0
            lines.append(f"    {share:5.1f}%  {spot.self_seconds:8.3f} s  "
                         f"{spot.frame} [{spot.category}]")
        return "\n".join(lines)
