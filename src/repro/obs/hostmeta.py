"""Uniform host metadata for every ``BENCH_*.json`` file.

A benchmark number is only meaningful next to the machine and kernel
mode that produced it: a campaign speedup needs at least two cores
(on one, the executor's clamp runs the pool inline), and
``fast``-kernel wall times are incomparable to ``ref`` ones. The bench
runners embed :func:`host_metadata` under a ``"host"`` key, and
``pqtls-bench-check`` uses :func:`comparable` to refuse
apples-to-oranges diffs before any tolerance band is consulted.

This lives in ``repro.obs`` because describing the host is observation,
not simulation: DET005 confines ``os.cpu_count`` to ``repro.core.fanout``,
and the pragma below is the one sanctioned exception — the value is
only ever *reported*, never fed into simulated results. The ``PQTLS_KERNELS``
mode is read straight from the environment (same default as
``repro.crypto.kernels``) because the layer DAG forbids ``repro.obs``
from importing crypto.
"""

from __future__ import annotations

import os
import platform
import sys

# must match repro.crypto.kernels.DEFAULT (obs may not import crypto)
_KERNELS_ENV = "PQTLS_KERNELS"
_KERNELS_DEFAULT = "fast"

# metadata keys that must match for two benchmark runs to be comparable
FINGERPRINT_KEYS = ("kernels", "machine", "python_major")

# keys whose mismatch invalidates only CPU-topology-sensitive metrics
# (parallel speedups), not the whole file
CPU_KEYS = ("cpu_count",)


def host_metadata() -> dict:
    """The uniform ``"host"`` block: interpreter, machine, kernel mode."""
    version = platform.python_version()
    return {
        "python": version,
        "python_major": version.rsplit(".", 1)[0],       # "3.11"
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),  # pqtls: allow[DET005] — reported, never
        # fed into simulation; bench-check needs it to gate speedup diffs
        "kernels": os.environ.get(_KERNELS_ENV, _KERNELS_DEFAULT),
    }


# /proc and the kilobyte ru_maxrss convention below are Linux-specific;
# on other hosts the probes return None and consumers (flight-recorder
# heartbeats, bench-check) skip the metric instead of raising.
_LINUX = sys.platform.startswith("linux")


def rss_bytes() -> int | None:
    """Current resident set size of this process, or None off-Linux.

    Read from ``/proc/self/statm`` (field 2, pages). Used by the flight
    recorder's heartbeat and the traffic benchmark to show that
    streaming evaluation holds memory flat; purely observational.
    """
    if not _LINUX:
        return None
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError, AttributeError):
        return None


def peak_rss_bytes(include_children: bool = False) -> int | None:
    """High-water resident set size (ru_maxrss), or None off-Linux.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS and absent on
    Windows; rather than guess per-platform scale factors we only report
    on Linux, matching :func:`rss_bytes`.
    """
    if not _LINUX:
        return None
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak * 1024  # Linux reports kilobytes


def comparable(baseline_host: dict, fresh_host: dict) -> list[str]:
    """Fingerprint keys on which two hosts differ (empty = comparable).

    Benchmarks written before the ``host`` block existed return every
    fingerprint key as missing-and-different, so bench-check refuses
    them too — regenerate the baseline rather than compare blind.
    """
    return [key for key in FINGERPRINT_KEYS
            if baseline_host.get(key) != fresh_host.get(key)]


def cpu_mismatch(baseline_host: dict, fresh_host: dict) -> bool:
    """True when CPU topology differs: parallel speedups not comparable."""
    return any(baseline_host.get(key) != fresh_host.get(key)
               for key in CPU_KEYS)
