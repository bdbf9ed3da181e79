"""Tail-latency report for traffic runs: the load-facing Table 2.

The experiment layer reports medians (the paper's headline numbers);
under load the medians barely move while the tail explodes, so this
report leads with p99/p99.9 per phase and TTFB per (KEM, SIG) pair,
plus the queueing summary (offered/completed/dropped, peak in-flight,
server load factor ρ) that explains *why* the tail looks the way it
does.
"""

from __future__ import annotations

from repro.traffic.engine import TrafficConfig, TrafficSummary, metric_key

QUANTILES = ((0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p99.9"))
PHASES = ("part_a", "part_b", "total", "ttfb", "server_wait")


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.3f}"


def render_traffic(metrics, config: TrafficConfig,
                   summary: TrafficSummary) -> str:
    """The run's per-pair latency table plus the queueing summary."""
    lines = [
        f"traffic: {config.arrival} for {config.duration:g}s on "
        f"{config.scenario!r} ({summary.shards} shards, "
        f"--jobs {summary.jobs}, {config.server_cores} server core(s))",
        "",
        f"{'pair':<28} {'phase':<12} {'count':>9} {'mean':>9} "
        + " ".join(f"{label:>9}" for _, label in QUANTILES)
        + f" {'max':>9}   (ms)",
    ]
    fractions = config.resume or (0.0,) * len(config.pairs)
    for (kem, sig), fraction in zip(config.pairs, fractions):
        prefix = f"traffic.{metric_key(kem)}.{metric_key(sig)}."
        # a resumption mix splits the pair into full and resumed blocks,
        # each with its own latency/TTFB distribution
        blocks = [(f"{kem}/{sig}", prefix)]
        if fraction > 0.0:
            blocks.append((f"{kem}/{sig} (resumed)", prefix + "resume."))
        for pair, block_prefix in blocks:
            for phase in PHASES:
                histogram = metrics.histogram(block_prefix + phase)
                if histogram.count == 0:
                    continue
                cells = " ".join(_ms(histogram.quantile(q))
                                 for q, _ in QUANTILES)
                lines.append(
                    f"{pair:<28} {phase:<12} {histogram.count:>9} "
                    f"{_ms(histogram.mean)} {cells} {_ms(histogram.max)}")
                pair = ""  # print the pair label once per block
    drop_text = (f", {summary.dropped} dropped "
                 f"({summary.dropped / summary.offered:.2%})"
                 if summary.offered else "")
    lines += [
        "",
        f"offered {summary.offered}, completed {summary.completed}"
        + drop_text,
        f"peak in-flight {summary.peak_in_flight} "
        f"(admission cap {config.max_in_flight}), "
        f"connection pool peak {summary.pool_peak}",
        f"server load factor rho = {summary.load_factor:.3f} "
        f"({summary.busy_seconds:.1f} CPU-seconds offered over "
        f"{config.duration * config.server_cores:g} available)",
    ]
    return "\n".join(lines)
