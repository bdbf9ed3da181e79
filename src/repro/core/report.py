"""Render the paper's tables and figures as aligned text and CSV rows.

Beyond the paper artefacts, :func:`render_trace_report` and
:func:`render_table3_from_spans` turn a handshake trace into the textual
equivalent of ``perf report``: per-library shares, a flamegraph-style
call tree per CPU, and a "why was this slow" summary.
"""

from __future__ import annotations

import csv
import io

from repro.core.analysis import Deviation
from repro.core.campaign import SCENARIO_ORDER
from repro.core.evaluate import AttackMetrics, Table2Row, Table3Row, Table4Row
from repro.obs import flame as obs_flame


def _mark(row) -> str:
    if row.classical:
        return "*"       # pre-quantum (bold in the paper)
    if row.hybrid:
        return "+"       # hybrid (highlighted in the paper)
    return " "


def render_table2(rows: list[Table2Row], title: str) -> str:
    out = [title,
           f"{'Lvl':>3} {'Algorithm':<18} {'partA(ms)':>10} {'partB(ms)':>10} "
           f"{'#Total':>8} {'Client(B)':>10} {'Server(B)':>10}"]
    last_level = None
    for row in rows:
        level = str(row.level) if row.level != last_level else ""
        last_level = row.level
        out.append(
            f"{level:>3} {_mark(row)}{row.algorithm:<17} {row.part_a_ms:>10.2f} "
            f"{row.part_b_ms:>10.2f} {row.n_total:>8d} {row.client_bytes:>10d} "
            f"{row.server_bytes:>10d}"
        )
    out.append("(* pre-quantum, + hybrid)")
    return "\n".join(out)


def render_table3(rows: list[Table3Row]) -> str:
    out = ["Table 3: white-box measurements",
           f"{'Lvl':>3} {'KA':<15} {'SA':<12} {'HS/s':>7} {'srvCPU':>7} {'cliCPU':>7} "
           f"{'pkts s/c':>9}  top libraries (server | client)"]
    for row in rows:
        def top(shares: dict) -> str:
            ranked = sorted(shares.items(), key=lambda item: -item[1])[:3]
            return ",".join(f"{lib} {100 * share:.0f}%" for lib, share in ranked)
        out.append(
            f"{row.level:>3} {row.kem:<15} {row.sig:<12} {row.handshakes_per_s:>7.0f} "
            f"{row.server_cpu_ms:>7.2f} {row.client_cpu_ms:>7.2f} "
            f"{row.server_packets:>4d}/{row.client_packets:<4d} "
            f"{top(row.server_library_share)} | {top(row.client_library_share)}"
        )
    return "\n".join(out)


def render_table4(rows: list[Table4Row], title: str) -> str:
    header = f"{'Lvl':>3} {'Algorithm':<18} " + " ".join(
        f"{s:>13}" for s in SCENARIO_ORDER
    )
    out = [title, header]
    last_level = None
    for row in rows:
        level = str(row.level) if row.level != last_level else ""
        last_level = row.level
        cells = " ".join(f"{row.medians_ms[s]:>13.2f}" for s in SCENARIO_ORDER)
        marker = "*" if row.classical else " "
        out.append(f"{level:>3} {marker}{row.algorithm:<17} {cells}")
    out.append("(median total handshake latency in ms; * pre-quantum)")
    return "\n".join(out)


def render_deviations(deviations: list[Deviation], title: str) -> str:
    out = [title,
           f"{'Lvl':>3} {'KA':<14} {'SA':<16} {'E(ms)':>8} {'M(ms)':>8} {'E-M(ms)':>9}"]
    for dev in deviations:
        out.append(
            f"{dev.level:>3} {dev.kem:<14} {dev.sig:<16} {dev.expected * 1e3:>8.2f} "
            f"{dev.measured * 1e3:>8.2f} {dev.deviation * 1e3:>+9.2f}"
        )
    return "\n".join(out)


def render_improvements(default: list[Deviation], optimized: list[Deviation]) -> str:
    """Figure 3c: how much faster each pair got under the optimized policy."""
    out = ["Figure 3c: latency improvement of the optimized behaviour (ms)"]
    for d_def, d_opt in zip(default, optimized, strict=True):
        if (d_def.kem, d_def.sig) != (d_opt.kem, d_opt.sig):
            raise ValueError(f"unpaired deviations: {d_def.kem} x {d_def.sig} "
                             f"vs {d_opt.kem} x {d_opt.sig}")
        gain_ms = (d_def.measured - d_opt.measured) * 1e3
        out.append(f"{d_opt.kem:<14} {d_opt.sig:<16} {gain_ms:+8.2f}")
    return "\n".join(out)


def render_ranking(kem_ranks: list[tuple[str, int]],
                   sig_ranks: list[tuple[str, int]]) -> str:
    def fmt(ranks):
        return "  ".join(f"{name}:{rank}" for name, rank in ranks)
    return (
        "Figure 4: algorithms ranked by log handshake latency (0 = fastest)\n"
        f"KAs : {fmt(kem_ranks)}\n"
        f"SAs : {fmt(sig_ranks)}"
    )


def render_attack_metrics(metrics: AttackMetrics) -> str:
    kem, sig, ratio = metrics.worst_cpu_ratio
    sig2, amp = metrics.worst_amplification
    return (
        "Section 5.5: attack-surface asymmetry\n"
        f"  worst server/client CPU ratio : {ratio:.1f}x  ({kem} + {sig})\n"
        f"  worst amplification factor    : {amp:.1f}x  (SA {sig2}; QUIC caps at 3x)"
    )


# -- perf-style views over one handshake trace -------------------------------

def _cpu_tracks(tracer) -> list[str]:
    return [track for track in tracer.tracks() if track.endswith("-cpu")]


def render_trace_report(tracer) -> str:
    """perf-report over one traced handshake: shares, call trees, stalls."""
    out = []
    for track in _cpu_tracks(tracer):
        totals = obs_flame.library_breakdown(tracer, track)
        grand = sum(totals.values())
        ranked = sorted(totals.items(), key=lambda item: -item[1])
        shares = "  ".join(f"{lib} {100 * value / grand:.1f}%"
                           for lib, value in ranked) if grand > 0 else "(idle)"
        host = track[: -len("-cpu")]
        out.append(f"{host} CPU {grand * 1e3:.3f} ms — {shares}")
    out.append("")
    for track in _cpu_tracks(tracer):
        out.append(obs_flame.flame_text(tracer, track))
        out.append("")
    out.append(obs_flame.render_slow_summary(obs_flame.summarize_slow(tracer)))
    return "\n".join(out)


def render_table3_from_spans(tracer, result) -> str:
    """Table 3's library percentages regenerated from trace spans.

    The cost-model sums (``client_cpu_by_library``) are printed alongside:
    the two columns must agree, which is the whole point — the trace is a
    faithful decomposition of the simulated CPU time, not a re-estimate.
    """
    config = result.config
    out = [f"Table 3 breakdown from spans — {config.kem} x {config.sig} "
           f"({config.scenario}, {config.policy})"]
    for host, legacy in (("server", result.server_cpu_by_library),
                         ("client", result.client_cpu_by_library)):
        span_totals = obs_flame.library_breakdown(tracer, f"{host}-cpu")
        span_grand = sum(span_totals.values())
        legacy_grand = sum(legacy.values())
        out.append(f"  {host}: {span_grand * 1e3:.3f} ms traced, "
                   f"{legacy_grand * 1e3:.3f} ms per handshake (cost model)")
        out.append(f"    {'library':<10} {'spans':>8} {'model':>8}")
        for lib in sorted(set(span_totals) | set(legacy),
                          key=lambda lib: -span_totals.get(lib, 0.0)):
            from_spans = (100 * span_totals.get(lib, 0.0) / span_grand
                          if span_grand > 0 else 0.0)
            from_model = (100 * legacy.get(lib, 0.0) / legacy_grand
                          if legacy_grand > 0 else 0.0)
            out.append(f"    {lib:<10} {from_spans:>7.1f}% {from_model:>7.1f}%")
    return "\n".join(out)


# -- CSV export (the artifact's latencies.csv / deviations.csv shapes) -------

def latencies_csv(rows: list[Table2Row]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["algorithm", "level", "partAMedian", "partBMedian",
                     "partAllMedian", "nTotal", "clientBytes", "serverBytes"])
    for row in rows:
        writer.writerow([
            row.algorithm, row.level, f"{row.part_a_ms:.4f}", f"{row.part_b_ms:.4f}",
            f"{row.part_a_ms + row.part_b_ms:.4f}", row.n_total,
            row.client_bytes, row.server_bytes,
        ])
    return buffer.getvalue()


def deviations_csv(deviations: list[Deviation]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["kem", "sig", "level", "expectedMs", "measuredMs", "deviationMs"])
    for dev in deviations:
        writer.writerow([
            dev.kem, dev.sig, dev.level, f"{dev.expected * 1e3:.4f}",
            f"{dev.measured * 1e3:.4f}", f"{dev.deviation * 1e3:.4f}",
        ])
    return buffer.getvalue()
