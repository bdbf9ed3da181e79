"""``pqtls-bench-check``: the perf-regression gate over ``BENCH_*.json``.

Compares freshly-measured benchmark JSON against the committed baselines
in ``benchmarks/out/`` and fails (exit 1) when any metric regressed past
its tolerance band. Three rules keep the gate honest:

- **Hosts must match.** Every benchmark embeds the
  :mod:`repro.obs.hostmeta` block; if the fingerprint (kernel mode,
  machine, interpreter line) differs, the diff is refused outright
  (exit 2) — a fast-kernel baseline tells you nothing about a ref run.
  CPU-topology mismatches are softer: only parallel-speedup metrics are
  skipped, the rest still gate.
- **Direction comes from the name.** Metrics containing ``speedup`` are
  higher-is-better; metrics ending in ``_s`` are wall seconds,
  lower-is-better; everything else is informational (printed, never
  failed) — counts and sizes change legitimately with the grid.
- **Bands are per-metric patterns.** :data:`TOLERANCES` maps fnmatch
  patterns over flattened metric paths (``kems.kyber512.speedup``,
  ``serial.cold_s``) to the allowed fractional regression; first match
  wins. Ratios (speedups) are host-normalized so their bands are tight;
  absolute seconds get a wide band that only catches catastrophes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fnmatch import fnmatchcase
from pathlib import Path

from repro.obs.hostmeta import comparable, cpu_mismatch

# (pattern over flattened metric paths, allowed fractional regression);
# first match wins
TOLERANCES: list[tuple[str, float]] = [
    # the cached-sort microbench divides two tiny timings
    ("quantile_cached_sort.speedup", 0.8),
    # the warm lint pass is a few milliseconds of cache reads
    ("lint_runner.warm_speedup", 0.8),
    # the multi-core campaign ratio: worker spawn and scheduling noise on
    # a shared 2-core runner earn it a slightly wider band
    ("speedup_cold", 0.35),
    # other speedups are same-host ratios, so their band is tight
    ("*speedup*", 0.4),
    # absolute wall seconds swing with runner load: only a 4x slowdown fails
    ("*_s", 3.0),
]

# metrics meaningless when CPU topology differs
CPU_SENSITIVE = ("speedup_cold", "speedup_record_stage", "parallel.*")

OK, REGRESSION, SKIPPED, INFO = "ok", "REGRESSION", "skipped", "info"


def flatten(payload: dict, prefix: str = "") -> dict[str, float]:
    """Dotted-path view of every numeric leaf, ``host.*`` excluded."""
    out: dict[str, float] = {}
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if path == "host" or path.startswith("host."):
            continue
        if isinstance(value, dict):
            out.update(flatten(value, f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[path] = float(value)
    return out


def direction(path: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 informational."""
    leaf = path.rsplit(".", 1)[-1]
    if "speedup" in leaf:
        return 1
    if leaf.endswith("_s"):
        return -1
    return 0


def tolerance_for(path: str) -> float | None:
    for pattern, band in TOLERANCES:
        if fnmatchcase(path, pattern):
            return band
    return None


def check_pair(baseline: dict, fresh: dict) -> tuple[list[dict], list[str]]:
    """Diff one benchmark payload pair.

    Returns ``(rows, host_mismatches)``: one row per metric present in
    either side, and the fingerprint keys that made the pair
    incomparable (rows are still produced for the report, but callers
    must treat any mismatch as a refusal).
    """
    baseline_host = baseline.get("host", {})
    fresh_host = fresh.get("host", {})
    mismatches = comparable(baseline_host, fresh_host)
    cpus_differ = cpu_mismatch(baseline_host, fresh_host)

    base_metrics = flatten(baseline)
    fresh_metrics = flatten(fresh)
    rows: list[dict] = []
    for path in sorted(base_metrics | fresh_metrics):
        row = {"metric": path, "baseline": base_metrics.get(path),
               "fresh": fresh_metrics.get(path), "status": INFO, "note": ""}
        rows.append(row)
        if row["baseline"] is None or row["fresh"] is None:
            row["note"] = "missing in " + (
                "fresh" if row["fresh"] is None else "baseline")
            continue
        sense = direction(path)
        if sense == 0:
            continue
        if cpus_differ and any(fnmatchcase(path, pattern)
                               for pattern in CPU_SENSITIVE):
            row["status"] = SKIPPED
            row["note"] = "cpu topology differs"
            continue
        band = tolerance_for(path)
        if band is None:
            continue
        if row["baseline"] == 0:
            row["note"] = "zero baseline"
            continue
        # positive = got worse, as a fraction of the baseline
        change = (row["fresh"] - row["baseline"]) / abs(row["baseline"])
        regression = -change if sense > 0 else change
        row["regression"] = round(regression, 4)
        row["band"] = band
        row["status"] = REGRESSION if regression > band else OK
    return rows, mismatches


def _render(name: str, rows: list[dict], mismatches: list[str],
            out) -> None:
    print(f"== {name}", file=out)
    if mismatches:
        print(f"   host fingerprint differs on: {', '.join(mismatches)} "
              "— refusing to compare (regenerate the baseline on this host)",
              file=out)
    for row in rows:
        if row["status"] == INFO and not row["note"]:
            continue  # silent: unchanged informational metric
        base = "-" if row["baseline"] is None else f"{row['baseline']:g}"
        new = "-" if row["fresh"] is None else f"{row['fresh']:g}"
        detail = row["note"]
        if "regression" in row:
            detail = (f"{row['regression']:+.1%} vs band "
                      f"{row['band']:.0%}")
        print(f"   {row['status']:>10}  {row['metric']:<32} "
              f"{base:>10} -> {new:>10}  {detail}", file=out)


def check_files(pairs: list[tuple[str, Path, Path]], out=None) -> int:
    """Check (name, baseline_path, fresh_path) pairs; return exit code."""
    out = out if out is not None else sys.stderr
    exit_code = 0
    for name, baseline_path, fresh_path in pairs:
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        rows, mismatches = check_pair(baseline, fresh)
        _render(name, rows, mismatches, out)
        if mismatches:
            exit_code = max(exit_code, 2)
        elif any(row["status"] == REGRESSION for row in rows):
            exit_code = max(exit_code, 1)
    verdict = {0: "no regressions", 1: "REGRESSION", 2: "host mismatch"}
    print(f"pqtls-bench-check: {verdict[exit_code]} "
          f"({len(pairs)} file(s) checked)", file=out)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pqtls-bench-check",
        description="Diff fresh BENCH_*.json against committed baselines; "
                    "exit 1 on perf regression, 2 on host mismatch.")
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path("benchmarks/out"),
                        help="committed baselines (default benchmarks/out)")
    parser.add_argument("--fresh-dir", type=Path, required=True,
                        help="directory holding freshly measured BENCH_*.json")
    parser.add_argument("names", nargs="*",
                        help="restrict to these file names "
                             "(default: every BENCH_*.json in --fresh-dir)")
    args = parser.parse_args(argv)

    names = args.names or sorted(
        path.name for path in args.fresh_dir.glob("BENCH_*.json"))
    if not names:
        print(f"pqtls-bench-check: no BENCH_*.json under {args.fresh_dir}",
              file=sys.stderr)
        return 2
    pairs = []
    for name in names:
        baseline_path = args.baseline_dir / name
        fresh_path = args.fresh_dir / name
        if not baseline_path.exists():
            print(f"pqtls-bench-check: no committed baseline for {name} "
                  f"(expected {baseline_path})", file=sys.stderr)
            return 2
        if not fresh_path.exists():
            print(f"pqtls-bench-check: missing fresh measurement {fresh_path}",
                  file=sys.stderr)
            return 2
        pairs.append((name, baseline_path, fresh_path))
    return check_files(pairs)


if __name__ == "__main__":
    raise SystemExit(main())
