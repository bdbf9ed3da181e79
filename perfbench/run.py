"""Run the repository benchmark and print its metrics.

    python3 perfbench/run.py                       # all five workloads
    python3 perfbench/run.py --workload NAME [--seed S] [--seconds T] [--trace 1]
    python3 perfbench/run.py --update-golden       # rewrite golden/*.json

One workload is measured by fresh child processes (``child.py``) run
one after another: two that only set up, the timed child (set-up, then
rounds for ``--seconds``), and a check child that runs one round on the
golden seed and compares its outputs with ``golden/<workload>.json``.
``--trace 1`` replaces the timed and set-up children with one traced
child and prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with host metadata and every round, goes to ``out/BENCH_<workload>.json``.
Metric names and units come from ``BENCHMARK.json`` at the repository
root. Exit status: 0 when every output check passed, 1 when one failed
or a child crashed, 2 when the repository or ``BENCHMARK.json`` is
unusable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN_SEED = "bench"
SETUP_SAMPLES = 3         # set-up timings per run, the timed child's included
RUN_DEADLINE_S = 170.0    # per workload, children included

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
              "per_layer"}


def load_spec() -> dict:
    """``BENCHMARK.json``, refusing a file this runner cannot honour."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if set(spec) != _SPEC_KEYS:
        problems.append(f"keys {sorted(spec)} != {sorted(_SPEC_KEYS)}")
    sizes = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
    for key, (low, high) in sizes.items():
        if not low <= len(spec.get(key, ())) <= high:
            problems.append(f"{key}: {len(spec.get(key, ()))} entries, "
                            f"want {low}..{high}")
    names = [entry["name"] for key in sizes for entry in spec.get(key, ())]
    problems += [f"bad name {name!r}" for name in names
                 if not _NAME.fullmatch(name)]
    problems += [f"duplicate name {name!r}" for name in sorted(set(names))
                 if names.count(name) > 1]
    problems += [f"rate {metric['name']!r} ends in _s"
                 for key in ("end_to_end", "per_layer")
                 for metric in spec.get(key, ())
                 if metric["unit"].endswith("/s") and
                 metric["name"].endswith("_s")]
    if problems:
        raise SystemExit("BENCHMARK.json: " + "; ".join(problems))
    return spec


def run_child(role: str, workload: str, seed: str, seconds: float,
              workdir: Path, deadline: float, *extra: str) -> dict | None:
    """Run one child to completion; its JSON result, or None if it failed."""
    child_dir = Path(tempfile.mkdtemp(prefix=f"{role}-", dir=workdir))
    result = child_dir / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "child.py"), "--role", role,
               "--workload", workload, "--seed", seed, "--seconds",
               str(seconds), "--workdir", str(child_dir), "--result",
               str(result), *extra, "--t0", repr(time.monotonic())]
    # its own session, so a timeout also kills the child's pool workers;
    # child stdout goes to stderr, keeping ours for the result line
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"[perfbench] {workload} {role} child timed out", file=sys.stderr)
    finally:
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0 or not result.exists():
        print(f"[perfbench] {workload} {role} child failed "
              f"(exit {proc.returncode})", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def measure(spec: dict, workload: str, seed: str, seconds: float,
            trace: bool, workdir: Path) -> dict | None:
    """Run one workload's children; its full record, or None."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    check = run_child("check", workload, GOLDEN_SEED, 0.0, workdir, deadline)
    if trace:
        setups = []
        main = run_child("traced", workload, seed, seconds, workdir, deadline,
                         "--trace-out", str(OUT / f"trace_{workload}.json"))
    else:
        setups = [run_child("setup", workload, seed, 0.0, workdir, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        main = run_child("timed", workload, seed, seconds, workdir, deadline)
    if main is None or None in setups:
        return None

    rounds = main["rounds"]
    good = [r for r in rounds if "error" not in r]
    reference = good[0]["digest"] if good else None
    attempted = sum(r["units"] for r in rounds)
    failed = sum(r["units"] for r in rounds
                 if "error" in r or r["digest"] != reference)
    if check is None:       # counted as one failed unit
        problems, checked = ["check child failed"], {"units": 1}
    else:
        problems, checked = check["problems"], check["round"]
    attempted += checked["units"]
    failed += checked["units"] if problems else 0
    for problem in problems[:20]:
        print(f"[perfbench] {workload} output check: {problem}",
              file=sys.stderr)

    if trace:
        values = main["layers"]
        declared = spec["per_layer"]
    else:
        # times at nominal host speed (see child.py): a shared VM's own
        # speed drifts by up to 1.5x over minutes, which no number of
        # rounds averages away
        values = {
            "units_per_sec": statistics.median(
                [r["units"] / r["nominal_wall"] for r in good] or [0.0]),
            "setup_s": statistics.median(
                [s["nominal_setup_s"] for s in setups + [main]]),
            "peak_rss_mb": main["peak_rss_bytes"] / 1048576,
        }
        declared = spec["end_to_end"]
    if set(values) != {metric["name"] for metric in declared}:
        raise SystemExit(f"{workload}: measured {sorted(values)} but "
                         f"BENCHMARK.json declares "
                         f"{sorted(m['name'] for m in declared)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"correct": failed == 0 and not problems and bool(good),
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": main["host"],
              "setup_s_samples": [s["setup_s"] for s in setups + [main]],
              "nominal_setup_s_samples": [s.get("nominal_setup_s")
                                          for s in setups + [main]],
              "rounds": rounds, "golden_problems": problems,
              "layer_self_s": main.get("layer_self_s")}
    name = f"BENCH_{workload}{'_trace' if trace else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def show(record: dict) -> None:
    status = "ok" if record["correct"] else "OUTPUT CHECK FAILED"
    print(f"{record['workload']}: {status} ({record['failed']}/"
          f"{record['attempted']} units failed)")
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so run_child still kills its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"[perfbench] no repro sources under {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", default=GOLDEN_SEED,
                        help="labels every DRBG seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per workload (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, print per-layer metrics")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden/<workload>.json from the golden "
                             "seed instead of measuring")
    args = parser.parse_args(argv)

    selected = [args.workload] if args.workload else names
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.update_golden:
            for workload in selected:
                deadline = time.monotonic() + RUN_DEADLINE_S
                if run_child("check", workload, GOLDEN_SEED, 0.0, workdir,
                             deadline, "--write-golden") is None:
                    return 1
                print(f"wrote {HERE / 'golden' / (workload + '.json')}")
            return 0
        records = []
        for workload in selected:
            record = measure(spec, workload, args.seed, args.seconds,
                             bool(args.trace), workdir)
            if record is None:
                return 1
            show(record)
            records.append(record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.workload:
        final = {key: records[0][key] for key in RESULT_KEYS}
    else:
        final = {"correct": all(r["correct"] for r in records),
                 "attempted": sum(r["attempted"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "workloads": {r["workload"]: r["metrics"] for r in records}}
        suite = {**final, "host": records[0]["host"], "seed": args.seed,
                 "seconds": args.seconds, "trace": bool(args.trace)}
        (OUT / "BENCH_suite.json").write_text(json.dumps(suite, indent=1) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
