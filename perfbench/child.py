"""One benchmark child process: set up one workload, then run its rounds.

``run.py`` starts a fresh child for every set-up it measures, so each
child pays imports, kernel tables, recording and calibration itself.
Roles:

- ``setup``: set up, report the set-up seconds, exit;
- ``timed``: set up, then run rounds for ``--seconds``, reporting each
  round's wall, units and output digest;
- ``check``: set up on the golden seed, run one round and compare its
  outputs with ``golden/<workload>.json`` (``--write-golden`` rewrites it);
- ``traced``: one round at ``jobs=2`` with only a flight recorder (the
  executor metrics), serial untraced rounds (the overhead baseline), then
  serial rounds with the layer wrappers installed.

The result is written as JSON to ``--result``. Set-up seconds run from
``--t0``, a ``time.monotonic()`` reading the parent took just before
starting this process. The setup and timed roles also report their
times at nominal host speed (``nominal_*`` fields, see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
import traceback
from pathlib import Path

import tracing
import workloads
from hostspeed import HostSpeed

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
APPROX_TOLERANCE = 0.01       # sketch quantiles: the sketch's own error bound
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# Rounds run serially. On a 2-vCPU VM whose cores are shared with
# neighbours, rounds through a spawned process pool spread 10-13% from
# run to run, against 2-5% serially, so the pool is measured only by the
# traced run's executor pass.
JOBS = 1
EXECUTOR_JOBS = 2


def digest(summary: dict) -> str:
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()[:16]


def record(result: workloads.Round) -> dict:
    return {"wall": result.wall, "units": result.units,
            "digest": digest(result.summary)}


def repeat(seconds: float, min_rounds: int, step) -> list[dict]:
    """Call ``step`` until ``seconds`` passed and ``min_rounds`` ran.

    A round that raises ends the loop and is reported as one failed unit.
    """
    rounds = []
    deadline = time.monotonic() + seconds
    while len(rounds) < min_rounds or time.monotonic() < deadline:
        try:
            rounds.append(step())
        except Exception as exc:  # the program under test failed: report it
            traceback.print_exc()
            rounds.append({"error": repr(exc), "units": 1})
            break
    return rounds


def compare(golden: dict, summary: dict) -> list[str]:
    """Differences between a round's outputs and the golden outputs."""
    summary = json.loads(json.dumps(summary))
    problems = []
    want, got = golden["exact"], summary["exact"]
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            problems.append(f"{key}: expected {want.get(key)!r}, "
                            f"got {got.get(key)!r}")
    want, got = golden["approx"], summary["approx"]
    for key in sorted(set(want) | set(got)):
        if key not in want or key not in got or \
                abs(got[key] - want[key]) > APPROX_TOLERANCE * abs(want[key]):
            problems.append(f"{key}: expected {want.get(key)!r} within "
                            f"{APPROX_TOLERANCE:.0%}, got {got.get(key)!r}")
    return problems


def check(workload, write: bool) -> dict:
    from repro.obs.recorder import NULL_RECORDER

    result = workload.run(JOBS, NULL_RECORDER)
    path = GOLDEN_DIR / f"{workload.name}.json"
    if write:
        path.write_text(json.dumps(result.summary, indent=1, sort_keys=True)
                        + "\n")
        problems = []
    else:
        problems = compare(json.loads(path.read_text()), result.summary)
    return {"round": record(result), "problems": problems}


def timed(workload, seconds: float, speed: HostSpeed) -> dict:
    from repro.obs.hostmeta import host_metadata, peak_rss_bytes
    from repro.obs.recorder import NULL_RECORDER

    def step():
        result = workload.run(JOBS, NULL_RECORDER)
        out = record(result)
        out["wall"], out["nominal_wall"] = speed.at_nominal(
            result.wall, result.start, result.start + result.wall)
        return out

    rounds = repeat(seconds, MIN_ROUNDS, step)
    return {"rounds": rounds, "host": host_metadata(),
            "peak_rss_bytes": peak_rss_bytes(include_children=True)}


def traced(workload, seconds: float, trace_out: Path) -> dict:
    from repro import cache
    from repro.core.executor import resolve_jobs
    from repro.obs.hostmeta import host_metadata
    from repro.obs.recorder import FlightRecorder

    recorder = FlightRecorder()
    result = workload.run(EXECUTOR_JOBS, recorder)
    executor = tracing.executor_values(recorder.events, result.cpu,
                                       result.wall, resolve_jobs(EXECUTOR_JOBS))
    rounds = [record(result)]

    base_walls, unit_max = [], []

    def base_round():
        recorder = FlightRecorder()
        result = workload.run(JOBS, recorder)
        base_walls.append(result.wall)
        unit_max.append(tracing.longest_unit(recorder.events))
        return record(result)

    rounds += repeat(seconds / 3, MIN_TRACED_ROUNDS, base_round)

    tracer = tracing.Tracer()
    traced_walls, per_round, layer_self = [], [], []

    def traced_round():
        tracer.reset()
        before = cache.metrics.snapshot()["counters"]
        result = workload.run(JOBS, FlightRecorder())
        after = cache.metrics.snapshot()["counters"]
        delta = {name: value - before.get(name, 0)
                 for name, value in after.items()}
        tracer.recording = False        # spans of the first round only
        traced_walls.append(result.wall)
        stats = tracer.readout()
        per_round.append(tracing.layer_values(stats, result.facts, delta))
        layer_self.append(tracing.layer_self_seconds(stats))
        return record(result)

    tracer.install()
    try:
        rounds += repeat(seconds / 3, MIN_TRACED_ROUNDS, traced_round)
    finally:
        tracer.uninstall()

    # the fastest round of each kind is the least disturbed by the host
    fastest = traced_walls.index(min(traced_walls)) if traced_walls else None
    layers = dict(per_round[fastest]) if per_round else {}
    self_seconds = layer_self[fastest] if layer_self else {}
    layers.update(executor)
    if base_walls:
        base = base_walls.index(min(base_walls))
        layers["executor.unit_max_s"] = unit_max[base]
        if traced_walls:
            layers["trace.overhead_ratio"] = min(traced_walls) / base_walls[base]
    layers["traffic.calibrate_s"] = getattr(workload, "setup_facts", {}).get(
        "traffic.calibrate_s", 0.0)
    tracer.write_chrome(trace_out, {
        "workload": workload.name, "layer_self_s": self_seconds,
        "metrics": layers, "boundaries_last_round": tracer.readout(),
        "wrapper_s": {"inner": tracer.inner, "outer": tracer.outer}})
    return {"rounds": rounds, "layers": layers, "layer_self_s": self_seconds,
            "host": host_metadata()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", required=True,
                        choices=("setup", "timed", "check", "traced"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    speed = HostSpeed()
    sampled = args.role in ("setup", "timed")
    started = speed.start() if sampled else None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        setup_s = time.monotonic() - args.t0
        out = {"setup_s": setup_s}
        if sampled:
            out["setup_s"], out["nominal_setup_s"] = speed.at_nominal(
                setup_s, started, time.perf_counter())
        if args.role == "check":
            out.update(check(workload, args.write_golden))
        elif args.role == "timed":
            out.update(timed(workload, args.seconds, speed))
        elif args.role == "traced":
            out.update(traced(workload, args.seconds, args.trace_out))
    finally:
        if sampled:
            speed.stop()
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
