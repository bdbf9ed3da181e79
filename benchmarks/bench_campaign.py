"""Serial-vs-parallel campaign wall clock (`repro.core.executor`).

Runs the same experiment set twice from a cold cache — once with
``jobs=1`` (every task inline, no pool) and once with ``jobs=N`` —
plus a warm re-run of each, and writes the wall-clock numbers and per-stage
breakdown to ``benchmarks/out/BENCH_campaign.json`` so the perf
trajectory accumulates run over run.

The default grid is sized for CI: it fans ``--jobs`` distinct credential
recordings (per-seed, ~0.5 s of pure-Python RSA keygen each) plus script
recordings and replays, which is the exact shape of a cold Appendix B
campaign in miniature. Pass ``--set level1`` (etc.) for the real thing —
on a 4-core machine the level1 cold run shows the >= 2x speedup the
recordings' parallelism buys.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py [--jobs N]
        [--set NAME] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.core import campaign
from repro.core.executor import resolve_jobs, run_campaign
from repro.core.experiment import ExperimentConfig
from repro.obs.hostmeta import host_metadata, serial_fallback_reason
from repro.obs.metrics import Metrics
from repro.obs.recorder import NULL_RECORDER, FlightRecorder

OUT_DEFAULT = Path(__file__).parent / "out" / "BENCH_campaign.json"


def build_payload(label: str, serial: dict, parallel: dict) -> dict:
    """Assemble the BENCH_campaign payload from the two timed passes.

    When the parallel pass fell back to serial (1-CPU host, jobs=1) the
    fallback block carries only ``jobs`` + the fallback marker and the
    speedup keys are omitted entirely: ``pqtls-bench-check`` then reports
    them as informational "missing" rows instead of gating a fabricated
    1.0x ratio against the multi-core tolerance band.
    """
    payload = {
        "set": label,
        "host": host_metadata(),
        "serial": serial,
        "parallel": parallel,
    }
    if not parallel.get("serial_fallback"):
        payload["speedup_cold"] = round(
            serial["cold_s"] / parallel["cold_s"], 3)
        payload["speedup_record_stage"] = round(
            serial["record_stage_s"] / parallel["record_stage_s"], 3) \
            if parallel["record_stage_s"] > 0 else None
    return payload


def bench_grid(jobs: int) -> list[ExperimentConfig]:
    """A miniature cold campaign with ``jobs`` independent recordings.

    Distinct seeds give distinct credential *and* script cache keys, so
    the expensive units (one rsa:2048 keygen chain each, ~0.5 s) are
    genuinely parallel work, while the x25519/kyber512 pairing per seed
    adds script-recording and replay traffic, including one lossy
    many-sample scenario per seed.
    """
    configs = []
    for worker in range(max(jobs, 2)):
        seed = f"bench-{worker}"
        for kem in ("x25519", "kyber512"):
            configs.append(ExperimentConfig(
                kem=kem, sig="rsa:2048", seed=seed, duration=5.0))
        configs.append(ExperimentConfig(
            kem="x25519", sig="rsa:2048", seed=seed, scenario="high-loss",
            max_samples=25, duration=5.0))
    return configs


def timed_run(configs, jobs: int, cache_dir: str,
              recorder=NULL_RECORDER, set_name: str = "campaign") -> dict:
    """One cold + one warm pass at the given parallelism."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    stats: dict = {}
    start = time.perf_counter()
    results = run_campaign(configs, jobs=jobs, metrics=Metrics(), stats=stats,
                           set_name=set_name, recorder=recorder)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    run_campaign(configs, jobs=jobs, metrics=Metrics())
    warm = time.perf_counter() - start
    return {
        "jobs": jobs,
        "cold_s": round(cold, 3),
        "warm_s": round(warm, 3),
        # cold - warm ~= recording + worker spawn: the parallelizable stage
        "record_stage_s": round(cold - warm, 3),
        "experiments": len(results),
        "dispatched": stats.get("dispatched"),
        "distinct_scripts": stats.get("distinct_scripts"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the campaign executor at --jobs N against "
                    "--jobs 1 on a cold cache.")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default: all cores)")
    parser.add_argument("--set", dest="set_name", default=None,
                        help="named experiment set (e.g. level1) instead of "
                             "the synthetic bench grid")
    parser.add_argument("--out", type=Path, default=OUT_DEFAULT,
                        help=f"output JSON (default {OUT_DEFAULT})")
    parser.add_argument("--flight-record", type=Path, default=None,
                        help="write a flight-recorder JSONL covering the "
                             "cold passes (serial + parallel)")
    parser.add_argument("--require-speedup", type=float, default=None,
                        help="fail (exit 1) unless a genuinely parallel run "
                             "achieves at least this cold-cache speedup; "
                             "also fails if the pool fell back to serial")
    args = parser.parse_args(argv)

    # the executor's own clamp: requesting more workers than cores
    # resolves to the serial fallback, which the serial pass already timed
    jobs = resolve_jobs(args.jobs)
    if args.set_name:
        configs = campaign.EXPERIMENT_SETS[args.set_name]()
    else:
        configs = bench_grid(jobs)
    label = args.set_name or "bench-grid"
    print(f"[bench_campaign] {label}: {len(configs)} experiments, "
          f"serial then --jobs {jobs} (cold cache each)", file=sys.stderr)

    recorder = (FlightRecorder(args.flight_record)
                if args.flight_record else NULL_RECORDER)
    saved_cache = os.environ.get("REPRO_CACHE_DIR")
    try:
        with tempfile.TemporaryDirectory(prefix="bench-serial-") as cache_dir:
            serial = timed_run(configs, 1, cache_dir, recorder,
                               f"{label}-serial")
        fallback = serial_fallback_reason(jobs, os.cpu_count())
        if fallback:
            # the executor would run every task inline, as the jobs=1
            # pass did, so a second timed run would only measure re-run
            # noise; record the fallback without cloning the serial
            # numbers into fake parallel ones (build_payload omits the
            # speedup keys)
            parallel = {"jobs": jobs, "serial_fallback": True,
                        "serial_fallback_reason": fallback}
        else:
            with tempfile.TemporaryDirectory(prefix="bench-parallel-") as cache_dir:
                parallel = timed_run(configs, jobs, cache_dir, recorder,
                                     f"{label}-j{jobs}")
    finally:
        recorder.close()
        if saved_cache is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_cache

    payload = build_payload(label, serial, parallel)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(json.dumps(payload, indent=1))
    print(f"wrote {args.out}", file=sys.stderr)
    if recorder.enabled:
        print(f"wrote {recorder.path} ({len(recorder.events)} events)",
              file=sys.stderr)
    if args.require_speedup is not None:
        speedup = payload.get("speedup_cold")
        if speedup is None:
            print(f"[bench_campaign] FAIL: --require-speedup "
                  f"{args.require_speedup} but the pool fell back to serial "
                  f"({parallel.get('serial_fallback_reason')})",
                  file=sys.stderr)
            return 1
        if speedup < args.require_speedup:
            print(f"[bench_campaign] FAIL: speedup_cold {speedup} < required "
                  f"{args.require_speedup}", file=sys.stderr)
            return 1
        print(f"[bench_campaign] speedup_cold {speedup} >= required "
              f"{args.require_speedup}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
