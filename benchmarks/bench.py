"""The bench runner: writes the ``BENCH_*.json`` baselines ``pqtls-bench-check`` gates.

Every entry of :data:`BENCHES` measures one workload and returns its
payload. The runner adds the :mod:`repro.obs.hostmeta` block, writes
``<out-dir>/BENCH_<name>.json``, prints it, and exits 1 if an absolute
floor (:func:`floor_failures`) is breached. The flight-recorder JSONL of
the campaign and traffic runs and the crypto flame SVGs land next to
the JSON.

- ``campaign``: serial vs ``--jobs 2`` wall clock of a miniature cold
  campaign (``repro.core.executor``).
- ``crypto``: ref-vs-fast timings per algorithm family
  (``repro.crypto.kernels``).
- ``metrics``: the histogram quantile path, the streaming spill, and a
  cold vs warm ``pqtls-lint`` pass (``repro.obs.metrics``,
  ``repro.analysis``).
- ``traffic``: the reference million-handshake run, for throughput and
  flat RSS (``repro.traffic``).

Usage::

    PYTHONPATH=src python benchmarks/bench.py [NAME ...] [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

from repro.analysis.runner import analyze
from repro.core.executor import resolve_jobs, run_campaign
from repro.core.experiment import ExperimentConfig
from repro.crypto import kernels
from repro.crypto.drbg import Drbg
from repro.obs.hostmeta import host_metadata, peak_rss_bytes, rss_bytes
from repro.obs.metrics import DEFAULT_RETENTION, Histogram, Metrics
from repro.obs.recorder import FlightRecorder
from repro.pqc.registry import get_kem, get_sig
from repro.traffic.engine import TrafficConfig, run_traffic

OUT_DIR = Path(__file__).parent / "out"

# absolute floors: they hold even on the first run of a new host, where
# there is no baseline for pqtls-bench-check to compare against
REQUIRE_HANDSHAKES = 1_000_000
MAX_RSS_GROWTH_MB = 256.0
REQUIRE_SPEEDUP = 1.2   # campaign speedup_cold, on hosts with >= 2 CPUs


# ---------------------------------------------------------------- campaign

CAMPAIGN_JOBS = 2   # the CI runner's core count


def bench_grid() -> list[ExperimentConfig]:
    """A miniature cold campaign with one independent recording per worker.

    Distinct seeds give distinct credential *and* script cache keys, so
    the expensive units (one rsa:2048 keygen chain each, ~0.5 s) are
    genuinely parallel work, while the x25519/kyber512 pairing per seed
    adds script-recording and replay traffic, including one lossy
    many-sample scenario per seed.
    """
    configs = []
    for worker in range(CAMPAIGN_JOBS):
        seed = f"bench-{worker}"
        for kem in ("x25519", "kyber512"):
            configs.append(ExperimentConfig(
                kem=kem, sig="rsa:2048", seed=seed, duration=5.0))
        configs.append(ExperimentConfig(
            kem="x25519", sig="rsa:2048", seed=seed, scenario="high-loss",
            max_samples=25, duration=5.0))
    return configs


def timed_run(configs, jobs: int, recorder) -> dict:
    """One cold + one warm pass at ``jobs`` workers on a fresh cache."""
    saved_cache = os.environ.get("REPRO_CACHE_DIR")
    stats: dict = {}
    try:
        with tempfile.TemporaryDirectory(prefix="bench-campaign-") as cache:
            os.environ["REPRO_CACHE_DIR"] = cache
            start = time.perf_counter()
            results = run_campaign(configs, jobs=jobs, metrics=Metrics(),
                                   stats=stats, set_name=f"bench-j{jobs}",
                                   recorder=recorder)
            cold = time.perf_counter() - start
            start = time.perf_counter()
            run_campaign(configs, jobs=jobs, metrics=Metrics())
            warm = time.perf_counter() - start
    finally:
        if saved_cache is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_cache
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


def build_payload(serial: dict, parallel: dict | None) -> dict:
    """The campaign payload; ``parallel`` is None on a 1-CPU host.

    There the executor's clamp would run the parallel pass inline, so it
    is not timed, and the ``parallel`` block and the speedup keys are
    omitted: ``pqtls-bench-check`` reports them as informational
    "missing" rows instead of gating a fabricated 1.0x.
    """
    if parallel is None:
        return {"serial": serial}
    return {
        "serial": serial,
        "parallel": parallel,
        "speedup_cold": round(serial["cold_s"] / parallel["cold_s"], 3),
        "speedup_record_stage": (
            round(serial["record_stage_s"] / parallel["record_stage_s"], 3)
            if parallel["record_stage_s"] > 0 else None),
    }


def bench_campaign(out_dir: Path) -> dict:
    jobs = resolve_jobs(CAMPAIGN_JOBS)
    configs = bench_grid()
    with FlightRecorder(out_dir / "flight_campaign.jsonl") as recorder:
        serial = timed_run(configs, 1, recorder)
        parallel = timed_run(configs, jobs, recorder) if jobs > 1 else None
    return build_payload(serial, parallel)


# ------------------------------------------------------------------ crypto
#
# Host wall clock of *this* library, which is exactly why the simulated
# handshake clock uses the calibrated cost model instead (DESIGN.md §1).
# KEM rows time the full keygen/encaps/decaps roundtrip (the cold
# record-stage shape); signature rows time sign+verify only (certificate
# keygen is one-time and, for RSA, deliberately not kernelised).
# SPHINCS+ is the exception: its row times *keygen*, which walks the
# same thash path (WOTS chains + treehash) as signing at ~1/20 of the
# wall clock. The ``aggregate`` block sums the KEM and SIG rows.

_MESSAGE = b"bench message"
FLAME_SECONDS = 1.0


def _kem_roundtrip(name):
    kem = get_kem(name)

    def run():
        drbg = Drbg(b"bench-kem-" + name.encode())
        pk, sk = kem.keygen(drbg)
        ct, ss = kem.encaps(pk, drbg)
        assert kem.decaps(sk, ct) == ss
    return run


def _sig_cycle(name):
    sig = get_sig(name)
    pk, sk = sig.keygen(Drbg(b"bench-sig-" + name.encode()))

    def run():
        drbg = Drbg(b"bench-sign-" + name.encode())
        s = sig.sign(sk, _MESSAGE, drbg)
        assert sig.verify(pk, _MESSAGE, s)
    return run


def _sig_keygen(name):
    sig = get_sig(name)

    def run():
        sig.keygen(Drbg(b"bench-kg-" + name.encode()))
    return run


def _aes_gcm_record():
    from repro.crypto.gcm import AesGcm

    def run():
        gcm = AesGcm(b"k" * 16)
        for seq in range(8):
            gcm.encrypt(seq.to_bytes(12, "big"), b"x" * 4096, b"aad")
    return run


def _haraka512():
    from repro.crypto import haraka

    def run():
        for i in range(256):
            haraka.haraka512(bytes([i]) * 64)
    return run


def _p256_scalar_mult():
    from repro.crypto.ec.curves import P256

    ks = [Drbg(b"bench-ec").randint(1, P256.n - 1) for _ in range(8)]

    def run():
        for k in ks:
            P256.scalar_mult(k)
    return run


# (section, row name, builder, best-of reps); a builder returns the
# zero-argument function to time
CRYPTO_ROWS = [
    *[("kems", name, partial(_kem_roundtrip, name), 3)
      for name in ("kyber512", "kyber768", "kyber90s512", "kyber90s768",
                   "hqc128", "p256_kyber512")],
    *[("sigs", name, partial(_sig_cycle, name), 3)
      for name in ("dilithium2", "dilithium2_aes", "dilithium5_aes",
                   "rsa:2048")],
    ("sigs", "sphincs128_keygen", partial(_sig_keygen, "sphincs128"), 2),
    ("primitives", "aes_gcm_record_4k", _aes_gcm_record, 3),
    ("primitives", "haraka512", _haraka512, 3),
    ("primitives", "p256_scalar_mult", _p256_scalar_mult, 3),
]

# the two former ~1x stragglers: their flame SVGs ride next to the JSON
# so any future regression comes with its own profile
FLAME_TARGETS = [
    ("flame_hqc128_decaps.svg", partial(_kem_roundtrip, "hqc128")),
    ("flame_dilithium2_sign.svg", partial(_sig_cycle, "dilithium2")),
]


def write_flames(out_dir: Path) -> None:
    """Profile the straggler hot paths (fast kernels) into flame SVGs."""
    from repro.obs.flame import write_flame_svg
    from repro.obs.profiler import SamplingProfiler

    for filename, builder in FLAME_TARGETS:
        with kernels.override("fast"):
            fn = builder()
            with SamplingProfiler(interval=0.001) as profiler:
                deadline = time.perf_counter() + FLAME_SECONDS
                while time.perf_counter() < deadline:
                    fn()
        write_flame_svg(profiler.to_tracer(), "host-cpu", out_dir / filename,
                        title=filename.removesuffix(".svg"))


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_one(builder, reps: int) -> dict:
    """Best-of-``reps`` wall time under each kernel mode.

    Each mode calls the builder once, under that mode and outside the
    timed region, so keygen and memo-table construction stay out of the
    measurement and the two sides share no inputs. The reps then
    alternate ref, fast, ref, fast, ...: a slow spell of a shared host
    lands on both sides instead of only on whichever ran during it.
    """
    modes = ("ref", "fast")
    runs = {}
    for mode in modes:
        with kernels.override(mode):
            runs[mode] = builder()
    times = {mode: float("inf") for mode in modes}
    for _ in range(reps):
        for mode in modes:
            with kernels.override(mode):
                times[mode] = min(times[mode], _time_once(runs[mode]))
    return {
        "ref_s": round(times["ref"], 4),
        "fast_s": round(times["fast"], 4),
        "speedup": round(times["ref"] / times["fast"], 2),
    }


def bench_crypto(out_dir: Path) -> dict:
    report: dict = {"kems": {}, "sigs": {}, "primitives": {}}
    agg_ref = agg_fast = 0.0
    for section, name, builder, reps in CRYPTO_ROWS:
        entry = report[section][name] = bench_one(builder, reps)
        if section != "primitives":
            agg_ref += entry["ref_s"]
            agg_fast += entry["fast_s"]
    report["aggregate"] = {
        "ref_s": round(agg_ref, 4),
        "fast_s": round(agg_fast, 4),
        "speedup": round(agg_ref / agg_fast, 2),
    }
    write_flames(out_dir)
    return report


# ----------------------------------------------------------------- metrics

# cached-sort workload: a window of samples polled for quantiles far
# more often than it is written, as the live progress line does
WINDOW = 2000
READS_PER_WRITE = 50
WRITES = 200

STREAM_N = 100_000
QUANTILES = (0.5, 0.9, 0.99)


def synthetic_latencies(n: int, seed: int = 0xC0FFEE) -> list[float]:
    """Deterministic long-tailed 'handshake latency' stream (seconds)."""
    rng = random.Random(seed)
    return [0.001 + rng.expovariate(1 / 0.042) for _ in range(n)]


def bench_cached_sort() -> dict:
    """``Histogram.quantile``'s cached sorted view vs a re-sort per call."""
    values = synthetic_latencies(WINDOW + WRITES)

    def workload(quantile_of) -> float:
        histogram = Histogram("bench.latency", retention=10 ** 9)
        for value in values[:WINDOW]:
            histogram.observe(value)
        sink = 0.0
        start = time.perf_counter()
        for value in values[WINDOW:]:
            histogram.observe(value)
            for _ in range(READS_PER_WRITE):
                sink += quantile_of(histogram, 0.99)
        elapsed = time.perf_counter() - start
        assert sink > 0
        return elapsed

    cached = workload(lambda h, q: h.quantile(q))

    def resort_every_call(histogram, q):  # what the old implementation did
        ordered = sorted(histogram.samples)
        return ordered[round(q * (len(ordered) - 1))]

    naive = workload(resort_every_call)
    return {
        "reads": WRITES * READS_PER_WRITE,
        "window": WINDOW,
        "cached_s": round(cached, 4),
        "resort_s": round(naive, 4),
        "speedup": round(naive / cached, 2),
    }


def bench_streaming_spill() -> dict:
    """100k observations past the retention bound, and the sketch's error.

    ``observe_s`` feeds them one ``observe`` call at a time,
    ``observe_many_s`` as one ``observe_many`` batch; both must leave the
    same histogram.
    """
    values = synthetic_latencies(STREAM_N)
    exact = sorted(values)
    histogram = Histogram("bench.stream")
    start = time.perf_counter()
    for value in values:
        histogram.observe(value)
    elapsed = time.perf_counter() - start
    batched = Histogram("bench.stream")
    start = time.perf_counter()
    batched.observe_many(values)
    elapsed_many = time.perf_counter() - start
    assert batched.snapshot_entry() == histogram.snapshot_entry()

    streaming = histogram.snapshot_entry()["streaming"]
    errors = {}
    for q in QUANTILES:
        true = exact[round(q * (STREAM_N - 1))]
        errors[f"p{int(q * 100)}_rel_err"] = round(
            abs(histogram.quantile(q) - true) / true, 5)
    return {
        "observations": STREAM_N,
        "retention": DEFAULT_RETENTION,
        "observe_s": round(elapsed, 4),
        "observe_many_s": round(elapsed_many, 4),
        "retained_buckets": len(streaming["sketch"]["buckets"]),
        "reservoir_k": len(streaming["reservoir"]),
        **errors,
    }


def bench_lint_runner() -> dict:
    """Cold vs warm `pqtls-lint` over src/repro with a throwaway cache."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        start = time.perf_counter()
        cold_report = analyze([src], project_root=root)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        warm_report = analyze([src], project_root=root)
        warm = time.perf_counter() - start
    assert warm_report.from_cache == warm_report.files_checked
    return {
        "files": warm_report.files_checked,
        "findings": len(cold_report.findings),
        "cold_s": round(cold, 4),
        "warm_s": round(warm, 4),
        "warm_speedup": round(cold / warm, 2),
    }


def bench_metrics(out_dir: Path) -> dict:
    return {
        "quantile_cached_sort": bench_cached_sort(),
        "streaming_spill": bench_streaming_spill(),
        "lint_runner": bench_lint_runner(),
    }


# ----------------------------------------------------------------- traffic

# ~1.008M offered Poisson arrivals against a 32-core server at rho ~0.83:
# 5 sigma above the 1M floor, so the draw can never undershoot it
TRAFFIC = TrafficConfig(arrival="poisson:25200/s", duration=40.0,
                        shard_seconds=5.0, server_cores=32)
TRAFFIC_JOBS = 1   # the serial path, comparable on any host


def _mb(value: int | None) -> float | None:
    return round(value / 1048576, 1) if value is not None else None


def bench_traffic(out_dir: Path) -> dict:
    """Wall clock, throughput and RSS of the reference traffic run.

    The engine is DRBG-deterministic, so the counts and latency
    quantiles are identical on every host; only the wall-clock and RSS
    numbers move.
    """
    metrics = Metrics()
    rss_before = rss_bytes()
    start = time.perf_counter()
    with FlightRecorder(out_dir / "flight_traffic.jsonl") as recorder:
        summary = run_traffic(TRAFFIC, jobs=TRAFFIC_JOBS, metrics=metrics,
                              recorder=recorder)
    wall = time.perf_counter() - start
    rss_after = rss_bytes()

    total = metrics.histogram("traffic.kyber512.dilithium2.total")
    ttfb = metrics.histogram("traffic.kyber512.dilithium2.ttfb")
    return {
        "workload": {
            "arrival": TRAFFIC.arrival,
            "duration": TRAFFIC.duration,
            "server_cores": TRAFFIC.server_cores,
            "shard_seconds": TRAFFIC.shard_seconds,
            "jobs": summary.jobs,
            "shards": summary.shards,
        },
        "engine_wall_s": round(wall, 3),
        "throughput_hps": round(summary.completed / wall, 1) if wall else None,
        "offered": summary.offered,
        "completed": summary.completed,
        "dropped": summary.dropped,
        "peak_in_flight": summary.peak_in_flight,
        "load_factor": round(summary.load_factor, 4),
        # deterministic per seed: these move only if the model moves
        "latency_ms": {
            "total_p50": round(total.quantile(0.5) * 1e3, 4),
            "total_p99": round(total.quantile(0.99) * 1e3, 4),
            "total_p99_9": round(total.quantile(0.999) * 1e3, 4),
            "ttfb_p99": round(ttfb.quantile(0.99) * 1e3, 4),
        },
        "rss_before_mb": _mb(rss_before),
        "rss_after_mb": _mb(rss_after),
        "rss_growth_mb": (round((rss_after - rss_before) / 1048576, 1)
                          if rss_before is not None and rss_after is not None
                          else None),
        "peak_rss_mb": _mb(peak_rss_bytes()),
    }


# ------------------------------------------------------------------ runner

BENCHES = {
    "campaign": bench_campaign,
    "crypto": bench_crypto,
    "metrics": bench_metrics,
    "traffic": bench_traffic,
}


def floor_failures(name: str, payload: dict) -> list[str]:
    """Absolute floors one ``BENCH_<name>.json`` payload breaches."""
    failures = []
    if name == "traffic":
        if payload["completed"] < REQUIRE_HANDSHAKES:
            failures.append(f"{payload['completed']} handshakes completed "
                            f"< required {REQUIRE_HANDSHAKES}")
        growth = payload["rss_growth_mb"]
        if growth is not None and growth > MAX_RSS_GROWTH_MB:
            failures.append(f"RSS grew {growth} MB > allowed "
                            f"{MAX_RSS_GROWTH_MB} MB")
    # on one CPU there is no parallel pass and so no speedup to gate
    if name == "campaign" and (payload["host"]["cpu_count"] or 1) >= 2 \
            and payload["speedup_cold"] < REQUIRE_SPEEDUP:
        failures.append(f"speedup_cold {payload['speedup_cold']} < required "
                        f"{REQUIRE_SPEEDUP}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"benchmarks to run: {', '.join(BENCHES)} "
                             "(default: all)")
    parser.add_argument("--out-dir", type=Path, default=OUT_DIR,
                        help="where BENCH_<name>.json and its flight and "
                             "flame files go (default benchmarks/out)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - BENCHES.keys())
    if unknown:
        parser.error(f"unknown benchmark(s): {', '.join(unknown)}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for name in args.names or BENCHES:
        print(f"[bench] {name}", file=sys.stderr)
        payload = {"host": host_metadata(), **BENCHES[name](args.out_dir)}
        path = args.out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(json.dumps(payload, indent=1))
        print(f"[bench] wrote {path}", file=sys.stderr)
        failures += [f"{name}: {failure}"
                     for failure in floor_failures(name, payload)]
    for failure in failures:
        print(f"[bench] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
