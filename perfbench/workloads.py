"""The five benchmark workloads, each driven through a public entry point.

A workload is built once per benchmark child process (its constructor is
the measured set-up: imports, kernel tables, script recording,
calibration) and then runs *rounds*. A round is one call into the
program under test on inputs derived only from the seed, so every round
of a child does identical work and must produce identical outputs.

``run`` returns a :class:`Round`: the start and host seconds of the
timed call alone (cache directories are created and removed outside
it), the work units it completed, a ``summary`` of the outputs that the
golden files pin, and ``facts`` read from the outputs for the per-layer
metrics.

repro is imported inside each constructor, so set-up time covers exactly
the modules a workload needs, and spawned pool workers that re-import
this module stay cheap.
"""

from __future__ import annotations

import hashlib
import io
import os
import resource
import shutil
import tarfile
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Eight (KEM, SIG) pairs spanning every KEM family and wire sizes from
# 0.9 KB to 8 KB per flight. rsa:2048 and falcon512 are left out of the
# recorded workloads: prime search and NTRU solving make their keygen
# cost vary up to 2x with the seed, which would swamp the bound.
PAIRS = (
    ("kyber512", "dilithium2"),
    ("kyber768", "dilithium3"),
    ("hqc128", "dilithium2"),
    ("bikel1", "dilithium2"),
    ("p256_kyber512", "p256_dilithium2"),
    ("kyber1024", "dilithium5"),
    ("kyber90s512", "dilithium2_aes"),
    ("x25519", "dilithium2"),
)

LINT_TREE = HERE / "inputs" / "lint_tree.tar.gz"
LINT_TREE_SHA256 = "10c4c0fa490cb0e069d731eefe307bb791e5070aa4ddfa8a54595f83ae45869c"


@dataclass
class Round:
    start: float                 # time.perf_counter() at the timed call
    wall: float                  # host seconds of the timed call
    cpu: float                   # CPU seconds of it, pool workers included
    units: int                   # work units completed
    summary: dict                # {"exact": {...}, "approx": {...}}
    facts: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    """CPU seconds of this process plus its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _timed(call, *args, **kwargs):
    """``call``'s result, start, host seconds and CPU seconds."""
    cpu = cpu_seconds()
    start = time.perf_counter()
    result = call(*args, **kwargs)
    wall = time.perf_counter() - start
    return result, start, wall, cpu_seconds() - cpu


def _experiment_round(results: dict, start: float, wall: float, cpu: float,
                      units: int) -> Round:
    """Summarize a ``run_campaign`` result dict (keyed by config key)."""
    exact = {}
    retransmits = failed = 0
    for key in sorted(results):
        result = results[key]
        exact[key] = {
            "n_handshakes": result.n_handshakes,
            "samples": len(result.total_samples),
            "part_a": result.part_a_median,
            "part_b": result.part_b_median,
            "total": result.total_median,
            "ttfb": result.ttfb_median,
            "bytes": [result.client_bytes, result.server_bytes],
            "packets": [result.client_packets, result.server_packets],
            "outcomes": dict(sorted(result.outcomes.items())),
        }
        counters = result.metrics.get("counters", {})
        retransmits += sum(value for name, value in counters.items()
                           if name.endswith("retransmits"))
        failed += result.n_failures
    return Round(start, wall, cpu, units, {"exact": exact, "approx": {}},
                 {"netsim.retransmits": retransmits, "netsim.failed": failed})


class CampaignCold:
    """72 experiments from an empty cache: record 24 scripts, replay them.

    Signing cost varies with the seed (rejection sampling), by ~13% per
    script; three seed labels per round average it down to ~3%.
    """

    name = "campaign-cold"
    scenarios = ("none", "5g", "lte-m")
    seeds = 3
    max_samples = 15

    def __init__(self, seed: str, workdir: Path):
        from repro.core import executor
        from repro.core.experiment import ExperimentConfig
        from repro.crypto import kernels
        from repro.obs.metrics import Metrics

        kernels.warm()
        self._executor, self._metrics = executor, Metrics
        self.workdir = workdir
        # a long period: with the default 60 s, an lte-m run whose first
        # handshake times out (600 s) ends with no success and raises
        self.configs = [ExperimentConfig(kem=kem, sig=sig, scenario=scenario,
                                         seed=f"{seed}-{index}",
                                         duration=7200.0,
                                         max_samples=self.max_samples)
                        for index in range(self.seeds) for kem, sig in PAIRS
                        for scenario in self.scenarios]

    def run(self, jobs: int, recorder) -> Round:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            results, start, wall, cpu = _timed(
                self._executor.run_campaign, self.configs, jobs=jobs,
                metrics=self._metrics(), recorder=recorder)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return _experiment_round(results, start, wall, cpu, len(results))


class ReplayLossy:
    """Cached scripts replayed over lossy links: netsim/TCP/event loop."""

    name = "replay-lossy"
    scenarios = ("5g", "lte-m", "high-loss")
    max_samples = 80

    def __init__(self, seed: str, workdir: Path):
        from repro.core import executor
        from repro.core.experiment import ExperimentConfig, load_script
        from repro.crypto import kernels
        from repro.obs.metrics import Metrics
        from repro.tls.server import BufferPolicy

        kernels.warm()
        self._executor, self._metrics = executor, Metrics
        self.cache_dir = workdir / "cache"
        os.environ["REPRO_CACHE_DIR"] = str(self.cache_dir)
        label = f"{seed}-0"
        for kem, sig in PAIRS:
            load_script(kem, sig, BufferPolicy("optimized"), label)
        self.configs = [ExperimentConfig(kem=kem, sig=sig, scenario=scenario,
                                         seed=label, duration=7200.0,
                                         max_samples=self.max_samples)
                        for kem, sig in PAIRS for scenario in self.scenarios]

    def run(self, jobs: int, recorder) -> Round:
        # scripts stay cached; results must be recomputed every round
        shutil.rmtree(self.cache_dir / "experiment", ignore_errors=True)
        results, start, wall, cpu = _timed(
            self._executor.run_campaign, self.configs, jobs=jobs,
            metrics=self._metrics(), recorder=recorder)
        units = sum(len(result.total_samples) for result in results.values())
        return _experiment_round(results, start, wall, cpu, units)


class _Traffic:
    """Open-loop traffic engine runs; set-up calibrates every profile."""

    quantiles = (0.5, 0.99, 0.999)

    def __init__(self, seed: str, workdir: Path):
        from repro.obs.metrics import Metrics
        from repro.traffic import engine
        from repro.traffic.profile import handshake_profile

        self._engine, self._metrics = engine, Metrics
        os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
        self.config = engine.TrafficConfig(**self.settings, seed=seed)
        start = time.perf_counter()
        fractions = self.config.resume or (0.0,) * len(self.config.pairs)
        for (kem, sig), fraction in zip(self.config.pairs, fractions):
            handshake_profile(kem, sig, seed=self.config.seed)
            if fraction:
                handshake_profile(kem, sig, seed=self.config.seed,
                                  session="resume")
        self.setup_facts = {"traffic.calibrate_s": time.perf_counter() - start}

    def run(self, jobs: int, recorder) -> Round:
        metrics = self._metrics()
        summary, start, wall, cpu = _timed(
            self._engine.run_traffic, self.config, jobs=jobs, metrics=metrics,
            recorder=recorder)
        if summary.completed + summary.dropped != summary.offered:
            raise RuntimeError(
                f"traffic accounting broken: {summary.completed} completed + "
                f"{summary.dropped} dropped != {summary.offered} offered")
        approx = {}
        for name in metrics.names():
            if name.endswith((".total", ".ttfb")):
                histogram = metrics.histogram(name)
                for q in self.quantiles:
                    approx[f"{name}.p{q:g}"] = histogram.quantile(q)
        exact = {"offered": summary.offered, "completed": summary.completed,
                 "dropped": summary.dropped, "shards": summary.shards,
                 "peak_in_flight": summary.peak_in_flight}
        facts = {"completed": summary.completed,
                 "traffic.peak_in_flight": summary.peak_in_flight,
                 "traffic.refused_ratio": summary.dropped / summary.offered}
        return Round(start, wall, cpu, summary.completed,
                     {"exact": exact, "approx": approx}, facts)


class TrafficOpen(_Traffic):
    """Poisson arrivals at rho ~0.85 on 32 simulated cores."""

    name = "traffic-open"
    settings = {"arrival": "poisson:25200/s", "duration": 2.0,
                "pairs": (("kyber512", "dilithium2"),), "server_cores": 32,
                "shard_seconds": 1.0}


class TrafficFlash(_Traffic):
    """A flash crowd past the admission cap, two pairs, half resumed."""

    name = "traffic-flash"
    settings = {"arrival": "flash:15000/s,peak=60000/s,at=1.5,width=1",
                "duration": 4.0,
                "pairs": (("kyber512", "dilithium2"),
                          ("p256_kyber512", "p256_dilithium2")),
                "resume": (0.5, 0.5), "server_cores": 32,
                "shard_seconds": 1.0, "max_in_flight": 20_000}


class LintCold:
    """Whole-program lint of a frozen source tree with an empty lint cache.

    The input does not depend on the seed: a change that adds source code
    to the repository does not change this workload.
    """

    name = "lint-cold"

    def __init__(self, seed: str, workdir: Path):
        from repro.analysis import runner

        self._runner = runner
        data = LINT_TREE.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != LINT_TREE_SHA256:
            raise RuntimeError(f"{LINT_TREE.name} sha256 {digest} does not "
                               f"match the pinned {LINT_TREE_SHA256}")
        self.root = workdir / "lint"
        with tarfile.open(fileobj=io.BytesIO(data)) as archive:
            archive.extractall(self.root, filter="data")

    def run(self, jobs: int, recorder) -> Round:
        shutil.rmtree(self.root / ".cache", ignore_errors=True)
        report, start, wall, cpu = _timed(self._runner.analyze,
                                          [self.root / "src" / "repro"],
                                          project_root=self.root, jobs=jobs)
        findings = sorted([f.path, f.line, f.code] for f in report.findings)
        exact = {"files": report.files_checked,
                 "pragma_suppressed": report.pragma_suppressed,
                 "findings": findings}
        return Round(start, wall, cpu, report.files_checked,
                     {"exact": exact, "approx": {}},
                     {"analysis.findings": len(findings)})


WORKLOADS = {workload.name: workload for workload in
             (CampaignCold, ReplayLossy, TrafficOpen, TrafficFlash, LintCold)}
