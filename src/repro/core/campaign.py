"""The experiment sets of the paper's Appendix B, by their names.

``all-kem``, ``all-sig``, ``all-[kem,sig]-scenarios``, ``level[1,3,5]``,
``level[1,3,5]-nopush``, ``level[1,3,5]-perf``, and ``all-sphincs``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.executor import run_campaign
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.obs.metrics import NULL_METRICS
from repro.obs.recorder import NULL_RECORDER
from repro.obs.tracer import NULL_TRACER
from repro.pqc.registry import ALL_KEM_NAMES, ALL_SIG_NAMES, LEVEL_GROUPS

BASE_KEM = "x25519"      # fixed KA for all-sig (paper §5)
BASE_SIG = "rsa:2048"    # fixed SA for all-kem

SCENARIO_ORDER = ["none", "high-loss", "low-bandwidth", "high-delay", "lte-m", "5g"]

SPHINCS_VARIANTS = ["sphincs128", "sphincs192", "sphincs256", "sphincs-shake-128f"]

# session-lifecycle sweep: every handshake shape over a classical
# baseline and the paper's level-1/level-3 primary PQ pairs
SESSION_ORDER = ["full", "resume", "mtls", "hrr"]
LIFECYCLE_PAIRS = [
    ("x25519", "rsa:2048"),
    ("kyber512", "dilithium2"),
    ("kyber768", "dilithium3"),
]


def lifecycle() -> list[ExperimentConfig]:
    """Each session shape for each lifecycle pair (scenario ``none``)."""
    return [
        ExperimentConfig(kem=kem, sig=sig, session=session)
        for session in SESSION_ORDER
        for kem, sig in LIFECYCLE_PAIRS
    ]


def all_kem(scenario: str = "none", policy: str = "optimized") -> list[ExperimentConfig]:
    return [
        ExperimentConfig(kem=kem, sig=BASE_SIG, scenario=scenario, policy=policy)
        for kem in ALL_KEM_NAMES
    ]


def all_sig(scenario: str = "none", policy: str = "optimized") -> list[ExperimentConfig]:
    return [
        ExperimentConfig(kem=BASE_KEM, sig=sig, scenario=scenario, policy=policy)
        for sig in ALL_SIG_NAMES
    ]


def all_kem_scenarios() -> list[ExperimentConfig]:
    return [cfg for scenario in SCENARIO_ORDER for cfg in all_kem(scenario)]


def all_sig_scenarios() -> list[ExperimentConfig]:
    return [cfg for scenario in SCENARIO_ORDER for cfg in all_sig(scenario)]


def level(level_number: int, *, nopush: bool = False,
          perf: bool = False) -> list[ExperimentConfig]:
    """Every KA x SA combination on one NIST level (non-hybrid)."""
    group = LEVEL_GROUPS[level_number]
    policy = "default" if nopush else "optimized"
    configs = []
    for kem in group["kems"]:
        for sig in group["sigs"]:
            configs.append(ExperimentConfig(
                kem=kem, sig=sig, policy=policy, profiling=perf,
            ))
    # the independence baselines E(k, s) need M(k, rsa:2048) and
    # M(x25519, s) measured under the same policy
    for kem in group["kems"]:
        configs.append(ExperimentConfig(kem=kem, sig=BASE_SIG, policy=policy,
                                        profiling=perf))
    for sig in group["sigs"]:
        configs.append(ExperimentConfig(kem=BASE_KEM, sig=sig, policy=policy,
                                        profiling=perf))
    configs.append(ExperimentConfig(kem=BASE_KEM, sig=BASE_SIG, policy=policy,
                                    profiling=perf))
    # dedupe, preserving order
    seen = set()
    unique = []
    for cfg in configs:
        if cfg.key not in seen:
            seen.add(cfg.key)
            unique.append(cfg)
    return unique


def all_sphincs() -> list[ExperimentConfig]:
    return [ExperimentConfig(kem=BASE_KEM, sig=sig) for sig in SPHINCS_VARIANTS]


def table3_perf() -> list[ExperimentConfig]:
    """Exactly the white-box (KA, SA) pairs Table 3 displays."""
    from repro.core.evaluate import TABLE3_PAIRS

    return [
        ExperimentConfig(kem=kem, sig=sig, profiling=True)
        for _level, kem, sig in TABLE3_PAIRS
    ]


EXPERIMENT_SETS = {
    "all-kem": all_kem,
    "all-sig": all_sig,
    "all-kem-scenarios": all_kem_scenarios,
    "all-sig-scenarios": all_sig_scenarios,
    "level1": lambda: level(1),
    "level3": lambda: level(3),
    "level5": lambda: level(5),
    "level1-nopush": lambda: level(1, nopush=True),
    "level3-nopush": lambda: level(3, nopush=True),
    "level5-nopush": lambda: level(5, nopush=True),
    "level1-perf": lambda: level(1, perf=True),
    "level3-perf": lambda: level(3, perf=True),
    "level5-perf": lambda: level(5, perf=True),
    "all-sphincs": all_sphincs,
    "table3-perf": table3_perf,
    "lifecycle": lifecycle,
}


def run_set(name: str, *, metrics=NULL_METRICS, jobs: int | None = 1,
            tracer=NULL_TRACER, recorder=NULL_RECORDER) -> dict[str, ExperimentResult]:
    """Run one named experiment set; returns results keyed by config key.

    Pass a :class:`repro.obs.metrics.Metrics` as ``metrics`` to accumulate
    every experiment's counters into one campaign-level registry. ``jobs``
    fans cache misses over that many worker processes via
    :func:`repro.core.executor.run_campaign` (``None`` = one per CPU,
    ``1`` = all inline); every ``jobs`` takes the same path, so results
    and the merged metrics are identical at any value. A
    :class:`repro.obs.recorder.FlightRecorder` as ``recorder`` is the
    set's one progress channel: it logs the campaign's task/cache/timing
    events under the set's name and, when live, shows its progress line.
    """
    try:
        configs = EXPERIMENT_SETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown experiment set {name!r}; known: {sorted(EXPERIMENT_SETS)}"
        ) from None
    return run_campaign(configs, jobs=jobs, metrics=metrics, tracer=tracer,
                        set_name=name, recorder=recorder)


def run_sets(names: Iterable[str], *, metrics=NULL_METRICS,
             jobs: int | None = 1, recorder=NULL_RECORDER) -> dict[str, ExperimentResult]:
    results: dict[str, ExperimentResult] = {}
    for name in names:
        results.update(run_set(name, metrics=metrics, jobs=jobs,
                               recorder=recorder))
    return results
