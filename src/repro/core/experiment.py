"""One measurement run: sequential handshakes for 60 (simulated) seconds.

Mirrors the paper's §4: for a (KA, SA, scenario, OpenSSL-policy) tuple,
TLS handshakes run back-to-back for the measurement period; the reported
latencies are medians over the period. Between handshakes the testbed
pays a fixed tooling gap (process startup, TCP teardown) calibrated so the
per-period handshake counts land near Table 2's.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.crypto.drbg import Drbg
from repro import cache
from repro.faults.errors import FailureQuotaExceeded
from repro.faults.outcome import KIND_TIMEOUT
from repro.faults.plan import CORRUPT_DELIVER, resolve_fault_plan
from repro.netsim.costmodel import CostModel
from repro.netsim.netem import SCENARIOS
from repro.netsim.scripted import HandshakeScript, ScriptReplay, record_script
from repro.netsim.testbed import run_simulated_handshake
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.obs.tracer import NULL_TRACER
from repro.tls.server import BufferPolicy

# Calibration: with this gap the no-emulation counts match Table 2
# (x25519/rsa:2048 -> ~22k handshakes per 60 s).
INTER_HANDSHAKE_GAP = 0.0009

# Defaults for the failure-handling knobs, kept out of the config key when
# unchanged: the key seeds each run's DRBG, so lossy cells keep their bytes.
DEFAULT_HANDSHAKE_TIMEOUT = 600.0
DEFAULT_FAILURE_QUOTA = 50


@dataclass(frozen=True)
class ExperimentConfig:
    kem: str
    sig: str
    scenario: str = "none"
    policy: str = "optimized"          # "optimized" | "default"
    profiling: bool = False            # white-box (perf) run
    duration: float = 60.0             # measurement period, seconds
    seed: str = "paper"
    max_samples: int = 151             # cap on simulated handshakes per run
    faults: str = "none"               # FaultPlan name or key=value spec
    handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT  # per-handshake wall clock
    failure_quota: int = DEFAULT_FAILURE_QUOTA  # failed handshakes tolerated per run
    session: str = "full"              # handshake shape (repro.tls.scenarios)
    chain: str = "direct"              # certificate-chain profile (certs.py)

    @property
    def key(self) -> str:
        base = (f"{self.kem}|{self.sig}|{self.scenario}|{self.policy}"
                f"|prof={self.profiling}|dur={self.duration}|seed={self.seed}"
                f"|max={self.max_samples}")
        # newer knobs append only when set: the key seeds the run's DRBG
        # (``experiment:{key}``), so it fixes the bytes of every lossy cell
        plan_spec = resolve_fault_plan(self.faults).spec
        if plan_spec != "none":
            base += f"|faults={plan_spec}"
        if self.handshake_timeout != DEFAULT_HANDSHAKE_TIMEOUT:
            base += f"|hsto={self.handshake_timeout}"
        if self.failure_quota != DEFAULT_FAILURE_QUOTA:
            base += f"|quota={self.failure_quota}"
        if self.session != "full":
            base += f"|session={self.session}"
        if self.chain != "direct":
            base += f"|chain={self.chain}"
        return base


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    part_a_samples: list[float]
    part_b_samples: list[float]
    total_samples: list[float]
    n_handshakes: int
    client_bytes: int
    server_bytes: int
    client_packets: int
    server_packets: int
    client_cpu_ms: float = 0.0
    server_cpu_ms: float = 0.0
    client_cpu_by_library: dict = field(default_factory=dict)
    server_cpu_by_library: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)  # Metrics.snapshot() of the run
    # outcome-key -> count over every attempted handshake ("success",
    # "timeout", "transport-error", "alert.<name>")
    outcomes: dict = field(default_factory=dict)
    # connect -> first application byte, per successful handshake
    ttfb_samples: list = field(default_factory=list)

    @property
    def n_failures(self) -> int:
        return sum(n for key, n in self.outcomes.items() if key != "success")

    @property
    def part_a_median(self) -> float:
        return statistics.median(self.part_a_samples)

    @property
    def part_b_median(self) -> float:
        return statistics.median(self.part_b_samples)

    @property
    def total_median(self) -> float:
        return statistics.median(self.total_samples)

    @property
    def ttfb_median(self) -> float:
        return statistics.median(self.ttfb_samples) if self.ttfb_samples else 0.0

    @property
    def handshakes_per_second(self) -> float:
        return self.n_handshakes / self.config.duration


def script_key(kem: str, sig: str, policy_value: str, seed: str = "paper",
               session: str = "full", chain: str = "direct") -> str:
    """The script-cache key; the executor groups experiments by this to
    single-flight recording (one script serves every scenario/duration)."""
    return "|".join((kem, sig, policy_value, seed, session, chain))


def load_script(kem: str, sig: str, policy: BufferPolicy,
                seed: str = "paper", session: str = "full",
                chain: str = "direct") -> HandshakeScript:
    """Load a recorded handshake script from the cache, recording on miss.

    Recording is single-flighted across processes: under parallel
    campaigns, the first worker to reach a missing key records it under a
    per-key file lock while its peers block on the lock and then load the
    stored script, instead of N workers redoing identical crypto.
    """
    return cache.load_or_build(
        "script", script_key(kem, sig, policy.value, seed, session, chain),
        lambda: record_script(kem, sig, policy, seed=seed, session=session,
                              chain=chain))


def run_experiment(config: ExperimentConfig, use_cache: bool = True,
                   tracer=NULL_TRACER, metrics=NULL_METRICS) -> ExperimentResult:
    """Execute (or load) one experiment.

    ``tracer`` records spans for the *first* handshake of the run (they all
    replay the same script, so one trace represents the run); a traced run
    bypasses the result cache both ways, keeping cached artifacts identical
    to untraced runs. The run's counters and histograms are always
    snapshot onto ``ExperimentResult.metrics``, and ``metrics`` receives
    that snapshot through ``merge_snapshot`` whether the result was
    computed or loaded, so a registry aggregates the same numbers either
    way (and in a worker, which ships the result back).
    """
    if config.duration <= 0:
        raise ValueError(
            f"duration must be positive, got {config.duration!r} "
            "(the measurement period needs room for at least one handshake)")
    if config.max_samples < 1:
        raise ValueError(f"max_samples must be >= 1, got {config.max_samples!r}")
    plan = resolve_fault_plan(config.faults)
    if plan.active and plan.corrupt_mode == CORRUPT_DELIVER and (
            plan.corrupt or plan.corrupt_nth):
        raise ValueError(
            "deliver-mode corruption needs real TLS endpoints (Testbed); "
            "scripted replay only counts bytes and would sail past a flipped "
            "bit — use corrupt_mode=checksum in experiments")
    tracing = tracer.enabled
    if use_cache and not tracing:
        cached = cache.load("experiment", config.key)
        if cached is not None:
            metrics.merge_snapshot(cached.metrics)
            return cached
    policy = BufferPolicy(config.policy)
    script = load_script(config.kem, config.sig, policy, config.seed,
                         config.session, config.chain)
    replay = ScriptReplay(script)
    scenario = SCENARIOS[config.scenario]
    cost_model = CostModel(profiling=config.profiling)
    drbg = Drbg(f"experiment:{config.key}")

    deterministic = scenario.loss == 0.0
    sample_cap = 3 if deterministic else config.max_samples

    part_a, part_b, totals, ttfbs, periods = [], [], [], [], []
    outcomes: dict[str, int] = {}
    first_trace = None
    run_metrics = Metrics()
    elapsed = 0.0
    attempt = 0   # every attempt (success or failure) advances the DRBG fork
    failures = 0
    while elapsed < config.duration and len(totals) < sample_cap:
        client_app, server_app = replay.apps()
        # every handshake replays the same script, so tracing the first one
        # captures the run's structure without recording thousands of copies
        hs_tracer = tracer if attempt == 0 else NULL_TRACER
        trace = run_simulated_handshake(
            client_app, server_app, scenario=scenario,
            netem_drbg=drbg.fork(f"netem:{attempt}"), cost_model=cost_model,
            max_sim_seconds=config.handshake_timeout,
            plan=plan if plan.active else None,
            tracer=hs_tracer, metrics=run_metrics,
        )
        attempt += 1
        outcomes[trace.outcome.key] = outcomes.get(trace.outcome.key, 0) + 1
        if not trace.outcome.ok:
            # retry with a fresh seed: the next attempt forks "netem:{n+1}",
            # so the retry sees new loss/fault randomness, and the failed
            # handshake's wall time still counts against the period
            failures += 1
            if failures > config.failure_quota:
                raise FailureQuotaExceeded(
                    f"{failures} failed handshakes (quota {config.failure_quota}) "
                    f"for {config.key}; last: {trace.outcome.key} "
                    f"({trace.outcome.detail})")
            if trace.outcome.kind == KIND_TIMEOUT:
                # the operator's watchdog would have waited out the timer
                elapsed += config.handshake_timeout + INTER_HANDSHAKE_GAP
            else:
                elapsed += trace.wall_end + INTER_HANDSHAKE_GAP
            continue
        if first_trace is None:
            first_trace = trace
        part_a.append(trace.part_a)
        part_b.append(trace.part_b)
        totals.append(trace.total)
        ttfbs.append(trace.ttfb)
        period = trace.wall_end + INTER_HANDSHAKE_GAP
        periods.append(period)
        elapsed += period

    if not totals:
        raise FailureQuotaExceeded(
            f"no successful handshake in {config.duration}s measurement period "
            f"for {config.key} ({failures} failures: {outcomes})")
    mean_period = statistics.fmean(periods)
    n_handshakes = len(totals)
    if elapsed < config.duration:
        # sample cap hit: extrapolate the count over the full period
        n_handshakes = int(config.duration / mean_period)

    samples_run = len(totals)
    cpu_client = run_metrics.counters_with_prefix("cpu.client.")
    cpu_server = run_metrics.counters_with_prefix("cpu.server.")
    client_cpu_total = sum(cpu_client.values()) / samples_run
    server_cpu_total = sum(cpu_server.values()) / samples_run
    result = ExperimentResult(
        config=config,
        part_a_samples=part_a,
        part_b_samples=part_b,
        total_samples=totals,
        n_handshakes=n_handshakes,
        client_bytes=first_trace.client_wire_bytes,
        server_bytes=first_trace.server_wire_bytes,
        client_packets=first_trace.client_packets,
        server_packets=first_trace.server_packets,
        client_cpu_ms=client_cpu_total * 1e3,
        server_cpu_ms=server_cpu_total * 1e3,
        client_cpu_by_library={k: v / samples_run for k, v in cpu_client.items()},
        server_cpu_by_library={k: v / samples_run for k, v in cpu_server.items()},
        metrics=run_metrics.snapshot(),
        outcomes=outcomes,
        ttfb_samples=ttfbs,
    )
    metrics.merge_snapshot(result.metrics)
    if use_cache and not tracing:
        cache.store("experiment", config.key, result)
    return result
