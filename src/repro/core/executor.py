"""Parallel campaign executor: fan an experiment set across CPU cores.

Appendix B's campaigns are hundreds of independent (KA, SA, scenario,
policy) experiments; this module fans them across cores through
:func:`repro.core.fanout.run_sharded`, the stack's one worker pool
(``pqtls-lint`` DET005 confines host parallelism to that module — the
sans-io simulation below stays process-free). :func:`run_campaign`:

1. **partitions** the set into cache hits, resolved inline in the parent
   with no worker dispatch, and cache misses;
2. **schedules** the misses longest-expected-first (LPT) using the
   static cost table below, so one straggling SPHINCS+ or Falcon-1024
   recording starts immediately instead of tailing the pool;
3. relies on **single-flight recording** (`cache.load_or_build` inside
   :func:`~repro.core.experiment.load_script` /
   :func:`~repro.netsim.scripted.load_credentials`): one worker records
   each distinct ``(kem, sig, policy, seed)`` script while peers block on
   a per-key file lock and then read the cache;
4. **batches** cheap misses into shared dispatch units and runs them
   through :func:`run_sharded`;
5. **merges** per-task metrics snapshots (and the traced first
   handshake, if a tracer is given) back into the parent's registry *in
   the set's original config order*, so the aggregated ``--metrics`` /
   ``--trace`` output is identical at any ``jobs``.

Determinism: every experiment derives all randomness from a per-config
``Drbg`` (``experiment:<key>``) and all time from the simulated event
loop, so a worker computes bit-identical results to an in-process run —
the pool changes wall-clock time, never values. Every ``jobs`` value
takes this one path; ``jobs=1`` (or a single dispatch unit) simply runs
the units inline in :func:`run_sharded`, with no pool.

Workers are spawned (not forked) so each starts from a clean interpreter
with zeroed module-level metrics; they communicate only through the
shared on-disk cache and their pickled return values.
"""

from __future__ import annotations

import os
from functools import partial

from repro import cache
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentResult,
    merge_result_metrics,
    run_experiment,
    script_key,
)
from repro.core.fanout import resolve_jobs, run_sharded
from repro.netsim.netem import SCENARIOS
from repro.obs.metrics import NULL_METRICS
from repro.obs.recorder import NULL_RECORDER, walltime
from repro.obs.tracer import NULL_TRACER, Tracer

# ---------------------------------------------------------------------------
# Static cost table
#
# Expected host cost of an experiment, in units calibrated to seconds on the
# reference container. Only the *relative* order matters (LPT scheduling);
# the absolute scale just keeps the numbers debuggable. Costs derive from
# the algorithms' declared wire sizes — the same numbers Table 2 reports —
# with per-family exponents reflecting how runtime grows with key material:
# RSA prime search is ~cubic in the modulus, Falcon's NTRU solving ~quartic
# in the key size, hash-based signing linear in the signature (each wire
# byte is bought with a fixed number of hash calls).
#
# Coefficients are calibrated against measured cold-record times with the
# default fast kernels (PQTLS_KERNELS=fast; see `benchmarks/bench.py crypto`)
# and the primorial-screened prime search in repro.crypto.modmath:
# dilithium2 0.14 s, rsa:2048 ~1.2 s, falcon512 2.24 s, sphincs128 11.5 s,
# hqc/bike within noise of the lattice KEMs. RSA recording varies ~2x run
# to run with prime-search luck, so its coefficient targets the middle of
# that band. Under PQTLS_KERNELS=ref the absolute numbers grow but the
# family order — and so the LPT schedule — is unchanged.
# ---------------------------------------------------------------------------

_WIRE_BYTES_PER_SEGMENT = 1200.0   # rough payload per simulated TCP segment
_REPLAY_SECONDS_PER_SEGMENT = 2e-4  # event-loop cost per segment per handshake
_PROFILING_FACTOR = 1.2            # white-box runs add cost-model events


def _sig_components(sig):
    return [sig.classical, sig.pq] if hasattr(sig, "pq") else [sig]


def _kem_components(kem):
    return [kem.classical, kem.pq] if hasattr(kem, "pq") else [kem]


def record_cost(kem_name: str, sig_name: str) -> float:
    """Expected one-time cost of recording this script on a cold cache.

    Dominated by real pure-Python crypto: credential generation + one
    lockstep handshake. Charged once per distinct script key — the
    single-flight lock guarantees no second worker pays it.
    """
    from repro.pqc.registry import get_kem, get_sig

    cost = 0.1  # lockstep handshake, record/store bookkeeping
    for sig in _sig_components(get_sig(sig_name)):
        name = sig.name
        if name.startswith("rsa"):
            cost += 1.5 * (sig.signature_bytes / 256.0) ** 3
        elif name.startswith("falcon"):
            cost += 2.3 * (sig.public_key_bytes / 897.0) ** 4
        elif name.startswith("sphincs"):
            # recording pays ~2 signatures (CA chain + CertificateVerify)
            cost += 11.4 * (sig.signature_bytes / 17088.0)
        else:  # lattice / ECDSA: milliseconds, wire size as tiebreaker
            cost += (sig.signature_bytes + sig.public_key_bytes) / 1e6
    for kem in _kem_components(get_kem(kem_name)):
        # all KEM families record in milliseconds now that the code-based
        # decoders run on the batched HQC kernels; wire volume is a good
        # enough tiebreaker
        cost += 4e-6 * (kem.public_key_bytes + kem.ciphertext_bytes)
    return cost


def replay_cost(config: ExperimentConfig) -> float:
    """Expected cost of replaying the script through TCP/netem.

    Scales with handshakes simulated (3 for deterministic scenarios,
    ``max_samples`` for lossy ones — the same rule ``run_experiment``
    applies) times the per-handshake event count, which wire volume sets.
    """
    from repro.pqc.registry import get_kem, get_sig

    kem = get_kem(config.kem)
    sig = get_sig(config.sig)
    # certificate chain carries ~2 public keys + 2 signatures, plus the
    # CertificateVerify signature and the KEM exchange
    wire = (kem.public_key_bytes + kem.ciphertext_bytes
            + 2 * sig.public_key_bytes + 3 * sig.signature_bytes)
    segments = 8.0 + wire / _WIRE_BYTES_PER_SEGMENT
    samples = 3 if SCENARIOS[config.scenario].loss == 0.0 else config.max_samples
    cost = samples * segments * _REPLAY_SECONDS_PER_SEGMENT
    if config.profiling:
        cost *= _PROFILING_FACTOR
    return cost


def estimated_cost(config: ExperimentConfig, cold: bool = True) -> float:
    """Expected total cost of one experiment (recording charged if cold)."""
    cost = replay_cost(config)
    if cold:
        cost += record_cost(config.kem, config.sig)
    return cost


def schedule(configs: list[ExperimentConfig]) -> list[ExperimentConfig]:
    """Order cache-missing configs for dispatch: longest expected first.

    One *leader* per distinct script key is picked and dispatched ahead of
    every follower, ordered by recording + replay cost — the recordings
    are the long poles and must all start as early as possible. Followers
    (same script, different scenario/duration) carry only replay cost and
    fill the pool's tail; their single-flight wait costs nothing extra.
    """
    groups: dict[str, list[ExperimentConfig]] = {}
    for config in configs:
        key = script_key(config.kem, config.sig, config.policy, config.seed,
                         config.session, config.chain)
        groups.setdefault(key, []).append(config)
    leaders, followers = [], []
    for members in groups.values():
        ordered = sorted(members, key=replay_cost, reverse=True)
        leaders.append(ordered[0])
        followers.extend(ordered[1:])
    leaders.sort(key=lambda c: estimated_cost(c, cold=True), reverse=True)
    followers.sort(key=replay_cost, reverse=True)
    return leaders + followers


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _counter_delta(before: dict, after: dict) -> dict[str, float]:
    return {name: value - before.get(name, 0.0)
            for name, value in after.items() if value > before.get(name, 0.0)}


def _worker_run(config: ExperimentConfig, trace: bool = False):
    """Run one experiment, in a worker process or inline in the parent.

    Returns ``(key, result, cache_counters, trace_records, host_seconds,
    pid)``: the result carries its own metrics snapshot;
    ``cache_counters`` is this task's hit/miss/store delta (workers are
    long-lived, so a before/after diff isolates the task);
    ``trace_records`` is the traced first handshake when requested;
    ``host_seconds`` is the task's real wall time, for the flight
    recorder; ``pid`` tells the parent whether the task ran inline.
    """
    started = walltime()
    before = cache.metrics.snapshot()["counters"]
    tracer = Tracer() if trace else NULL_TRACER
    result = run_experiment(config, tracer=tracer)
    after = cache.metrics.snapshot()["counters"]
    records = (tracer.spans, tracer.instants, tracer.counters) if trace else None
    return (config.key, result, _counter_delta(before, after), records,
            walltime() - started, os.getpid())


def _worker_run_batch(configs: list[ExperimentConfig],
                      traced_key: str | None = None):
    """Run one dispatch unit's experiments sequentially, in unit order.

    Returns the list of per-experiment :func:`_worker_run` tuples.
    Batching only amortizes dispatch overhead (submit, pickle, result
    shipping); each experiment still runs exactly as it would alone.
    """
    return [_worker_run(config, config.key == traced_key)
            for config in configs]


def _retransmits(result: ExperimentResult) -> float:
    """TCP retransmit count of one result, for the flight log."""
    counters = result.metrics.get("counters", {}) if result.metrics else {}
    return sum(value for name, value in counters.items()
               if name.endswith("retransmits"))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

# expected cost below which a cache miss shares its dispatch unit
BATCH_SECONDS = 0.25


def batch_units(ordered: list[ExperimentConfig], costs: dict[str, float],
                batch_seconds: float,
                traced_key: str | None = None) -> list[list[ExperimentConfig]]:
    """Pack scheduled configs into dispatch units of ~``batch_seconds``.

    Cheap experiments (expected cost below the threshold) accumulate
    into a shared unit until it reaches the threshold, amortizing the
    per-task submit/pickle/result overhead that dominates sub-100ms
    replays. Expensive configs — and the traced one, which must ship its
    trace records by itself — stay singleton units. ``batch_seconds <= 0``
    disables packing (every unit is a singleton).
    """
    units: list[list[ExperimentConfig]] = []
    open_batch: list[ExperimentConfig] = []
    open_cost = 0.0
    for config in ordered:
        cost = costs[config.key]
        if batch_seconds <= 0 or cost >= batch_seconds or config.key == traced_key:
            units.append([config])
            continue
        if open_batch and open_cost + cost > batch_seconds:
            units.append(open_batch)
            open_batch, open_cost = [], 0.0
        open_batch.append(config)
        open_cost += cost
    if open_batch:
        units.append(open_batch)
    return units


def run_campaign(configs: list[ExperimentConfig], *, jobs: int | None = 1,
                 metrics=NULL_METRICS, progress=None, tracer=NULL_TRACER,
                 set_name: str = "campaign", stats: dict | None = None,
                 recorder=NULL_RECORDER) -> dict[str, ExperimentResult]:
    """Run a list of experiments, fanning cache misses over ``jobs`` workers.

    One path for every ``jobs``: cache hits resolve inline, misses are
    scheduled longest-first, packed into dispatch units of about
    :data:`BATCH_SECONDS` (:func:`batch_units`) and handed to
    :func:`run_sharded`, which clamps ``jobs`` to the core count
    (``None`` = one per CPU) and runs ``jobs=1`` or a single unit inline.
    Results are keyed by config key and their metrics merged in the
    original config order, so metrics/trace aggregation is identical at
    any ``jobs``. If a task raises, the original exception propagates.
    ``stats``, if given, is filled with the partition/schedule summary
    (``jobs``, ``hits``, ``dispatched``, ``distinct_scripts``, ...).

    ``recorder`` (a :class:`repro.obs.recorder.FlightRecorder`) logs
    task/cache/timing events and drives the live ETA line; it observes
    only — results, cache state, and metrics are identical with or
    without it.
    """
    jobs = resolve_jobs(jobs)
    total = len(configs)
    started = walltime()
    recorder.event("campaign_begin", set=set_name, experiments=total, jobs=jobs)

    # -- partition: resolve hits inline, collect distinct misses ------------
    # When tracing, the first config is always dispatched: run_experiment
    # bypasses the cache for traced runs (cached artifacts stay untraced).
    traced_key = configs[0].key if tracer.enabled and configs else None
    resolved: dict[str, ExperimentResult] = {}
    misses: list[ExperimentConfig] = []
    seen: set[str] = set()
    done = 0
    for config in configs:
        if config.key in seen:
            continue  # duplicate within the set: one run serves all
        seen.add(config.key)
        # counter-neutral probe: the miss is counted exactly once, by
        # whichever process later loads and records
        if config.key != traced_key and cache.contains("experiment", config.key):
            cached = cache.load("experiment", config.key)
            if cached is not None:
                resolved[config.key] = cached
                recorder.event("cache_hit", set=set_name, key=config.key)
                if progress is not None:
                    progress(set_name, done, total, config)
                done += 1
                continue
        misses.append(config)

    # -- schedule and batch the misses --------------------------------------
    # recording is charged once per distinct script (single-flight), so
    # only the first dispatched config of each script is "cold"; the
    # estimates drive both batching and the flight recorder's ETA
    ordered = schedule(misses)
    costs: dict[str, float] = {}
    scripts: set[str] = set()
    for config in ordered:
        script = script_key(config.kem, config.sig, config.policy,
                            config.seed, config.session, config.chain)
        costs[config.key] = estimated_cost(config, cold=script not in scripts)
        scripts.add(script)
    total_cost = sum(costs.values())
    units = batch_units(ordered, costs, BATCH_SECONDS, traced_key)
    summary = {"hits": len(resolved), "dispatched": len(misses),
               "distinct_scripts": len(scripts), "units": len(units),
               "batched": sum(len(u) for u in units if len(u) > 1)}
    if stats is not None:   # caller-owned introspection, read by benches
        stats.update(jobs=jobs, experiments=total, **summary)
    recorder.event("schedule", set=set_name, jobs=jobs, **summary)
    for config in ordered:
        recorder.task_start(config.key, set_name=set_name,
                            est_cost=costs[config.key])

    # -- dispatch ------------------------------------------------------------
    parent = os.getpid()
    trace_records = None
    done_cost = 0.0

    def finished(index: int, batch: list) -> None:
        nonlocal done, done_cost, trace_records
        for config, (key, result, cache_counters, records, seconds,
                     pid) in zip(units[index], batch):
            resolved[key] = result
            if records is not None:
                trace_records = records
            if pid != parent:
                # a worker's cache traffic (including its experiment miss:
                # the partition probe is counter-neutral) happened only
                # there; an inline task's already landed in this process
                for name, value in cache_counters.items():
                    cache.metrics.inc(name, value)
            if recorder.enabled:
                recorder.task_finish(
                    key, mode="inline" if pid == parent else "worker",
                    set_name=set_name, host_seconds=seconds,
                    outcomes=result.outcomes, retransmits=_retransmits(result),
                    cache_counters=cache_counters)
                done_cost += costs[key]
                elapsed = walltime() - started
                eta = (elapsed * (total_cost - done_cost) / done_cost
                       if done_cost < total_cost else None)
                recorder.progress(set_name, done + 1, total, elapsed=elapsed,
                                  eta=eta, hits=summary["hits"])
            if progress is not None:
                progress(set_name, done, total, config)
            done += 1

    run_sharded(partial(_worker_run_batch, traced_key=traced_key), units,
                jobs=jobs, on_complete=finished)

    # -- merge in original order: counter sums and histogram sample order
    # then match at any jobs, whatever order units finished in ------------
    for config in configs:
        merge_result_metrics(resolved[config.key], metrics)
    if trace_records is not None:
        tracer.absorb(*trace_records)
    recorder.event("campaign_end", set=set_name, experiments=total,
                   host_seconds=round(walltime() - started, 6))
    return {config.key: resolved[config.key] for config in configs}
