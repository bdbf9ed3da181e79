"""The one fan-out primitive: map a task over payloads across spawned workers.

Campaigns (:func:`repro.core.executor.run_campaign`) and sharded traffic
runs (``repro.traffic``) fan out through :func:`run_sharded`. This
module is the only place in the stack allowed to touch host parallelism
(enforced by ``pqtls-lint`` DET005 — the sans-io simulation stays
process-free), and it imports nothing but the standard library.

Workers are spawned (not forked) so each starts from a clean interpreter
with zeroed module-level state; they communicate only through the
shared on-disk caches and their pickled return values.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed


def resolve_jobs(jobs: int | None) -> int:
    """Effective worker count: requested jobs, clamped to the core count.

    Campaign work is CPU-bound, so oversubscribing cores only adds spawn
    and context-switch overhead; on a 1-core runner the clamp makes
    ``jobs=2`` run every unit inline, with no pool (a pool there measured
    speedup < 1).
    """
    cpus = os.cpu_count() or 1
    if jobs is None:
        return cpus
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    return min(jobs, cpus)


def run_sharded(task, payloads: list, *, jobs: int | None = None,
                on_complete=None) -> list:
    """Map a picklable ``task`` over ``payloads`` across spawned workers.

    Results come back **in payload order**, whatever order workers
    finish in, so callers can merge deterministically. ``jobs`` resolves
    through :func:`resolve_jobs`; ``jobs=1`` or a single payload runs
    inline in this process, with no pool. ``on_complete(index, result)``
    fires in this process per finished payload, in completion order: the
    campaign executor files each result there and reports it to its
    flight recorder, and the traffic leader logs shard progress. Nothing
    order-sensitive may hang off it; the returned list is the
    deterministic view.

    ``task`` must be a module-level callable computing a pure function
    of its payload: workers are spawned, so the only state it sees is
    what the payload carries (plus the shared on-disk cache).
    """
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(payloads) <= 1:
        results = []
        for index, payload in enumerate(payloads):
            result = task(payload)
            if on_complete is not None:
                on_complete(index, result)
            results.append(result)
        return results
    context = multiprocessing.get_context("spawn")
    workers = min(jobs, len(payloads))
    results: list = [None] * len(payloads)
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = {pool.submit(task, payload): index
                   for index, payload in enumerate(payloads)}
        try:
            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                if on_complete is not None:
                    on_complete(index, results[index])
        except BaseException:
            for future in futures:
                future.cancel()
            pool.shutdown(wait=True, cancel_futures=True)
            raise
    return results
