"""Disk cache for recorded handshake scripts and experiment results.

Recording a script runs real crypto (a SPHINCS+-256f signature alone is
tens of seconds of pure-Python hashing), so scripts are cached under
``.cache/`` keyed by config plus :func:`code_digest` of the code that
computes that kind of value, so a code edit misses stale entries with no
version to bump. Delete the directory (or set ``REPRO_CACHE_DIR``) to
force re-recording; superseded entries stay on disk until then.

The cache is safe under concurrent writers (the parallel campaign
executor runs one process per core against the same directory): `store`
writes to a unique per-process temp file and publishes it with an atomic
``os.replace``, and `lock` hands out a per-key advisory file lock so
expensive recordings can be single-flighted across processes.

Hit/miss/store counts land in the module-level :data:`metrics` registry
(``cache.<kind>.hit`` / ``.miss`` / ``.store`` / ``.evicted``), which the
CLI folds into its ``--metrics`` output.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import pickle
import tempfile
from pathlib import Path

try:
    import fcntl
except ImportError:  # non-POSIX: locks degrade to no-ops (see `lock`)
    fcntl = None

from repro.obs.metrics import Metrics

# The code that computes each kind of value, relative to the package root.
# Static lists, not the import graph (~0.2 s of parsing per process); a
# test keeps each a superset of its entry module's import closure.
_RECORDING = ("crypto", "pqc", "tls", "netsim/scripted.py", "cache.py", "__init__.py")
CODE_PATHS = {"creds": _RECORDING, "script": _RECORDING,
              "experiment": _RECORDING + ("faults", "netsim", "obs", "core/experiment.py")}
_PACKAGE_ROOT = Path(__file__).resolve().parent

metrics = Metrics()


@functools.cache
def code_digest(kind: str, root: Path = _PACKAGE_ROOT) -> str:
    """SHA-256 over the paths and bytes of the ``.py`` files that compute
    values of ``kind``; ``KeyError`` for a kind not in :data:`CODE_PATHS`."""
    sources = set()
    for entry in CODE_PATHS[kind]:
        path = root / entry
        sources.update(path.rglob("*.py") if path.is_dir() else [path])
    digest = hashlib.sha256()
    for source in sorted(sources):
        digest.update(source.relative_to(root).as_posix().encode() + b"\x00")
        digest.update(source.read_bytes())
    return digest.hexdigest()


def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        path = Path(root)
    else:
        path = Path(__file__).resolve().parents[2] / ".cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _key_path(kind: str, key: str) -> Path:
    digest = hashlib.sha256(
        f"{code_digest(kind)}:{kind}:{key}".encode()).hexdigest()[:24]
    sub = cache_dir() / kind
    sub.mkdir(parents=True, exist_ok=True)
    return sub / f"{digest}.pkl"


def contains(kind: str, key: str) -> bool:
    """Counter-neutral existence probe (no hit/miss accounting).

    The campaign executor partitions hits from misses with this before
    deciding whether a pool is worth spawning; the miss itself is only
    counted by whoever eventually :func:`load`-s and records, so the
    counters come out identical to a serial run.
    """
    return _key_path(kind, key).exists()


def load(kind: str, key: str):
    path = _key_path(kind, key)
    if not path.exists():
        metrics.inc(f"cache.{kind}.miss")
        return None
    try:
        with path.open("rb") as handle:
            value = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        # truncated/corrupt pickle or a class that no longer unpickles:
        # evict and re-record; anything else is a bug and must surface
        path.unlink(missing_ok=True)
        metrics.inc(f"cache.{kind}.evicted")
        metrics.inc(f"cache.{kind}.miss")
        return None
    metrics.inc(f"cache.{kind}.hit")
    return value


def store(kind: str, key: str, value) -> None:
    path = _key_path(kind, key)
    # unique per-process temp name: concurrent stores of the same key must
    # not share a temp file (a fixed `.tmp` suffix lets writer B truncate
    # the file writer A is about to publish, or os.replace a name A already
    # consumed); whoever replaces last wins, and every replace is atomic
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.stem + "-",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(value, handle)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    metrics.inc(f"cache.{kind}.store")


@contextlib.contextmanager
def lock(kind: str, key: str):
    """Advisory per-key exclusive lock (single-flight for slow recordings).

    :func:`load_or_build` wraps it in the double-checked pattern (load,
    lock, load again, build, store). On POSIX this is ``flock`` on a
    sibling ``.lock`` file (blocking, so waiters sleep in the kernel
    until the recorder releases). The lock file is left in place —
    unlinking under contention races a peer that already opened it.
    Without ``fcntl`` (non-POSIX) the lock is a no-op: peers may
    duplicate work, but unique temp names keep stores safe.
    """
    if fcntl is None:
        yield
        return
    path = _key_path(kind, key).with_suffix(".lock")
    fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def load_or_build(kind: str, key: str, build):
    """The cached value for ``key``, built by ``build()`` on a miss.

    Single-flighted across processes: a miss takes the per-key
    :func:`lock` and loads again (a peer may have finished meanwhile)
    before it calls ``build()`` and stores the result, so N workers
    missing the same key do the expensive work once. ``load`` and
    ``store`` are looked up as module globals at call time, so a wrapper
    installed on this module (e.g. a tracing boundary) sees every call.
    """
    value = load(kind, key)
    if value is None:
        with lock(kind, key):
            value = load(kind, key)
            if value is None:
                value = build()
                store(kind, key, value)
    return value
