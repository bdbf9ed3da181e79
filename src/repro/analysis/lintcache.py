"""Content-addressed cache of lint results under ``.cache/lint/``.

Two record kinds, both plain JSON:

- **file records** (``files/<key>.json``) hold one file's raw file-scope
  findings (from *every* registered file checker — selection is applied
  at assembly time, so one record serves any ``--select``) together with
  the pragma tables the runner needs to apply suppression and
  ``--check-pragmas`` without re-parsing the file;
- **project records** (``project/<key>.json``) hold the raw findings of
  every project-scope checker (the flow engine's clients), keyed over
  the file keys of *all* analyzed files — any file edit invalidates it.

Keys are SHA-256 over the analysis package's own source digest, the
file's project-relative path, and the file's bytes, so upgrading any
checker (or the flow engine) invalidates every record with no version
bookkeeping. Writes are atomic (tmp + rename) so parallel workers can
share the directory; a corrupt or half-written record is treated as a
miss, never an error.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path


@lru_cache(maxsize=1)
def analysis_digest() -> str:
    """SHA-256 over every source file of ``repro.analysis`` itself.

    Folding the analyzer's own code into each record key makes checker
    or engine changes invalidate the whole cache implicitly.
    """
    package_root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for source in sorted(package_root.rglob("*.py")):
        digest.update(source.relative_to(package_root).as_posix().encode())
        digest.update(b"\x00")
        digest.update(source.read_bytes())
    return digest.hexdigest()


class LintCache:
    """Record store for one run, rooted at ``<project>/.cache/lint``."""

    def __init__(self, project_root: Path):
        self.root = project_root / ".cache" / "lint"
        self.hits = 0
        self.misses = 0

    # -- keys ---------------------------------------------------------------
    def file_key(self, relpath: str, source: bytes) -> str:
        digest = hashlib.sha256()
        digest.update(analysis_digest().encode())
        digest.update(relpath.encode())
        digest.update(b"\x00")
        digest.update(source)
        return digest.hexdigest()

    def project_key(self, file_keys: list[str]) -> str:
        digest = hashlib.sha256()
        digest.update(analysis_digest().encode())
        for file_key in file_keys:
            digest.update(file_key.encode())
            digest.update(b"\x00")
        return digest.hexdigest()

    # -- records ------------------------------------------------------------
    def _path(self, kind: str, record_key: str) -> Path:
        return self.root / kind / f"{record_key}.json"

    def load(self, kind: str, record_key: str) -> dict | None:
        try:
            data = json.loads(self._path(kind, record_key).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.misses += 1
            return None
        if not isinstance(data, dict):
            self.misses += 1
            return None
        self.hits += 1
        return data

    def store(self, kind: str, record_key: str, record: dict) -> None:
        path = self._path(kind, record_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            # a read-only or full cache directory degrades to cache-off
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    # -- hygiene ------------------------------------------------------------
    def prune(self, kind: str, keep: set[str], limit: int = 512) -> int:
        """Cap the record count, deleting oldest-first; returns how many.

        Records in *keep* (this run's keys) are never deleted, so a
        partial-path run cannot evict the rest of the tree's warm
        records; stale generations (pre-edit contents, older analyzer
        versions) only start going once the directory tops *limit*.
        Ordering uses stored mtimes alone — no wall-clock read, which
        the determinism contract (DET001) bans outside ``repro.obs``.
        """
        directory = self.root / kind
        try:
            entries = [entry for entry in directory.iterdir()
                       if entry.suffix == ".json"]
        except OSError:
            return 0
        excess = len(entries) - max(limit, len(keep))
        if excess <= 0:
            return 0
        removed = 0
        def age(entry: Path) -> float:
            try:
                return entry.stat().st_mtime
            except OSError:
                return 0.0
        for entry in sorted(entries, key=age):
            if removed >= excess:
                break
            if entry.stem in keep:
                continue
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
