"""Disk cache behaviour."""

import ast
import shutil
from pathlib import Path

import pytest

from repro import cache
from repro.analysis.context import FileContext
from repro.analysis.flow.imports import import_statement_targets

PACKAGE = Path(cache.__file__).resolve().parent


def test_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.store("script", "key-1", {"a": [1, 2, 3]})
    assert cache.load("script", "key-1") == {"a": [1, 2, 3]}


def test_miss_returns_none(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cache.load("script", "missing") is None


def test_keys_are_isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.store("script", "key-a", 1)
    cache.store("script", "key-b", 2)
    cache.store("creds", "key-a", 3)
    cache.store("experiment", "key-a", 4)
    assert cache.load("script", "key-a") == 1
    assert cache.load("script", "key-b") == 2
    assert cache.load("creds", "key-a") == 3
    assert cache.load("experiment", "key-a") == 4


def test_corrupt_entry_self_heals(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.store("script", "key-c", "value")
    path = cache._key_path("script", "key-c")
    path.write_bytes(b"not a pickle")
    assert cache.load("script", "key-c") is None
    assert not path.exists()  # corrupt file removed


def test_store_is_atomic_no_tmp_left(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.store("script", "key-d", list(range(100)))
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []


def _module_files(dotted: str) -> list[Path]:
    """The files importing ``dotted`` runs: each package on the way down,
    then the module itself (nothing for names that are not modules)."""
    parts = dotted.split(".")
    files = []
    for depth in range(1, len(parts) + 1):
        path = PACKAGE.parent.joinpath(*parts[:depth])
        for candidate in (path / "__init__.py", path.with_suffix(".py")):
            if candidate.is_file():
                files.append(candidate)
    return files


def _import_closure(entry: str) -> set[str]:
    """Package-relative paths of ``entry`` and of every ``repro`` file its
    imports run, transitively; imports inside functions count too.

    The walk does not follow ``cache.py``'s own imports: the store is
    listed for its key rule and pickle format, and its one import (the
    registry behind the hit/miss counters) shapes no cached value.
    """
    seen: set[Path] = set()
    todo = [PACKAGE / entry]
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        if path == PACKAGE / "cache.py":
            continue
        ctx = FileContext.load(path, PACKAGE.parent)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in import_statement_targets(ctx, node):
                names = [target]
                if isinstance(node, ast.ImportFrom):  # may name submodules
                    names += [f"{target}.{alias.name}" for alias in node.names]
                for name in names:
                    if name.split(".")[0] == "repro":
                        todo.extend(_module_files(name))
    return {path.relative_to(PACKAGE).as_posix() for path in seen}


@pytest.mark.parametrize("entry, kinds", [
    ("netsim/scripted.py", ("creds", "script")),
    ("core/experiment.py", ("experiment",)),
])
def test_code_paths_cover_the_import_closure(entry, kinds):
    closure = _import_closure(entry)
    assert "cache.py" in closure and len(closure) > 50
    for kind in kinds:
        listed = cache.CODE_PATHS[kind]
        outside = sorted(rel for rel in closure
                         if not any(rel == item or rel.startswith(item + "/")
                                    for item in listed))
        assert outside == [], f"{kind}: {outside}"


def _copy_with_edit(tmp_path: Path, name: str, relpath: str | None) -> Path:
    root = tmp_path / name / "repro"
    shutil.copytree(PACKAGE, root, ignore=shutil.ignore_patterns("__pycache__"))
    if relpath is not None:
        source = bytearray((root / relpath).read_bytes())
        source[-1] ^= 1
        (root / relpath).write_bytes(bytes(source))
    return root


def test_code_digest_reacts_to_the_right_edits(tmp_path):
    kinds = sorted(cache.CODE_PATHS)
    # the digest depends on file contents and package-relative paths only
    base = _copy_with_edit(tmp_path, "base", None)
    assert [cache.code_digest(k, base) for k in kinds] == \
        [cache.code_digest(k) for k in kinds]

    netsim = _copy_with_edit(tmp_path, "netsim", "netsim/costmodel.py")
    assert cache.code_digest("experiment", netsim) != cache.code_digest("experiment")
    for kind in ("creds", "script"):
        assert cache.code_digest(kind, netsim) == cache.code_digest(kind)

    tls = _copy_with_edit(tmp_path, "tls", "tls/messages.py")
    for kind in kinds:
        assert cache.code_digest(kind, tls) != cache.code_digest(kind)


def test_unknown_kind_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(KeyError):
        cache.code_digest("unit")
    with pytest.raises(KeyError):
        cache.store("unit", "key-g", "v")
    assert not (tmp_path / "unit").exists()


def test_default_cache_dir_is_repo_local(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    path = cache.cache_dir()
    assert path.name == ".cache"
    assert (path.parent / "pyproject.toml").exists()  # repo root


def test_load_or_build_builds_once_and_rechecks_under_the_lock(tmp_path,
                                                               monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    built = []

    def build():
        built.append(1)
        return "fresh"

    before = cache.metrics.snapshot()["counters"]
    assert cache.load_or_build("script", "key-f", build) == "fresh"
    assert cache.load_or_build("script", "key-f", build) == "fresh"
    after = cache.metrics.snapshot()["counters"]
    assert built == [1]

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    # cold: miss, miss again inside the lock, store; warm: one hit
    assert (delta("cache.script.miss"), delta("cache.script.store"),
            delta("cache.script.hit")) == (2, 1, 1)
