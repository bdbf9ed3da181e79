"""Disk cache behaviour."""

from repro import cache


def test_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.store("unit", "key-1", {"a": [1, 2, 3]})
    assert cache.load("unit", "key-1") == {"a": [1, 2, 3]}


def test_miss_returns_none(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cache.load("unit", "missing") is None


def test_keys_are_isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.store("unit", "key-a", 1)
    cache.store("unit", "key-b", 2)
    cache.store("other", "key-a", 3)
    assert cache.load("unit", "key-a") == 1
    assert cache.load("unit", "key-b") == 2
    assert cache.load("other", "key-a") == 3


def test_corrupt_entry_self_heals(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.store("unit", "key-c", "value")
    path = cache._key_path("unit", "key-c")
    path.write_bytes(b"not a pickle")
    assert cache.load("unit", "key-c") is None
    assert not path.exists()  # corrupt file removed


def test_store_is_atomic_no_tmp_left(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.store("unit", "key-d", list(range(100)))
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []


def test_schema_version_in_key(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.store("unit", "key-e", "v")
    original = cache.SCHEMA_VERSION
    try:
        cache.SCHEMA_VERSION = original + 1
        assert cache.load("unit", "key-e") is None  # version bump invalidates
    finally:
        cache.SCHEMA_VERSION = original
    assert cache.load("unit", "key-e") == "v"


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
    assert cache.load_or_build("unit", "key-f", build) == "fresh"
    assert cache.load_or_build("unit", "key-f", build) == "fresh"
    after = cache.metrics.snapshot()["counters"]
    assert built == [1]

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    # cold: miss, miss again inside the lock, store; warm: one hit
    assert (delta("cache.unit.miss"), delta("cache.unit.store"),
            delta("cache.unit.hit")) == (2, 1, 1)
