"""The committed paper artifacts under ``benchmarks/out/`` are a spec.

Every artifact ``pqtls-experiment --evaluate`` renders must equal its
committed file byte for byte, and together the artifacts must write
exactly the committed files (the ``BENCH_*`` baselines and the
``flame_*``/``flight_*`` by-products of ``benchmarks/bench.py`` aside).
Recorded handshakes are cached under ``.cache/``: a cold run records real
crypto and takes minutes, a warm one seconds.
"""

from pathlib import Path

import pytest

from repro.core.cli import ARTIFACTS, evaluate_artifact

OUT_DIR = Path(__file__).parent / "out"
NOT_ARTIFACTS = ("BENCH_", "flame_", "flight_")


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    """name -> directory holding that artifact's freshly rendered files."""
    dirs = {}

    def render(name):
        if name not in dirs:
            dirs[name] = tmp_path_factory.mktemp(name)
            evaluate_artifact(name, dirs[name], jobs=None)
        return dirs[name]
    return render


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_matches_committed_bytes(name, rendered):
    written = sorted(rendered(name).iterdir())
    assert written
    for path in written:
        assert path.read_bytes() == (OUT_DIR / path.name).read_bytes(), path.name


def test_artifacts_write_exactly_the_committed_files(rendered):
    written = {path.name for name in ARTIFACTS for path in rendered(name).iterdir()}
    committed = {path.name for path in OUT_DIR.iterdir()
                 if not path.name.startswith(NOT_ARTIFACTS)}
    assert written == committed
