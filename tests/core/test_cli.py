"""Command-line interface."""

import pytest

from repro.core import campaign
from repro.core.cli import main
from repro.core.experiment import ExperimentConfig


def test_run_named_set(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        campaign.EXPERIMENT_SETS, "tiny-cli",
        lambda: [ExperimentConfig(kem="x25519", sig="rsa:1024", duration=5.0)])
    assert main(["-o", str(tmp_path), "tiny-cli"]) == 0
    captured = capsys.readouterr()
    assert "ran 1 experiments" in captured.err


def test_unknown_set_errors(tmp_path):
    with pytest.raises(KeyError):
        main(["-o", str(tmp_path), "level42"])


def test_unknown_artifact_errors(tmp_path):
    with pytest.raises(KeyError, match="unknown artifact"):
        main(["-o", str(tmp_path), "--evaluate", "table9"])


def test_bad_artifact_fails_before_running_anything(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ran experiments before validating artifact names")
    monkeypatch.setattr(campaign, "run_sets", refuse)
    with pytest.raises(KeyError, match="unknown artifact 'table9'"):
        main(["-o", str(tmp_path), "--evaluate", "table2", "table9"])


def test_requires_names():
    with pytest.raises(SystemExit):
        main([])


def test_single_experiment_with_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert main(["--kem", "x25519", "--sig", "rsa:1024",
                 "--trace", str(trace), "--metrics", str(metrics),
                 "--flame"]) == 0
    captured = capsys.readouterr()
    assert "x25519 x rsa:1024" in captured.err
    assert "why was this slow" in captured.out
    assert "Table 3 breakdown from spans" in captured.out
    assert trace.exists() and metrics.exists()
    import json
    assert json.loads(trace.read_text())["traceEvents"]
    assert "counters" in json.loads(metrics.read_text())


def test_kem_without_sig_errors():
    with pytest.raises(SystemExit):
        main(["--kem", "x25519"])


def test_trace_requires_single_experiment(tmp_path):
    with pytest.raises(SystemExit):
        main(["--trace", str(tmp_path / "t.json"), "all-kem"])


def test_evaluate_rejects_single_experiment_mode():
    with pytest.raises(SystemExit):
        main(["--evaluate", "--kem", "x25519", "--sig", "rsa:1024"])
