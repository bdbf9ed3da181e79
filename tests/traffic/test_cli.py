"""pqtls-traffic end to end: argument plumbing, outputs, exit codes."""

import json

from repro.traffic.cli import build_config, build_parser, main


def test_build_config_crosses_kem_and_sig_mixes():
    args = build_parser().parse_args([
        "--kem", "kyber512", "--kem", "kyber768",
        "--sig", "dilithium2",
        "--arrival", "poisson:50/s", "--duration", "0.5"])
    config = build_config(args)
    assert config.pairs == (("kyber512", "dilithium2"),
                            ("kyber768", "dilithium2"))
    assert config.arrival == "poisson:50/s"


def test_main_end_to_end_writes_metrics_and_flight_record(tmp_path, capsys):
    metrics_path = tmp_path / "out" / "traffic.json"
    flight_path = tmp_path / "out" / "flight.jsonl"
    code = main(["--arrival", "poisson:100/s", "--duration", "0.5",
                 "--shard-seconds", "0.25",
                 "--metrics", str(metrics_path),
                 "--flight-record", str(flight_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "kyber512/dilithium2" in out
    assert "p99.9" in out
    assert "load factor" in out
    snapshot = json.loads(metrics_path.read_text())
    total = snapshot["histograms"]["traffic.kyber512.dilithium2.total"]
    assert total["count"] > 0
    events = [json.loads(line)
              for line in flight_path.read_text().splitlines()]
    kinds = {e["event"] for e in events}
    assert {"traffic_begin", "shard_finish", "traffic_end"} <= kinds


def test_main_rejects_bad_arrival_spec(tmp_path, capsys):
    assert main(["--arrival", "pareto:100/s", "--duration", "1"]) == 2
    assert "pqtls-traffic" in capsys.readouterr().err


def test_main_rejects_bad_duration(capsys):
    assert main(["--duration", "0"]) == 2
    assert "duration" in capsys.readouterr().err


def test_main_rejects_infinite_duration(capsys):
    # math.ceil(inf) used to end the run in an OverflowError traceback
    assert main(["--duration", "inf"]) == 2
    assert "duration must be finite" in capsys.readouterr().err
