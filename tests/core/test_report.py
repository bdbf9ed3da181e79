"""Report rendering and CSV export."""

import csv
import io

import pytest

from repro.core.analysis import Deviation
from repro.core.evaluate import AttackMetrics, Table2Row, Table3Row, Table4Row
from repro.core.report import (
    deviations_csv,
    latencies_csv,
    render_attack_metrics,
    render_deviations,
    render_improvements,
    render_ranking,
    render_table2,
    render_table3,
    render_table4,
)


def _row(algorithm="kyber512", classical=False, hybrid=False, level=1):
    return Table2Row(level=level, algorithm=algorithm, classical=classical,
                     hybrid=hybrid, part_a_ms=0.2, part_b_ms=1.78,
                     n_total=20800, client_bytes=1457, server_bytes=2191)


def test_render_table2_contains_rows_and_legend():
    text = render_table2([_row(), _row("x25519", classical=True)], "Table 2a")
    assert "kyber512" in text and "x25519" in text
    assert "20800" in text
    assert "1457" in text
    assert "pre-quantum" in text
    assert "*x25519" in text  # classical marker


def test_render_table2_level_grouping():
    rows = [_row("a", level=1), _row("b", level=1), _row("c", level=3)]
    lines = render_table2(rows, "t").splitlines()
    assert lines[2].strip().startswith("1")
    assert lines[3].strip().startswith("b")  # level column omitted on repeat
    assert lines[4].strip().startswith("3")


def test_render_table3():
    row = Table3Row(level=1, kem="bikel1", sig="dilithium2", handshakes_per_s=231,
                    server_cpu_ms=1.8, client_cpu_ms=6.5,
                    server_library_share={"libcrypto": 0.7, "kernel": 0.2, "libssl": 0.1},
                    client_library_share={"libssl": 0.8, "kernel": 0.2},
                    server_packets=6, client_packets=7)
    text = render_table3([row])
    assert "bikel1" in text
    assert "libssl 80%" in text  # BIKE's client quirk visible


def test_render_table4():
    row = Table4Row(level=1, algorithm="hqc128", classical=False,
                    medians_ms={"none": 1.78, "high-loss": 2.05,
                                "low-bandwidth": 51.29, "high-delay": 1002.22,
                                "lte-m": 251.31, "5g": 46.31})
    text = render_table4([row], "Table 4a")
    assert "1002.22" in text and "hqc128" in text


def test_render_deviations_and_csv():
    deviations = [Deviation(kem="bikel1", sig="sphincs128", level=1,
                            expected=0.020, measured=0.0155)]
    text = render_deviations(deviations, "Figure 3b")
    assert "+4.50" in text  # E-M in ms, faster than predicted
    parsed = list(csv.DictReader(io.StringIO(deviations_csv(deviations))))
    assert parsed[0]["kem"] == "bikel1"
    assert float(parsed[0]["deviationMs"]) == 4.5


def test_render_improvements_pins_committed_line():
    default = [Deviation(kem="x25519", sig="rsa:3072", level=1,
                         expected=0.0, measured=0.0040446)]
    optimized = [Deviation(kem="x25519", sig="rsa:3072", level=1,
                           expected=0.0, measured=0.0036827)]
    lines = render_improvements(default, optimized).splitlines()
    assert lines == ["Figure 3c: latency improvement of the optimized behaviour (ms)",
                     "x25519         rsa:3072            +0.36"]


def test_render_improvements_rejects_unpaired_lists():
    default = [Deviation(kem="x25519", sig="rsa:3072", level=1, expected=0.0, measured=0.004)]
    optimized = [Deviation(kem="p256", sig="rsa:3072", level=1, expected=0.0, measured=0.004)]
    with pytest.raises(ValueError, match="unpaired"):
        render_improvements(default, optimized)


def test_render_ranking():
    text = render_ranking([("kyber512", 0), ("p521", 9)], [("falcon512", 0)])
    assert "kyber512:0" in text and "p521:9" in text and "falcon512:0" in text


def test_render_attack_metrics():
    metrics = AttackMetrics(worst_cpu_ratio=("kyber512", "sphincs128", 6.0),
                            worst_amplification=("sphincs256", 96.0))
    text = render_attack_metrics(metrics)
    assert "6.0x" in text and "96.0x" in text and "QUIC" in text


def test_latencies_csv_columns():
    parsed = list(csv.DictReader(io.StringIO(latencies_csv([_row()]))))
    row = parsed[0]
    assert row["algorithm"] == "kyber512"
    assert float(row["partAMedian"]) == 0.2
    assert float(row["partAllMedian"]) == 1.98
    assert row["nTotal"] == "20800"
