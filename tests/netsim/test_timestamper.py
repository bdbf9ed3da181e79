"""Passive timestamper: phase extraction and accounting."""

import pytest

from repro.netsim.packets import Segment
from repro.netsim.timestamper import Timestamper


def _seg(label="", payload=b"x", syn=False):
    return Segment("a", "b", seq=0, payload=payload, ack=0, label=label, syn=syn)


def test_phase_extraction():
    tap = Timestamper()
    tap.tap("c2s")(0.0, _seg(syn=True, payload=b""))
    tap.tap("c2s")(1.0, _seg("ClientHello"))
    tap.tap("s2c")(1.4, _seg("SH"))
    tap.tap("s2c")(1.6, _seg("EE+Cert"))
    tap.tap("c2s")(2.0, _seg("CCS+Fin"))
    t_ch, t_sh, t_fin = tap.read().phase_times()
    assert (t_ch, t_sh, t_fin) == (1.0, 1.4, 2.0)
    assert t_sh - t_ch == pytest.approx(0.4)
    assert t_fin - t_sh == pytest.approx(0.6)
    assert t_fin - t_ch == pytest.approx(1.0)


def test_first_occurrence_wins_on_retransmission():
    tap = Timestamper()
    tap.tap("c2s")(1.0, _seg("ClientHello"))
    tap.tap("c2s")(2.0, _seg("ClientHello"))  # retransmit
    tap.tap("s2c")(2.5, _seg("SH"))
    tap.tap("c2s")(3.0, _seg("CCS+Fin"))
    assert tap.read().phase_times()[0] == 1.0


def test_combined_flight_labels_match():
    """A segment carrying SH+EE+Cert (default buffering) still marks SH —
    like the paper's tap spotting the plaintext ServerHello header inside
    a coalesced packet."""
    tap = Timestamper()
    tap.tap("c2s")(0.0, _seg("ClientHello"))
    tap.tap("s2c")(0.5, _seg("SH+EE+Cert+CV+Fin"))
    tap.tap("c2s")(1.0, _seg("CCS+Fin"))
    t_ch, t_sh, t_fin = tap.read().phase_times()
    assert t_sh - t_ch == pytest.approx(0.5)
    assert t_fin - t_sh == pytest.approx(0.5)


def test_missing_markers_raise():
    tap = Timestamper()
    tap.tap("c2s")(0.0, _seg("ClientHello"))
    with pytest.raises(RuntimeError, match="markers"):
        tap.read().phase_times()


def test_missing_marker_error_names_each_marker_and_direction():
    tap = Timestamper()
    tap.tap("c2s")(0.0, _seg("ClientHello"))
    tap.tap("s2c")(0.5, _seg("SH"))
    with pytest.raises(RuntimeError) as excinfo:
        tap.read().phase_times()
    message = str(excinfo.value)
    assert "CCS+Fin (c2s)" in message
    assert "ClientHello" not in message  # only the absentees are listed
    assert "2 frames tapped" in message


def test_empty_tap_lists_all_three_markers():
    with pytest.raises(RuntimeError) as excinfo:
        Timestamper().read().phase_times()
    message = str(excinfo.value)
    for expected in ("ClientHello (c2s)", "SH (s2c)", "CCS+Fin (c2s)"):
        assert expected in message


def test_byte_and_packet_accounting():
    tap = Timestamper()
    tap.tap("c2s")(0.0, _seg(payload=b"x" * 100))
    tap.tap("c2s")(0.1, _seg(payload=b"", syn=True))
    tap.tap("s2c")(0.2, _seg(payload=b"y" * 50))
    reading = tap.read()
    assert reading.wire_bytes == {"c2s": 166 + 74, "s2c": 116}
    assert reading.packets == {"c2s": 2, "s2c": 1}


def test_read_takes_server_labels_and_the_last_frame_time():
    tap = Timestamper()
    tap.tap("c2s")(0.0, _seg("ClientHello"))
    tap.tap("s2c")(0.7, _seg("SH"))
    tap.tap("s2c")(0.9, _seg())               # unlabelled: not a flight
    tap.tap("c2s")(0.8, _seg("CCS+Fin"))      # taps are not time-ordered
    tap.tap("s2c")(0.6, _seg("EE+Cert"))
    reading = tap.read()
    assert reading.server_labels == ("SH", "EE+Cert")
    assert reading.last_time == 0.9
    assert Timestamper().read().last_time is None
