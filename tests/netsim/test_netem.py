"""netem emulation: delay, rate, loss — and the paper's scenario table."""

import pytest

from repro.crypto.drbg import Drbg
from repro.netsim.eventloop import EventLoop
from repro.netsim.netem import SCENARIOS, Link, NetemConfig
from repro.netsim.packets import Segment


def _segment(size=934):
    return Segment("a", "b", seq=0, payload=b"\x00" * (size - 66), ack=0)


def _run_one(config, drbg=None, size=934):
    loop = EventLoop()
    arrivals = []
    taps = []
    link = Link(loop, config, drbg or Drbg("netem"),
                deliver=lambda seg: arrivals.append(loop.now),
                tap=lambda t, seg: taps.append(t))
    link.transmit(_segment(size))
    loop.run()
    return arrivals, taps


def test_propagation_delay():
    config = NetemConfig("d", rtt=0.2, rate_bps=1e12)
    arrivals, _ = _run_one(config)
    assert arrivals[0] == pytest.approx(0.1, abs=1e-6)


def test_serialization_at_rate():
    config = NetemConfig("r", rate_bps=1e6)
    arrivals, taps = _run_one(config, size=1000)
    assert arrivals[0] == pytest.approx(8e-3, rel=1e-6)  # 1000 B at 1 Mbit/s
    assert taps[0] == pytest.approx(8e-3, rel=1e-6)


def test_back_to_back_frames_queue():
    config = NetemConfig("q", rate_bps=1e6)
    loop = EventLoop()
    arrivals = []
    link = Link(loop, config, Drbg("x"), deliver=lambda seg: arrivals.append(loop.now))
    link.transmit(_segment(1000))
    link.transmit(_segment(1000))
    loop.run()
    assert arrivals[1] - arrivals[0] == pytest.approx(8e-3, rel=1e-6)


def test_loss_statistics():
    config = NetemConfig("l", loss=0.10, rate_bps=1e12)
    loop = EventLoop()
    delivered = []
    link = Link(loop, config, Drbg("loss-stats"),
                deliver=lambda seg: delivered.append(seg))
    for _ in range(2000):
        link.transmit(_segment())
    loop.run()
    assert 1700 <= len(delivered) <= 1890  # ~1800 expected


def test_loss_is_seed_deterministic():
    config = NetemConfig("l", loss=0.5, rate_bps=1e12)

    def pattern(seed):
        loop = EventLoop()
        delivered = set()
        link = Link(loop, config, Drbg(seed),
                    deliver=lambda seg: delivered.add(id(seg)))
        segments = [_segment() for _ in range(50)]
        for seg in segments:
            link.transmit(seg)
        loop.run()
        # positions that survived (segments stay alive, so ids are unique)
        return [i for i, seg in enumerate(segments) if id(seg) in delivered]

    assert pattern("seed-1") == pattern("seed-1")
    assert pattern("seed-1") != pattern("seed-2")


def test_tap_sees_dropped_frames():
    """The tap records what was sent, even frames netem then drops."""
    config = NetemConfig("l", loss=1.0, rate_bps=1e12)
    arrivals, taps = _run_one(config)
    assert arrivals == [] and len(taps) == 1


def test_paper_scenarios_match_appendix_a():
    assert SCENARIOS["high-loss"].loss == 0.10
    assert SCENARIOS["low-bandwidth"].rate_bps == 1e6
    assert SCENARIOS["high-delay"].rtt == 1.0
    lte = SCENARIOS["lte-m"]
    assert (lte.loss, lte.rtt, lte.rate_bps) == (0.10, 0.200, 1e6)
    g5 = SCENARIOS["5g"]
    assert (g5.loss, g5.rtt, g5.rate_bps) == (0.04, 0.044, 880e6)
    assert SCENARIOS["none"].loss == 0 and SCENARIOS["none"].rtt == 0


def test_syn_frames_carry_extra_options():
    seg = Segment("a", "b", seq=0, payload=b"", ack=0, syn=True)
    assert seg.wire_bytes == 74
    plain = Segment("a", "b", seq=0, payload=b"", ack=0)
    assert plain.wire_bytes == 66


# -- combined --scenario specs ------------------------------------------------

def test_split_scenario_defaults_and_single_components():
    from repro.netsim.netem import split_scenario

    assert split_scenario("none") == ("none", "full")
    assert split_scenario("") == ("none", "full")
    assert split_scenario("lte-m") == ("lte-m", "full")
    assert split_scenario("resume") == ("none", "resume")


def test_split_scenario_combos_in_either_order():
    from repro.netsim.netem import split_scenario

    assert split_scenario("lte-m+resume") == ("lte-m", "resume")
    assert split_scenario("mtls+5g") == ("5g", "mtls")


def test_split_scenario_rejects_bad_specs():
    from repro.netsim.netem import split_scenario

    with pytest.raises(ValueError, match="unknown scenario component"):
        split_scenario("bogus")
    with pytest.raises(ValueError, match="two netem"):
        split_scenario("lte-m+5g")
    with pytest.raises(ValueError, match="two session"):
        split_scenario("resume+hrr")
