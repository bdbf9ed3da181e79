"""Link-level fault injection and the netem stage-ordering regression.

The golden timings here pin the corrected qdisc stage order (loss decided
*before* the rate stage, so dropped frames never occupy the serializer).
They were recomputed deliberately when the seed code's ordering bug was
fixed; a change in these values means the link emulation changed.
"""

import pytest

from repro.crypto.drbg import Drbg
from repro.faults.plan import CORRUPT_DELIVER, FaultPlan
from repro.netsim.eventloop import EventLoop
from repro.netsim.netem import Link, NetemConfig, SCENARIOS
from repro.netsim.packets import Segment
from repro.netsim.testbed import Testbed
from repro.obs.metrics import Metrics
from repro.tls.certs import make_server_credentials


def _segment(size=1000, payload_byte=b"\x00"):
    return Segment("a", "b", seq=0, payload=payload_byte * (size - 66), ack=0)


def _ack():
    return Segment("a", "b", seq=0, payload=b"", ack=0, is_ack_only=True)


def _run_link(config, plan=None, segments=None, seed="faults"):
    loop = EventLoop()
    arrivals = []
    link = Link(loop, config, Drbg(seed),
                deliver=lambda seg: arrivals.append((loop.now, seg)),
                plan=plan, name="test")
    for seg in segments or [_segment()]:
        link.transmit(seg)
    loop.run()
    return arrivals, link


def _run(config, plan=None, segments=None, seed="faults"):
    return _run_link(config, plan, segments, seed)[0]


# -- stage ordering: loss before rate (the seed-code regression) -------------

def test_dropped_frame_does_not_consume_serializer():
    # seed "drop-seed-0": first loss draw 0.466 (< 0.5, dropped), second
    # 0.808 (delivered). The survivor serializes from t=0 — under the old
    # (wrong) order it would have queued behind the dropped frame at 16 ms.
    config = NetemConfig("l", loss=0.5, rate_bps=1e6)
    arrivals = _run(config, seed="drop-seed-0",
                    segments=[_segment(), _segment()])
    assert len(arrivals) == 1
    assert arrivals[0][0] == pytest.approx(8e-3, rel=1e-9)


def test_tap_still_records_dropped_frames_without_busy_advance():
    config = NetemConfig("l", loss=0.5, rate_bps=1e6)
    loop = EventLoop()
    taps, arrivals = [], []
    link = Link(loop, config, Drbg("drop-seed-0"),
                deliver=lambda seg: arrivals.append(loop.now),
                tap=lambda t, seg: taps.append(t))
    link.transmit(_segment())
    link.transmit(_segment())
    loop.run()
    assert len(taps) == 2 and len(arrivals) == 1
    assert taps[0] == pytest.approx(0.0, abs=1e-12)      # dropped: tap at wire time
    assert taps[1] == pytest.approx(8e-3, rel=1e-9)      # survivor fully serialized


# -- pinned scenario goldens (recomputed for the corrected ordering) ---------

@pytest.fixture(scope="module")
def golden_creds():
    return make_server_credentials("rsa:1024", Drbg("golden-creds"))


def test_low_bandwidth_golden_timing(golden_creds):
    trace = Testbed("x25519", "rsa:1024", *golden_creds,
                    scenario="low-bandwidth").run_handshake()
    assert trace.outcome.ok
    assert trace.part_a == pytest.approx(0.00212, rel=1e-9)
    assert trace.part_b == pytest.approx(0.0082, rel=1e-9)
    assert trace.total == pytest.approx(0.01032, rel=1e-9)


def test_lte_m_golden_timing(golden_creds):
    bed = Testbed("x25519", "rsa:1024", *golden_creds, scenario="lte-m")
    first = bed.run_handshake()
    second = bed.run_handshake()
    assert first.outcome.ok and second.outcome.ok
    assert first.total == pytest.approx(0.20928, rel=1e-9)
    # the second handshake sees fresh loss randomness (fork "netem:1")
    assert second.total == pytest.approx(0.6554102, rel=1e-9)


# -- corruption --------------------------------------------------------------

def test_checksum_corruption_burns_capacity_but_never_delivers():
    # corrupt=1.0 hits every data frame; the trailing ACK-only frame (no
    # payload, never corrupted) must queue behind the corrupted frame's
    # serialization — the frame burned link capacity before the checksum
    # discarded it.
    config = NetemConfig("c", loss=0.0, rate_bps=1e6)
    plan = FaultPlan(corrupt=1.0)
    arrivals = _run(config, plan=plan, segments=[_segment(), _ack()])
    assert len(arrivals) == 1
    assert arrivals[0][1].is_ack_only
    assert arrivals[0][0] == pytest.approx(8e-3 + 8 * 66 / 1e6, rel=1e-9)


def test_deliver_corruption_flips_exactly_one_bit():
    config = NetemConfig("c", loss=0.0, rate_bps=1e9)
    plan = FaultPlan(corrupt_nth=1, corrupt_mode=CORRUPT_DELIVER)
    original = _segment(payload_byte=b"\xaa")
    arrivals = _run(config, plan=plan, segments=[original])
    assert len(arrivals) == 1
    delivered = arrivals[0][1]
    diff_bits = sum(
        bin(a ^ b).count("1")
        for a, b in zip(original.payload, delivered.payload)
    )
    assert diff_bits == 1
    assert len(delivered.payload) == len(original.payload)


def test_corrupt_nth_counts_data_frames_only():
    # an ACK-only frame rides through first; the 1st *data* frame is still
    # the one corrupt_nth=1 selects
    config = NetemConfig("c", loss=0.0, rate_bps=1e9)
    plan = FaultPlan(corrupt_nth=1)
    arrivals = _run(config, plan=plan, segments=[_ack(), _segment(), _segment()])
    assert [seg.is_ack_only for _, seg in arrivals] == [True, False]


# -- duplication and reordering ----------------------------------------------

def test_dup_delivers_twice_but_never_recurses():
    config = NetemConfig("d", loss=0.0, rate_bps=1e6)
    plan = FaultPlan(dup=1.0)
    arrivals = _run(config, plan=plan)
    assert len(arrivals) == 2
    # the duplicate serializes separately, right behind the original
    assert arrivals[1][0] - arrivals[0][0] == pytest.approx(8e-3, rel=1e-6)


def test_reorder_holds_selected_frame_past_its_successor():
    # seed "ro-3": first reorder draw 0.011 (< 0.5, held back), second
    # 0.936 (not held) — frame B overtakes frame A
    config = NetemConfig("r", loss=0.0, rate_bps=1e12)
    plan = FaultPlan(reorder=0.5, reorder_delay=0.03)
    a = _segment(payload_byte=b"A")
    b = _segment(payload_byte=b"B")
    arrivals = _run(config, plan=plan, seed="ro-3", segments=[a, b])
    assert [seg.payload[:1] for _, seg in arrivals] == [b"B", b"A"]
    assert arrivals[1][0] - arrivals[0][0] == pytest.approx(0.03, rel=1e-6)


# -- metrics and determinism -------------------------------------------------

def test_fault_metrics_counters():
    config = NetemConfig("m", loss=0.0, rate_bps=1e9)
    plan = FaultPlan(corrupt_nth=1, dup=1.0, reorder=1.0)
    arrivals, link = _run_link(config, plan=plan)
    assert link.tally["corrupted"] == 1
    assert link.tally["duplicated"] == 1
    # the original and its duplicate each take the reorder draw
    assert link.tally["reordered"] == 2
    assert "dropped" not in link.tally
    assert len(arrivals) == 1  # original corrupted (checksum), dup survives


def test_fault_injection_is_seed_deterministic():
    config = NetemConfig("det", loss=0.05, rate_bps=1e8)
    plan = FaultPlan(corrupt=0.1, dup=0.1, reorder=0.1, reorder_delay=0.002)

    def run(seed):
        return [(t, seg.payload) for t, seg in _run(
            config, plan=plan, seed=seed,
            segments=[_segment(payload_byte=bytes([i])) for i in range(1, 60)])]

    assert run("seed-a") == run("seed-a")
    assert run("seed-a") != run("seed-b")


def test_inactive_plan_preserves_drbg_stream():
    """A plan with every knob off must replay bit-identically to no plan:
    plan-free links consume exactly one DRBG draw per frame (loss)."""
    config = NetemConfig("p", loss=0.3, rate_bps=1e8)
    segments = [_segment() for _ in range(40)]

    def run(plan):
        return [t for t, _ in _run(config, plan=plan, seed="stream",
                                   segments=list(segments))]

    assert run(None) == run(FaultPlan()) == run(FaultPlan(reorder_delay=9.9))


# -- transport exhaustion (typed failure instead of a raise) -----------------

def test_retransmission_exhaustion_yields_transport_outcome(monkeypatch):
    from repro.faults.outcome import KIND_TRANSPORT
    from repro.netsim import tcp
    from repro.netsim.costmodel import CostModel
    from repro.netsim.scripted import ScriptReplay, record_script
    from repro.netsim.testbed import run_simulated_handshake

    monkeypatch.setattr(tcp, "MAX_RETRIES", 3)
    blackhole = NetemConfig("blackhole", loss=1.0, rate_bps=1e9)
    client, server = ScriptReplay(record_script("x25519", "rsa:1024")).apps()
    metrics = Metrics()
    trace = run_simulated_handshake(
        client, server, scenario=blackhole, netem_drbg=Drbg("exhaust"),
        cost_model=CostModel(), metrics=metrics)
    assert trace.outcome.kind == KIND_TRANSPORT
    assert "retransmission limit" in trace.outcome.detail
    assert trace.total == 0.0
    counters = metrics.snapshot()["counters"]
    assert counters["handshake.failures.transport-error"] == 1
    assert counters["tcp.client.failed"] == 1


def test_scenarios_unchanged():
    # the fault layer must not disturb the paper's scenario table
    assert SCENARIOS["lte-m"].loss == 0.10
    assert SCENARIOS["low-bandwidth"].rate_bps == 1e6
