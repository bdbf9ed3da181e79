"""Handshake script recording and replay mechanics."""

import pytest

from repro.netsim.scripted import (
    Milestone,
    ScriptedApp,
    ScriptedSend,
    record_script,
    scripted_apps,
)
from repro.tls.actions import Compute, CryptoOp, Send
from repro.tls.server import BufferPolicy


@pytest.fixture(scope="module")
def script():
    return record_script("x25519", "rsa:1024")


def test_script_metadata(script):
    assert script.kem_name == "x25519"
    assert script.sig_name == "rsa:1024"
    assert script.policy == "optimized"


def test_client_script_starts_at_zero(script):
    assert script.client_milestones[0].after_bytes == 0
    # the initial milestone includes a keygen and a ClientHello send
    ops = [a for a in script.client_milestones[0].actions if isinstance(a, Compute)]
    sends = [a for a in script.client_milestones[0].actions if isinstance(a, ScriptedSend)]
    assert any(op.op == "kem_keygen" for c in ops for op in c.ops)
    assert sends and sends[0].label == "ClientHello"


def test_server_script_milestones_increasing(script):
    offsets = [m.after_bytes for m in script.server_milestones]
    assert offsets == sorted(offsets)
    assert offsets[0] > 0  # server acts only after receiving bytes


def test_totals_cover_all_milestones(script):
    assert script.client_total_in >= script.client_milestones[-1].after_bytes
    assert script.server_total_in >= script.server_milestones[-1].after_bytes


def test_replay_fires_on_thresholds(script):
    client, server = scripted_apps(script)
    start_actions = client.start()
    sends = [a for a in start_actions if isinstance(a, Send)]
    assert sends and len(sends[0].data) > 0
    # server: nothing before data
    assert server.start() == []
    assert not server.handshake_complete
    # drip-feed the CH: no action until the threshold
    ch_bytes = sends[0].data
    first_threshold = script.server_milestones[0].after_bytes
    actions = server.receive(ch_bytes[: first_threshold - 1])
    assert actions == []
    actions = server.receive(ch_bytes[first_threshold - 1: first_threshold])
    assert actions  # fires exactly at the threshold


def test_replay_handles_coalesced_delivery(script):
    """All bytes in one burst must fire all milestones in order."""
    client, server = scripted_apps(script)
    client.start()
    server_actions = server.receive(bytes(script.server_total_in))
    labels = [a.label for a in server_actions if isinstance(a, Send)]
    assert labels[0].startswith("SH")


def test_default_policy_script_differs(script):
    nopush = record_script("x25519", "rsa:1024", BufferPolicy.DEFAULT)
    push_labels = [a.label for m in script.server_milestones
                   for a in m.actions if isinstance(a, ScriptedSend)]
    nopush_labels = [a.label for m in nopush.server_milestones
                     for a in m.actions if isinstance(a, ScriptedSend)]
    assert push_labels != nopush_labels
    # but the byte totals on the wire agree
    push_total = sum(a.length for m in script.server_milestones
                     for a in m.actions if isinstance(a, ScriptedSend))
    nopush_total = sum(a.length for m in nopush.server_milestones
                       for a in m.actions if isinstance(a, ScriptedSend))
    assert push_total == nopush_total


def test_handshake_complete_semantics():
    milestones = (Milestone(0, (ScriptedSend(10, "x"),)),
                  Milestone(5, (Compute((CryptoOp("key_schedule"),)),)))
    app = ScriptedApp(milestones, total_in=7)
    app.start()
    assert not app.handshake_complete
    app.receive(b"12345")
    assert not app.handshake_complete  # milestones done but bytes short
    app.receive(b"67")
    assert app.handshake_complete
