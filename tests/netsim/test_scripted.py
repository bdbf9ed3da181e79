"""Handshake script recording and replay mechanics."""

import hashlib

import pytest

from repro.netsim.scripted import (
    Milestone,
    ScriptedApp,
    ScriptedSend,
    ScriptReplay,
    record_script,
    replay_steps,
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
    client, server = ScriptReplay(script).apps()
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
    client, server = ScriptReplay(script).apps()
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
    app = ScriptedApp(replay_steps(milestones), total_in=7)
    app.start()
    assert not app.handshake_complete
    app.receive(b"12345")
    assert not app.handshake_complete  # milestones done but bytes short
    app.receive(b"67")
    assert app.handshake_complete


# -- pinned recordings: the byte-identical spec for the TLS endpoints ---------

def _script_digest(script) -> str:
    """sha256 over a canonical encoding of both sides' milestones."""
    def side(milestones, total_in):
        encoded = []
        for milestone in milestones:
            actions = []
            for action in milestone.actions:
                if isinstance(action, ScriptedSend):
                    actions.append(("send", action.length, action.label))
                else:
                    actions.append(tuple(("op", op.op, op.algorithm, op.size,
                                          op.detail) for op in action.ops))
            encoded.append((milestone.after_bytes, tuple(actions)))
        return tuple(encoded), total_in

    canonical = (side(script.client_milestones, script.client_total_in),
                 side(script.server_milestones, script.server_total_in))
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def _wire_digest(kem, sig, policy, session) -> str:
    """sha256 of the bytes each side sends in one whole-buffer lockstep run
    of the endpoints ``record_script`` builds (lengths alone would miss a
    reordered DRBG draw)."""
    from repro.crypto.drbg import Drbg
    from repro.netsim.scripted import (
        load_chain_credentials,
        load_client_credentials,
    )
    from repro.tls.scenarios import build_session_endpoints

    label = f"script:{kem}:{sig}:{policy.value}:paper"
    if session != "full":
        label += f":{session}"
    cert, sk, store = load_chain_credentials(sig)
    client_credentials = (load_client_credentials(sig)
                          if session == "mtls" else None)
    client, server = build_session_endpoints(
        session, kem, sig, cert, sk, store, Drbg(label), policy=policy,
        client_credentials=client_credentials)

    def sends(actions):
        return b"".join(a.data for a in actions if isinstance(a, Send))

    client_wire = to_server = sends(client.start())
    server_wire = b""
    while to_server:
        to_client = sends(server.receive(to_server))
        server_wire += to_client
        to_server = sends(client.receive(to_client)) if to_client else b""
        client_wire += to_server
    assert client.handshake_complete and server.handshake_complete
    return hashlib.sha256(client_wire + b"|" + server_wire).hexdigest()


PINNED_RECORDINGS = {
    ('full', 'default'): (
        'be16dc9d74d41f359655fdb326359f681b82935871f4df593ed37e3529ad5862',
        'e9d8c5a667888adc676580cf98a7f4370527ad579249e5f047dcb0ce653d5819'),
    ('full', 'optimized'): (
        '7b24bcfb2e9a366923dcb057d73d6f707291243eecbf7d5431c2032525c81caf',
        '0695e5432f54e0a13b6a5d850e7a753abf0d5b773b3a2d4b206a4c63e6f7e349'),
    ('resume', 'default'): (
        '5f173a19027c86758791b858480a0a981d15e6e2008326e9ce5dd97aa78c2894',
        'b147e941d8968440c690d96f258d457b90c35808a5e430d7b07d688592468426'),
    ('resume', 'optimized'): (
        'cc4b70d71112939c728aa9cd13b59a73d698382f39e7b114ee922320a0dfa756',
        '4295662680ce61aa4916eb0c9aebfa32aedee11d4c56d835d488ff8db5627654'),
    ('mtls', 'default'): (
        '7aa691510c7c422073cc80bbed59ed185c6777e512d347305392c750790e3c43',
        '60b8400537e51a46d961b92333dbfbc554d9ef8d306fd70bc87e2a04b72a5354'),
    ('mtls', 'optimized'): (
        '05480611a721b4438e11495757b3ac9c48451b06a28fb72e803621af83b45387',
        'f920960c50690c0d39a625ead019c25452761d0be62b5f68da2632ccd06365e8'),
    ('hrr', 'default'): (
        '050250812ff79ae07c0ff862403d230751ff867b6528227637b288ef2c1d3c40',
        '1243d385c2936da7c332eccc97762aa61c8a72bc073355a8e252633312aa351d'),
    ('hrr', 'optimized'): (
        'c6327db0aa887401e798bb91419a2ccbd6039913c135554a2bec7648f7921e28',
        '39e4bf49c2ef7feceed382e02c17f964b498fa2543c6f9a3a6093b5886f49b82'),
}


@pytest.mark.kernels
@pytest.mark.parametrize("policy", list(BufferPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("session", ["full", "resume", "mtls", "hrr"])
def test_recorded_scripts_and_wire_are_pinned(session, policy, tmp_path,
                                              monkeypatch):
    """Scripts and wire bytes of kyber512/dilithium2 recordings never move:
    every simulated table replays these ops and flight lengths."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    script = record_script("kyber512", "dilithium2", policy, session=session)
    digests = (_script_digest(script),
               _wire_digest("kyber512", "dilithium2", policy, session))
    assert digests == PINNED_RECORDINGS[session, policy.value]
