"""Ablations of the design choices DESIGN.md calls out.

1. Buffering policy: what Table 2 would look like with stock OpenSSL.
2. Initial congestion window: the paper's conclusion that initcwnd
   becomes 'an important tuning factor' for PQ TLS.
3. Scripted replay vs. real crypto execution (the simulator shortcut).
"""

import pytest

from repro.crypto.drbg import Drbg
from repro.netsim import tcp as tcp_mod
from repro.netsim.costmodel import CostModel
from repro.netsim.netem import SCENARIOS
from repro.netsim.scripted import ScriptReplay, load_credentials, record_script
from repro.netsim.testbed import Testbed, run_simulated_handshake
from repro.tls.server import BufferPolicy


def _bed(kem, sig, **kwargs):
    cert, sk, store = load_credentials(sig)
    return Testbed(kem, sig, cert, sk, store, **kwargs)


def test_ablation_buffer_policy():
    """Optimized flush is never slower, and helps heavy-CPU combinations."""
    pairs = [("p256", "rsa:3072"), ("bikel1", "rsa:3072"), ("kyber512", "rsa:1024")]
    gains = {}
    for kem, sig in pairs:
        optimized = _bed(kem, sig).run_handshake().total
        default = _bed(kem, sig, policy=BufferPolicy.DEFAULT).run_handshake().total
        gains[(kem, sig)] = (default - optimized) * 1e3
    assert all(g >= -0.01 for g in gains.values())
    # overlap matters when both sides burn CPU
    assert gains[("bikel1", "rsa:3072")] > gains[("kyber512", "rsa:1024")]


def test_ablation_initcwnd(monkeypatch):
    """Raising initcwnd from 10 to 40 removes dilithium5's extra RTT —
    the tuning knob the paper's conclusion recommends."""
    baseline = _bed("x25519", "dilithium5", scenario="high-delay").run_handshake().total
    monkeypatch.setattr(tcp_mod, "INIT_CWND", 40)
    tuned = _bed("x25519", "dilithium5", scenario="high-delay").run_handshake().total
    assert baseline > 1.9          # 2 RTT with the default window
    assert tuned < 1.3             # 1 RTT once the flight fits


def test_ablation_scripted_vs_real():
    """The replay shortcut is >10x faster and trace-identical."""
    import time

    bed = _bed("kyber512", "dilithium2",
               drbg=Drbg("script:kyber512:dilithium2:optimized:paper"))
    t0 = time.perf_counter()
    real = bed.run_handshake()
    real_seconds = time.perf_counter() - t0

    script = record_script("kyber512", "dilithium2")

    def replay():
        client, server = ScriptReplay(script).apps()
        return run_simulated_handshake(
            client, server, scenario=SCENARIOS["none"],
            netem_drbg=Drbg("ablate"), cost_model=CostModel())

    t0 = time.perf_counter()
    trace = replay()
    replay_seconds = time.perf_counter() - t0
    assert trace.part_b == pytest.approx(real.part_b, rel=1e-9)
    assert replay_seconds < real_seconds
