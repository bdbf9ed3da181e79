"""Seed-sweep soak: chaos across lossy scenarios never escapes untyped.

The full sweep (~200 seeds x scenario x fault plan) runs under ``-m soak``
(CI's dedicated step); the trimmed sweep rides in tier-1. The contract in
both: every handshake ends in a typed :class:`HandshakeOutcome` — no
exception unwinds through the event loop, failed runs zero their phase
timings, and a replayed seed reproduces its outcome bit-identically.
"""

import pytest

from repro.crypto.drbg import Drbg
from repro.faults.outcome import FAILURE_KINDS, KIND_SUCCESS
from repro.faults.plan import FAULT_PLANS
from repro.netsim.costmodel import CostModel
from repro.netsim.netem import SCENARIOS
from repro.netsim.scripted import ScriptReplay
from repro.netsim.testbed import run_simulated_handshake
from repro.core.experiment import load_script
from repro.tls.server import BufferPolicy

_SCENARIOS = ("high-loss", "lte-m", "5g")
# every named plan that composes with scripted replay (checksum-safe)
_PLANS = ("bit-rot", "dup", "reorder", "chaos")


@pytest.fixture(scope="module")
def script():
    return load_script("x25519", "rsa:1024", BufferPolicy.OPTIMIZED)


def _one(script, seed_index: int):
    scenario = SCENARIOS[_SCENARIOS[seed_index % len(_SCENARIOS)]]
    plan = FAULT_PLANS[_PLANS[seed_index % len(_PLANS)]]
    client, server = ScriptReplay(script).apps()
    return run_simulated_handshake(
        client, server, scenario=scenario,
        netem_drbg=Drbg(f"soak:{seed_index}"), cost_model=CostModel(),
        max_sim_seconds=60.0, plan=plan)


def _sweep(script, seeds):
    outcomes = {}
    for i in seeds:
        trace = _one(script, i)
        outcome = trace.outcome
        assert outcome.kind == KIND_SUCCESS or outcome.kind in FAILURE_KINDS
        if outcome.ok:
            assert 0 < trace.total <= 60.0
            assert trace.part_a > 0 and trace.part_b > 0
        else:
            assert trace.part_a == trace.part_b == trace.total == 0.0
            assert outcome.detail
        assert trace.client_wire_bytes > 0        # the wire saw traffic either way
        outcomes[outcome.key] = outcomes.get(outcome.key, 0) + 1
    return outcomes


def test_soak_trimmed_subset(script):
    outcomes = _sweep(script, range(16))
    assert sum(outcomes.values()) == 16
    assert outcomes.get("success", 0) > 0


def test_soak_replayed_seed_is_bit_identical(script):
    first, second = _one(script, 7), _one(script, 7)
    assert first == second                         # full HandshakeTrace eq


@pytest.mark.soak
def test_soak_full_sweep(script):
    outcomes = _sweep(script, range(200))
    assert sum(outcomes.values()) == 200
    # the sweep must actually exercise the happy path at scale; failures,
    # when they occur, are typed (asserted per-run inside _sweep)
    assert outcomes.get("success", 0) > 150
