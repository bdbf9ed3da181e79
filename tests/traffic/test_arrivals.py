"""Arrival models: spec parsing, thinning correctness, determinism."""

import math

import pytest

from repro.crypto.drbg import Drbg
from repro.traffic.arrivals import (
    DRAW_CHUNK,
    ClosedSpec,
    DiurnalSpec,
    FlashSpec,
    PoissonSpec,
    Window,
    open_arrivals,
    parse_arrival,
)
from repro.traffic.engine import TrafficConfig, shard_windows


def _drain(spec, window, label="arrivals"):
    arrivals = open_arrivals(spec, window, Drbg("test").fork(label))
    times = []
    while (t := arrivals.next_time()) is not None:
        times.append(t)
    return times


# -- parsing -----------------------------------------------------------------

def test_parse_poisson():
    spec = parse_arrival("poisson:1000/s", duration=60.0)
    assert spec == PoissonSpec(rate=1000.0)
    assert parse_arrival("poisson:250", 1.0).rate == 250.0  # /s optional


def test_parse_diurnal_defaults_period_to_duration():
    spec = parse_arrival("diurnal:100/s", duration=120.0)
    assert spec == DiurnalSpec(rate=100.0, amplitude=0.5, period=120.0)
    spec = parse_arrival("diurnal:100/s,amp=0.9,period=10", duration=120.0)
    assert spec.amplitude == 0.9 and spec.period == 10.0
    assert spec.peak_rate == pytest.approx(190.0)


def test_parse_flash_defaults_derive_from_duration():
    spec = parse_arrival("flash:200/s", duration=100.0)
    assert spec == FlashSpec(rate=200.0, peak=2000.0, at=50.0, width=10.0)
    spec = parse_arrival("flash:200/s,peak=500/s,at=5,width=2", duration=100.0)
    assert spec == FlashSpec(rate=200.0, peak=500.0, at=5.0, width=2.0)


def test_parse_closed():
    assert parse_arrival("closed:500", 1.0) == ClosedSpec(clients=500)
    assert parse_arrival("closed:8,think=0.25", 1.0) == ClosedSpec(
        clients=8, think=0.25)


@pytest.mark.parametrize("bad", [
    "poisson",                     # no rate
    "poisson:zero/s",              # non-numeric rate
    "poisson:-5/s",                # non-positive rate
    "poisson:100/s,burst=2",       # unknown option
    "diurnal:100/s,amp=1.5",       # amplitude out of [0, 1)
    "diurnal:100/s,period=0",      # non-positive period
    "flash:100/s,width=-1",        # non-positive width
    "flash:100/s,peak",            # option without '='
    "closed:0",                    # no clients
    "closed:4,think=-1",           # negative think
    "pareto:100/s",                # unknown kind
])
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        parse_arrival(bad, duration=60.0)


# a NaN or infinite number would hang the arrival timeline (a NaN time
# never reaches the window's end) or run it empty, so each field refuses
# one by name; nothing here starts an engine run
@pytest.mark.parametrize("field, spec", [
    ("rate", "poisson:{}/s"),
    ("rate", "diurnal:{}/s"),
    ("amp", "diurnal:100/s,amp={}"),
    ("period", "diurnal:100/s,period={}"),
    ("rate", "flash:{}/s"),
    ("peak", "flash:100/s,peak={}/s"),
    ("at", "flash:100/s,at={}"),
    ("width", "flash:100/s,width={}"),
    ("think", "closed:2,think={}"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_numbers(field, spec, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        parse_arrival(spec.format(value), duration=60.0)


@pytest.mark.parametrize("field", ["duration", "shard_seconds"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_shard_windows_reject_non_finite_timing(field, value):
    config = TrafficConfig(**{"duration": 2.0, "shard_seconds": 1.0,
                              field: value})
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        shard_windows(config)


def test_open_arrivals_rejects_closed_spec():
    with pytest.raises(ValueError):
        open_arrivals(ClosedSpec(clients=4), Window(0, 0.0, 1.0), Drbg("t"))


# -- the thinned processes ---------------------------------------------------

def test_poisson_count_near_rate_times_duration():
    times = _drain(PoissonSpec(rate=1000.0), Window(0, 0.0, 4.0))
    # mean 4000, sd ~63: a 6-sigma band that still catches rate bugs
    assert 3600 < len(times) < 4400


def test_arrivals_are_strictly_inside_the_window_and_ordered():
    window = Window(2, 3.0, 4.5)
    times = _drain(DiurnalSpec(rate=800.0, amplitude=0.9, period=2.0), window)
    assert times == sorted(times)
    assert all(window.start <= t < window.end for t in times)


def test_same_seed_same_timeline_different_fork_differs():
    spec = PoissonSpec(rate=500.0)
    window = Window(0, 0.0, 2.0)
    assert _drain(spec, window, "a") == _drain(spec, window, "a")
    assert _drain(spec, window, "a") != _drain(spec, window, "b")


def test_flash_burst_is_denser_than_baseline():
    spec = FlashSpec(rate=100.0, peak=1000.0, at=1.0, width=1.0)
    times = _drain(spec, Window(0, 0.0, 3.0))
    burst = sum(1 for t in times if 1.0 <= t < 2.0)
    outside = len(times) - burst
    # ~1000 in-burst vs ~200 outside; 2x the off-burst *total* is a
    # comfortable margin for a 10x rate step
    assert burst > 2 * outside


def test_thinning_skips_candidates_without_shifting_later_draws():
    # at amp -> 0 the diurnal process degenerates to homogeneous Poisson;
    # both consume (gap, accept) per candidate, so the timelines coincide
    flat = _drain(PoissonSpec(rate=300.0), Window(0, 0.0, 2.0))
    nearly_flat = _drain(DiurnalSpec(rate=300.0, amplitude=0.0, period=1.0),
                         Window(0, 0.0, 2.0))
    assert flat == nearly_flat


# -- chunked draws against the scalar thinning loop --------------------------

def _scalar_timeline(spec, window, drbg):
    """The thinning loop with one scalar draw per gap and per acceptance.

    Returns the arrival times and the number of candidates drawn.
    """
    peak = spec.peak_rate
    t, times, candidates = window.start, [], 0
    while True:
        t -= math.log1p(-drbg.random()) / peak
        candidates += 1
        if t >= window.end:
            return times, candidates
        if drbg.random() * peak <= spec.rate_at(t):
            times.append(t)


_SPECS = [
    PoissonSpec(rate=1000.0),
    DiurnalSpec(rate=800.0, amplitude=0.9, period=2.0),
    FlashSpec(rate=200.0, peak=2000.0, at=1.0, width=0.5),
]


@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: type(spec).__name__)
@pytest.mark.parametrize("chunks", [2.6, 1.5, 0.0])
def test_chunked_timeline_equals_scalar_timeline(spec, chunks):
    # a window sized in expected candidates: more than two chunks, one
    # ending mid-chunk, and one too short to hold any arrival
    length = chunks * DRAW_CHUNK / spec.peak_rate or 1e-9
    window = Window(3, 0.9, 0.9 + length)
    want, candidates = _scalar_timeline(spec, window, Drbg("oracle"))
    if chunks == 2.6:
        assert candidates > 2 * DRAW_CHUNK
    elif chunks == 1.5:
        assert DRAW_CHUNK < candidates < 2 * DRAW_CHUNK
    else:
        assert want == []

    arrivals = open_arrivals(spec, window, Drbg("oracle"))
    got = []
    while (t := arrivals.next_time()) is not None:
        got.append(t)
    assert got == want
    # the process stays exhausted once it has left the window
    assert [arrivals.next_time() for _ in range(3)] == [None] * 3
