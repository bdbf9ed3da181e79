"""ServerCores: the heap of busy-until times against a linear-scan oracle."""

import pytest
from hypothesis import given, strategies as st

from repro.traffic.server import ServerCores


class LinearScanCores:
    """The obvious k-core FCFS model: scan for the earliest-free core."""

    def __init__(self, cores: int):
        self.free = [0.0] * cores

    def acquire(self, now: float, seconds: float) -> tuple[float, float]:
        best = min(range(len(self.free)), key=self.free.__getitem__)
        start = max(self.free[best], now)
        end = start + seconds
        self.free[best] = end
        return start, end


# (gap since the previous burst, burst length): arrivals never go back in
# time, as the engine guarantees; zero gaps make bursts of simultaneous
# arrivals that queue behind each other
bursts = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
              st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
    max_size=200)


@pytest.mark.parametrize("cores", [1, 2, 32])
@given(sequence=bursts)
def test_heap_matches_linear_scan(cores, sequence):
    heap, oracle = ServerCores(cores), LinearScanCores(cores)
    now = total = 0.0
    for gap, seconds in sequence:
        now += gap
        total += seconds
        assert heap.acquire(now, seconds) == oracle.acquire(now, seconds)
    assert heap.cores == cores
    assert heap.busy_seconds == pytest.approx(total)


def test_rejects_zero_cores():
    with pytest.raises(ValueError, match=">= 1 core"):
        ServerCores(0)
