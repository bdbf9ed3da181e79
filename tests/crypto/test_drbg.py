"""Deterministic RNG: reproducibility, stream independence, distribution."""

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import Drbg


def test_same_seed_same_stream():
    assert Drbg("seed").random_bytes(100) == Drbg("seed").random_bytes(100)


def test_different_seeds_differ():
    assert Drbg("seed-a").random_bytes(32) != Drbg("seed-b").random_bytes(32)


def test_seed_types_accepted():
    assert Drbg(b"x").random_bytes(8)
    assert Drbg("x").random_bytes(8)
    assert Drbg(12345).random_bytes(8)


def test_byte_seed_matches_str_seed():
    assert Drbg("abc").random_bytes(16) == Drbg(b"abc").random_bytes(16)


def test_incremental_reads_match_bulk_read():
    bulk = Drbg("seed").random_bytes(64)
    inc = Drbg("seed")
    assert inc.random_bytes(10) + inc.random_bytes(30) + inc.random_bytes(24) == bulk


def test_fork_is_independent_of_parent_position():
    parent1 = Drbg("seed")
    parent2 = Drbg("seed")
    parent2.random_bytes(100)  # advance
    assert parent1.fork("child").random_bytes(32) == parent2.fork("child").random_bytes(32)


def test_fork_labels_distinct():
    parent = Drbg("seed")
    assert parent.fork("a").random_bytes(32) != parent.fork("b").random_bytes(32)


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        Drbg("s").random_bytes(-1)


@given(st.integers(min_value=1, max_value=10**12))
def test_randint_below_in_range(bound):
    value = Drbg(b"bnd").randint_below(bound)
    assert 0 <= value < bound


def test_randint_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Drbg("s").randint_below(0)


def test_randint_inclusive_endpoints_reachable():
    drbg = Drbg("endpoints")
    seen = {drbg.randint(0, 1) for _ in range(64)}
    assert seen == {0, 1}


def test_randint_empty_range_rejected():
    with pytest.raises(ValueError):
        Drbg("s").randint(3, 2)


def test_random_unit_interval():
    drbg = Drbg("floats")
    values = [drbg.random() for _ in range(200)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.3 < sum(values) / len(values) < 0.7  # roughly uniform


def test_shuffle_is_permutation():
    drbg = Drbg("shuffle")
    items = list(range(50))
    shuffled = list(items)
    drbg.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_choice_from_singleton_and_empty():
    assert Drbg("s").choice([42]) == 42
    with pytest.raises(ValueError):
        Drbg("s").choice([])


@given(st.integers(min_value=1, max_value=500), st.data())
def test_sample_distinct_properties(bound, data):
    count = data.draw(st.integers(min_value=0, max_value=bound))
    sample = Drbg(b"sd").sample_distinct(bound, count)
    assert len(sample) == count
    assert len(set(sample)) == count
    assert all(0 <= v < bound for v in sample)


def test_sample_distinct_overdraw_rejected():
    with pytest.raises(ValueError):
        Drbg("s").sample_distinct(5, 6)


def test_uniformity_of_randint_below():
    drbg = Drbg("uniform")
    counts = [0] * 7
    for _ in range(7000):
        counts[drbg.randint_below(7)] += 1
    assert min(counts) > 800 and max(counts) < 1200


# -- bulk draws: the same values and the same bytes as scalar calls ---------

_BOUNDS = st.sampled_from([2, 3, 37, 300, 2**16 + 1])
_OPS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("randint_below"), _BOUNDS),
    # sizes cross the 136-byte SHAKE block boundary, and include 0
    st.tuples(st.just("random_bytes"), st.integers(0, 300)),
    st.tuples(st.just("randoms"), st.integers(0, 60)),
    st.tuples(st.just("randints_below"), _BOUNDS, st.integers(0, 150)),
)


@settings(max_examples=200)
@given(st.lists(_OPS, max_size=25), st.binary(max_size=8))
def test_bulk_draws_interleave_exactly_with_scalar_draws(ops, seed):
    bulk, scalar = Drbg(seed), Drbg(seed)
    for op in ops:
        name, args = op[0], op[1:]
        if name == "randoms":
            got = bulk.randoms(*args).tolist()
            want = [scalar.random() for _ in range(*args)]
        elif name == "randints_below":
            bound, n = args
            got = bulk.randints_below(bound, n)
            want = [scalar.randint_below(bound) for _ in range(n)]
        else:
            got = getattr(bulk, name)(*args)
            want = getattr(scalar, name)(*args)
        assert got == want
    assert bulk.random_bytes(64) == scalar.random_bytes(64)


def test_bulk_randoms_is_a_float64_array_in_the_unit_interval():
    values = Drbg("floats").randoms(500)
    assert values.dtype.name == "float64" and values.shape == (500,)
    assert 0.0 <= values.min() and values.max() < 1.0


def test_randints_below_wider_than_seven_bytes_matches_scalar():
    bound = 2**60 + 3
    scalar = Drbg("w")
    assert Drbg("w").randints_below(bound, 20) == [
        scalar.randint_below(bound) for _ in range(20)]


@pytest.mark.parametrize("bound", [0, -1])
def test_randints_below_rejects_nonpositive_bound_like_scalar(bound):
    with pytest.raises(ValueError, match="bound must be positive"):
        Drbg("s").randint_below(bound)
    with pytest.raises(ValueError, match="bound must be positive"):
        Drbg("s").randints_below(bound, 4)


def test_importing_drbg_loads_no_numpy():
    # the bulk draws import numpy on first use; lint and campaign runs
    # never call them and must not pay numpy's import and RSS
    code = "import sys, repro.crypto.drbg; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"
