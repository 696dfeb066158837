import numpy as np
import pytest

from audiotext.rng import SplitMix64

from oracles import uniform_reference


def test_seed_zero_first_output_matches_published_vector():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_same_seed_same_sequence():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_first_outputs_distinct_over_1000_seeds():
    outputs = {SplitMix64(seed).next_u64() for seed in range(1000)}
    assert len(outputs) == 1000


def test_bounded_in_range_and_deterministic():
    gen = SplitMix64(7)
    draws = [gen.bounded(13) for _ in range(500)]
    assert all(0 <= d < 13 for d in draws)
    replay = SplitMix64(7)
    assert draws == [replay.bounded(13) for _ in range(500)]
    # small-n sanity: every residue shows up
    gen3 = SplitMix64(3)
    assert set(gen3.bounded(4) for _ in range(200)) == {0, 1, 2, 3}


def test_bounded_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).bounded(0)


def test_uniform_in_unit_interval():
    gen = SplitMix64(42)
    xs = [uniform_reference(gen) for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_uniform_array_bit_identical_to_scalar_draws():
    scalar = SplitMix64(99)
    batch = SplitMix64(99)
    expected = np.array([uniform_reference(scalar) for _ in range(257)])
    got = batch.uniform_array(257)
    assert got.tolist() == expected.tolist()
    assert batch.state == scalar.state
    assert batch.uniform_array(0).shape == (0,)


def test_shuffle_is_seeded_permutation():
    items = list(range(30))
    a = items[:]
    SplitMix64(5).shuffle(a)
    b = items[:]
    SplitMix64(5).shuffle(b)
    assert a == b
    assert sorted(a) == items
    c = items[:]
    SplitMix64(6).shuffle(c)
    assert c != a
