import numpy as np
import pytest
from reference import trial_state

from ibltlab._bits import (
    MASK64,
    lane_keys,
    lane_keys_array,
    mix64,
    mix64_array,
    sweep_point_seed,
)


def test_mix64_is_stable():
    # Frozen outputs: every stream, hash lane and seed derives from mix64.
    # The second one is the canonical first splitmix64 output for seed 0.
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


def test_mix64_is_a_bijection_on_a_sample():
    seen = {mix64(x) for x in range(10_000)}
    assert len(seen) == 10_000


def test_vectorized_mix_matches_scalar():
    values = np.array([0, 1, 2, 12345, MASK64, 0xDEADBEEF], dtype=np.uint64)
    given = values.copy()
    got = mix64_array(values)
    assert got.dtype == np.uint64
    assert values.tolist() == given.tolist()  # the input is left as it was
    assert got.tolist() == [mix64(x) for x in given.tolist()]
    assert mix64_array(np.array([MASK64, 0], dtype=np.uint64)).tolist() == [mix64(MASK64), 0]


@pytest.mark.parametrize("seed", [0, 7, MASK64])
@pytest.mark.parametrize("k", [1, 3, 64, 1000])
def test_array_lanes_match_the_scalar_lanes(seed, k):
    lanes = lane_keys_array(seed, k)
    assert lanes.dtype == np.uint64
    assert lanes.tolist() == list(lane_keys(seed, k))


def test_streams_are_salted_apart():
    # Lane keys, trial states and sweep seeds must not collide trivially.
    assert trial_state(0, 0) != lane_keys(0, 1)[0]
    assert trial_state(0, 0) != sweep_point_seed(0, 0)
    assert len({trial_state(5, t) for t in range(1000)}) == 1000
