"""The trial kernel's outputs are pinned: key streams, both hash schemes and
the distinct-key replay must keep producing these exact counts."""

import pytest

from ibltlab import _kernels_py
from ibltlab._bits import (
    KEYS_DISTINCT,
    KEYS_IID,
    SCHEME_PARTITIONED,
    SCHEME_SS_AVOIDING,
)

SEEDS = (0, 1, 98765)


@pytest.mark.parametrize(
    "scheme, key_model, n, ell, k, b, expected",
    [
        # (failures, size-2 residuals) of trials 0..1499, one pair per seed.
        (SCHEME_PARTITIONED, KEYS_IID, 8, 6, 3, 16, [(237, 186), (243, 190), (213, 160)]),
        (SCHEME_PARTITIONED, KEYS_IID, 2, 2, 2, 32, [(372, 372), (383, 383), (353, 353)]),
        (SCHEME_PARTITIONED, KEYS_DISTINCT, 8, 6, 3, 8, [(235, 185), (243, 194), (222, 180)]),
        (SCHEME_SS_AVOIDING, KEYS_DISTINCT, 8, 8, 2, 6, [(124, 0), (136, 0), (141, 0)]),
        (SCHEME_SS_AVOIDING, KEYS_DISTINCT, 30, 16, 3, 12, [(167, 0), (141, 0), (159, 0)]),
    ],
)
def test_trial_kernel_outputs_are_pinned(scheme, key_model, n, ell, k, b, expected):
    got = [
        _kernels_py.run_trials(seed, 0, 1500, n, ell, k, b, scheme, key_model)
        for seed in SEEDS
    ]
    assert got == expected
