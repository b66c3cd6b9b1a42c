"""The trial kernel's outputs are pinned: key streams, both hash schemes and
the distinct-key replay must keep producing these exact counts."""

import numpy as np
import pytest
from reference import peel_cells

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


# (scheme, key model, n, ell, k, b, lo, hi): trial ranges that start and end
# off any batch boundary, so partial batches at both ends are exercised.
SHAPES = {
    # Most trials draw a repeated key: iid duplicates share all k cells,
    # distinct keys go through the rejection replay.
    "iid-small-b": (SCHEME_PARTITIONED, KEYS_IID, 50, 40, 3, 10, 7, 1500),
    "distinct-small-b": (SCHEME_PARTITIONED, KEYS_DISTINCT, 50, 40, 3, 10, 7, 1500),
    "ss-distinct-small-b": (SCHEME_SS_AVOIDING, KEYS_DISTINCT, 50, 64, 2, 12, 7, 1500),
    # Above the peeling threshold every trial fails with a large residual;
    # near it the residual sizes vary.
    "overloaded": (SCHEME_PARTITIONED, KEYS_IID, 210, 60, 3, 32, 7, 400),
    "threshold": (SCHEME_PARTITIONED, KEYS_IID, 210, 86, 3, 32, 7, 400),
    "k1": (SCHEME_PARTITIONED, KEYS_IID, 20, 60, 1, 32, 7, 1500),
    "k4": (SCHEME_PARTITIONED, KEYS_IID, 40, 15, 4, 32, 7, 1500),
    # Tables too wide to batch: one trial per pass.
    "wide": (SCHEME_PARTITIONED, KEYS_IID, 200, 40000, 1, 32, 3, 120),
    "wide-ss": (SCHEME_SS_AVOIDING, KEYS_DISTINCT, 300, 1 << 16, 1, 16, 3, 60),
}

# (failures, size-2 residuals) per seed in SEEDS, recorded from the
# one-trial-at-a-time stack peeler that preceded the batched kernel.
SHAPE_OUTPUTS = {
    "iid-small-b": [(1046, 539), (1056, 552), (1041, 520)],
    "distinct-small-b": [(39, 35), (20, 15), (33, 30)],
    "ss-distinct-small-b": [(147, 0), (167, 0), (157, 0)],
    "overloaded": [(393, 0), (393, 0), (393, 0)],
    "threshold": [(292, 4), (274, 4), (284, 4)],
    "k1": [(1458, 190), (1449, 183), (1445, 172)],
    "k4": [(206, 20), (203, 16), (239, 13)],
    "wide": [(41, 34), (49, 41), (47, 39)],
    "wide-ss": [(0, 0), (0, 0), (0, 0)],
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_kernel_shapes_are_pinned(shape):
    scheme, key_model, n, ell, k, b, lo, hi = SHAPES[shape]
    got = [
        _kernels_py.run_trials(seed, lo, hi, n, ell, k, b, scheme, key_model)
        for seed in SEEDS
    ]
    assert got == SHAPE_OUTPUTS[shape]


@pytest.mark.parametrize("shape", ["iid-small-b", "ss-distinct-small-b", "threshold"])
def test_trial_ranges_add_up(shape):
    scheme, key_model, n, ell, k, b, lo, hi = SHAPES[shape]

    def run(a, z):
        return _kernels_py.run_trials(5, a, z, n, ell, k, b, scheme, key_model)

    whole = run(lo, hi)
    for mid in (lo + 1, lo + 29, (lo + hi) // 2, hi - 1):
        first, second = run(lo, mid), run(mid, hi)
        assert (first[0] + second[0], first[1] + second[1]) == whole
    assert run(lo, lo) == (0, 0)


# (k, ell, n, tables): random tables peeled side by side in one batch.
PEEL_BATCHES = [
    (1, 12, 10, 5),
    (2, 10, 8, 6),
    (3, 8, 12, 6),
    (4, 6, 10, 6),
    # Near the peeling threshold of k = 3 (load 0.818), where rounds grow.
    (3, 100, 245, 4),
    # An empty batch: no tables at all, then tables with no entries.
    (3, 5, 0, 0),
    (2, 5, 0, 3),
]


@pytest.mark.parametrize("k, ell, n, tables", PEEL_BATCHES)
def test_peel_rounds_leaves_the_reference_entries(k, ell, n, tables):
    rng = np.random.default_rng([k, ell, n, tables])
    m = k * ell
    for _ in range(20):
        # placements[t][i][j]: row of entry j of table t in block i.
        placements = rng.integers(0, ell, size=(tables, k, n))
        # Table t owns cells [t*m, (t+1)*m); block i of it starts at i*ell.
        cells = (
            placements
            + np.arange(0, m, ell)[None, :, None]
            + np.arange(0, tables * m, m)[:, None, None]
        )
        cells = cells.transpose(1, 0, 2).reshape(k, tables * n)
        unpeeled = _kernels_py.peel_rounds(cells, tables * m)
        assert unpeeled.dtype.kind == "i"
        expected = [
            t * n + j
            for t in range(tables)
            for j in sorted(peel_cells(ell, placements[t].tolist()))
        ]
        assert unpeeled.tolist() == expected
