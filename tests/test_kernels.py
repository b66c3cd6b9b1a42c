"""The trial kernel's outputs are pinned: key streams, both hash schemes and
the distinct-key replay must keep producing these exact counts, and the
meter the same work."""

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from reference import batch_work, peel_cells, residual_size_law, stream_pairs, trial_state

from ibltlab import _kernels_py
from ibltlab._bits import (
    BATCH_CELLS,
    KEYS_DISTINCT,
    KEYS_IID,
    SCHEME_PARTITIONED,
    SCHEME_SS_AVOIDING,
    batch_trials,
)
from ibltlab.hashing import (
    HashKind,
    HashParams,
    PartitionedUniformScheme,
    SsAvoidingScheme,
    make_partitioned_uniform,
    make_ss_avoiding,
)

SEEDS = (0, 1, 98765)


@pytest.mark.parametrize(
    "scheme, key_model, n, ell, k, b, expected",
    [
        # (failures, size-2 residuals, work) of trials 0..1499, one per seed.
        (
            SCHEME_PARTITIONED, KEYS_IID, 8, 6, 3, 16,
            [(237, 186, 286470), (243, 190, 286983), (213, 160, 285786)],
        ),
        (
            SCHEME_PARTITIONED, KEYS_IID, 2, 2, 2, 32,
            [(372, 372, 25488), (383, 383, 25532), (353, 353, 25412)],
        ),
        (
            SCHEME_PARTITIONED, KEYS_DISTINCT, 8, 6, 3, 8,
            [(235, 185, 416258), (243, 194, 410191), (222, 180, 404603)],
        ),
        (
            SCHEME_SS_AVOIDING, KEYS_DISTINCT, 8, 8, 2, 6,
            [(124, 0, 648948), (136, 0, 697780), (141, 0, 679546)],
        ),
        (
            SCHEME_SS_AVOIDING, KEYS_DISTINCT, 30, 16, 3, 12,
            [(167, 0, 2024975), (141, 0, 1963523), (159, 0, 2097173)],
        ),
    ],
    # The ids spell the scheme and key model as the integer codes the kernel
    # once took (0 partitioned or iid, 1 ss-avoiding or distinct), so each
    # pinned case keeps the name it was recorded under.
    ids=[
        "0-0-8-6-3-16-expected0",
        "0-0-2-2-2-32-expected1",
        "0-1-8-6-3-8-expected2",
        "1-1-8-8-2-6-expected3",
        "1-1-30-16-3-12-expected4",
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
    # m + n*k = 22,000 cells and entry cells: two trials a batch, where a
    # batch of half the cells peeled one.  At k = 2 a few trials fail, with
    # residuals of two entries and more.
    "batch-pair": (SCHEME_PARTITIONED, KEYS_IID, 2000, 9000, 2, 32, 3, 403),
}

# (failures, size-2 residuals, work) per seed in SEEDS.  The counts were
# recorded from the one-trial-at-a-time stack peeler that preceded the
# batched kernel (batch-pair's from the kernel that peeled it one trial a
# batch), the work from the kernel's meter.
SHAPE_OUTPUTS = {
    "iid-small-b": [(1046, 539, 2074242), (1056, 552, 1989912), (1041, 520, 2106069)],
    "distinct-small-b": [(39, 35, 7198313), (20, 15, 7314880), (33, 30, 7165420)],
    "ss-distinct-small-b": [(147, 0, 4201418), (167, 0, 4451526), (157, 0, 4271872)],
    "overloaded": [(393, 0, 2430981), (393, 0, 2145066), (393, 0, 2323263)],
    "threshold": [(292, 4, 7985460), (274, 4, 8920506), (284, 4, 8282727)],
    "k1": [(1458, 190, 247078), (1449, 183, 247064), (1445, 172, 247115)],
    "k4": [(206, 20, 3069336), (203, 16, 2984372), (239, 13, 3066944)],
    "wide": [(41, 34, 6366898), (49, 41, 6686914), (47, 39, 6606910)],
    "wide-ss": [(0, 0, 4673552), (0, 0, 4944952), (0, 0, 4734052)],
    "batch-pair": [(6, 4, 27027140), (10, 10, 27242930), (13, 13, 27134118)],
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

    batch = batch_trials(n, ell * k, k)
    whole = run(lo, hi)
    # Cuts beside a batch's end start the second range's batches off the
    # first range's.
    for mid in (lo + 1, lo + 29, lo + batch - 1, lo + batch + 1, (lo + hi) // 2, hi - 1):
        first, second = run(lo, mid), run(mid, hi)
        assert (first[0] + second[0], first[1] + second[1]) == whole[:2]
    assert run(lo, lo) == (0, 0, 0)
    # The work depends on how trials share batches, so ranges cut where
    # the batches of a range from 0 end meter the same work as one range.
    whole = run(0, hi)
    for mid in (batch, 2 * batch, batch * (hi // batch)):
        first, second = run(0, mid), run(mid, hi)
        assert tuple(map(sum, zip(first, second))) == whole


@pytest.mark.parametrize("shape", ["threshold", "distinct-small-b", "ss-distinct-small-b"])
def test_kernel_work_follows_the_meter_definition(shape):
    # W recomputed from the documented key stream: batch_work over each
    # batch of batch_trials trials from the range's first, plus
    # REPLAY_UNITS per key candidate of each trial whose distinct-key draw
    # rejects a repeated key.  The range ends inside its second batch.
    scheme_code, key_code, n, ell, k, b, lo, _ = SHAPES[shape]
    seed = 4
    params = HashParams(k=k, ell=ell, b=b, seed=seed, kind=HashKind(scheme_code))
    if params.kind is HashKind.SS_AVOIDING:
        scheme = make_ss_avoiding(params)
    else:
        scheme = make_partitioned_uniform(params)
    batch = batch_trials(n, ell * k, k)
    hi = lo + batch + 7
    work = replays = 0
    for first in range(lo, hi, batch):
        tables = []
        for t in range(first, min(first + batch, hi)):
            pairs, rejected = stream_pairs(
                trial_state(seed, t), n, (1 << b) - 1, key_code == KEYS_DISTINCT
            )
            if rejected:
                replays += 1
                work += _kernels_py.REPLAY_UNITS * (n + rejected)
            tables.append([scheme.indices(x) for x, _ in pairs])
        work += batch_work(ell * k, tables)
    assert (replays > 0) == (key_code == KEYS_DISTINCT)
    assert _kernels_py.run_trials(seed, lo, hi, n, ell, k, b, scheme_code, key_code)[2] == work


@pytest.mark.parametrize("shape", ["distinct-small-b", "threshold", "wide"])
def test_kernel_stops_once_work_passes_the_budget(shape):
    scheme, key_model, n, ell, k, b, lo, hi = SHAPES[shape]

    def run(budget):
        return _kernels_py.run_trials(
            3, lo, min(hi, lo + 300), n, ell, k, b, scheme, key_model, budget=budget
        )

    whole = run(math.inf)
    assert run(whole[2]) == whole
    for budget in (0, whole[2] // 3, whole[2] - 1):
        failures, two_left, work = run(budget)
        assert budget < work <= whole[2]
        assert failures <= whole[0] and two_left <= whole[1]
    # Budgets that end or just miss the j-th batch: the call returns the
    # counts of exactly the batches it finished.
    batch = batch_trials(n, ell * k, k)
    for j in (1, 2, 3):
        if lo + j * batch >= min(hi, lo + 300):
            continue
        done = _kernels_py.run_trials(3, lo, lo + j * batch, n, ell, k, b, scheme, key_model)
        before = _kernels_py.run_trials(3, lo, lo + (j - 1) * batch, n, ell, k, b, scheme, key_model)
        failures, two_left, work = run(done[2])
        assert (failures, two_left) == done[:2] and work > done[2]
        # The meter passes done[2] - 1 first where batch j's work ends.
        assert run(done[2] - 1) == (*before[:2], done[2])


def test_each_batch_hashes_its_keys_at_once(monkeypatch):
    # Each indices_array call of the kernel hashes one batch, or one
    # replayed trial: one trial at a time on the tables wider than
    # BATCH_CELLS, and on narrower ones a whole batch of at most
    # BATCH_CELLS cells and entry cells.
    sizes = []
    for scheme in (PartitionedUniformScheme, SsAvoidingScheme):
        hash_keys = scheme.indices_array
        monkeypatch.setattr(
            scheme,
            "indices_array",
            lambda self, keys, hash_keys=hash_keys: sizes.append(keys.size) or hash_keys(self, keys),
        )
    for shape in ("wide", "wide-ss"):
        scheme, key_model, n, ell, k, b, lo, hi = SHAPES[shape]
        sizes.clear()
        _kernels_py.run_trials(0, lo, hi, n, ell, k, b, scheme, key_model)
        assert set(sizes) == {n} and len(sizes) >= hi - lo
    for shape in ("distinct-small-b", "threshold", "k1", "batch-pair"):
        scheme, key_model, n, ell, k, b, lo, hi = SHAPES[shape]
        sizes.clear()
        _kernels_py.run_trials(0, lo, hi, n, ell, k, b, scheme, key_model)
        batch = max(sizes) // n
        assert 1 < batch == batch_trials(n, ell * k, k)
        assert batch * (n * k + ell * k) <= BATCH_CELLS
        assert sizes.count(batch * n) == (hi - lo) // batch


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
        unpeeled, work = _kernels_py.peel_rounds(cells, tables * m)
        assert unpeeled.shape[0] == k
        # At least one round over every cell and entry cell when any
        # entry is live.
        assert work >= (tables * m + cells.size if cells.size else 0)
        expected = [
            t * n + j
            for t in range(tables)
            for j in sorted(peel_cells(ell, placements[t].tolist()))
        ]
        # The cells of the entries left, in their input order.
        assert np.array_equal(unpeeled, cells[:, expected])


# Exact listing failure probabilities P_u under iid uniform index tuples,
# the sum over sizes from 1 of tests/reference.py::residual_size_law(ell,
# n, k); the first six pins are checked there too, each in under 0.1 s.
_EXACT = {
    (32, 6, 2): Fraction(257681794621, 17592186044416),
    (8, 4, 4): Fraction(12605027, 8589934592),
    (6, 6, 2): Fraction(41261, 104976),
    (16, 6, 2): Fraction(1004664229, 17179869184),
    (4, 5, 2): Fraction(2251, 4096),
    (5, 6, 2): Fraction(1055141, 1953125),
    (8, 5, 3): Fraction(42380543, 2147483648),
    (4, 4, 5): Fraction(797141, 134217728),
    (12, 5, 3): Fraction(539453251, 92876046336),
    (5, 5, 4): Fraction(2511399841, 152587890625),
    (6, 4, 5): Fraction(15155699, 19591041024),
    (8, 6, 3): Fraction(515140999, 17179869184),
    (4, 5, 4): Fraction(22171127, 536870912),
}

# Exact P_2, the chance that peeling leaves exactly two entries, under iid
# uniform index tuples: residual_size_law(ell, n, k)[2], for each
# partitioned-uniform grid shape.
_EXACT_TWO_LEFT = {
    (32, 6, 2): Fraction(1020732611175, 70368744177664),
    (8, 4, 4): Fraction(25147395, 17179869184),
    (6, 6, 2): Fraction(2675, 8748),
    (4, 5, 2): Fraction(3345, 8192),
    (5, 6, 2): Fraction(734832, 1953125),
    (8, 5, 3): Fraction(331588005, 17179869184),
    (4, 4, 5): Fraction(1568259, 268435456),
    (12, 5, 3): Fraction(1428284825, 247669456896),
    (5, 5, 4): Fraction(483477312, 30517578125),
    (6, 4, 5): Fraction(30221425, 39182082048),
}

# (scheme, ell, n, k): ell a power of two takes the mask reduction and any
# other ell the division, at k = 2..5 each, with p up to about 0.55;
# ss-avoiding draws distinct keys.
_GRID = [
    (SCHEME_PARTITIONED, 32, 6, 2),
    (SCHEME_PARTITIONED, 8, 5, 3),
    (SCHEME_PARTITIONED, 8, 4, 4),
    (SCHEME_PARTITIONED, 4, 4, 5),
    (SCHEME_PARTITIONED, 4, 5, 2),
    (SCHEME_PARTITIONED, 6, 6, 2),
    (SCHEME_PARTITIONED, 12, 5, 3),
    (SCHEME_PARTITIONED, 5, 5, 4),
    (SCHEME_PARTITIONED, 6, 4, 5),
    (SCHEME_PARTITIONED, 5, 6, 2),
    (SCHEME_SS_AVOIDING, 16, 6, 2),
    (SCHEME_SS_AVOIDING, 8, 5, 3),
    (SCHEME_SS_AVOIDING, 8, 6, 3),
    (SCHEME_SS_AVOIDING, 4, 5, 4),
]
_GRID_TRIALS = 200_000
_GRID_SEED = 5
# Two-sided Bonferroni bound on |z| for a family-wise error of 1e-3 over
# the grid's z-tests: one of the failures per shape, and one of the size-2
# residuals per partitioned shape.
_GRID_Z = NormalDist().inv_cdf(1 - 1e-3 / (2 * (len(_GRID) + len(_EXACT_TWO_LEFT))))


def _exact_failure(scheme, ell, n, k):
    """P_u for partitioned-uniform.  ss-avoiding with distinct keys gives n
    distinct tuples, uniform among them: P_u conditioned on the event A
    that two tuples coincide not happening, where A always fails (a
    coinciding pair is a stopping set), so P_ss = (P_u - P(A)) / (1 - P(A))."""
    p_u = _EXACT[ell, n, k]
    if scheme == SCHEME_PARTITIONED:
        return p_u
    tuples = ell**k
    p_a = 1 - math.prod(Fraction(tuples - j, tuples) for j in range(n))
    return (p_u - p_a) / (1 - p_a)


def _assert_binomial_count(count, p):
    """``count`` of _GRID_TRIALS trials within _GRID_Z of its mean at
    success probability p."""
    p = float(p)
    z = (count - _GRID_TRIALS * p) / math.sqrt(_GRID_TRIALS * p * (1 - p))
    assert abs(z) <= _GRID_Z, (count, _GRID_TRIALS * p, z)


@pytest.mark.parametrize("shape", list(_EXACT)[:6], ids=str)
def test_exact_grid_values_match_the_reference(shape):
    law = residual_size_law(*shape)
    assert sum(law[1:]) == _EXACT[shape]
    if shape in _EXACT_TWO_LEFT:
        assert law[2] == _EXACT_TWO_LEFT[shape]


@pytest.mark.parametrize("scheme, ell, n, k", _GRID, ids=str)
def test_kernel_estimate_matches_the_exact_value(scheme, ell, n, k):
    # One fixed seed, so the outcome is deterministic; a biased index
    # reduction fails it.
    b = (ell.bit_length() - 1) * k if scheme == SCHEME_SS_AVOIDING else 32
    key_model = KEYS_DISTINCT if scheme == SCHEME_SS_AVOIDING else KEYS_IID
    failures, two_left, _ = _kernels_py.run_trials(
        _GRID_SEED, 0, _GRID_TRIALS, n, ell, k, b, scheme, key_model
    )
    _assert_binomial_count(failures, _exact_failure(scheme, ell, n, k))
    if scheme == SCHEME_SS_AVOIDING:
        # Two entries are left only when their index tuples coincide, and
        # distinct keys under ss-avoiding have distinct tuples.
        assert two_left == 0
    else:
        _assert_binomial_count(two_left, _EXACT_TWO_LEFT[ell, n, k])
