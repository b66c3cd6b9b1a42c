import random
import time

import numpy as np
import pytest

from reference import partitioned_indices

from ibltlab import (
    ExplicitScheme,
    HashKind,
    HashParams,
    PartitionedUniformScheme,
    SsAvoidingScheme,
    make_partitioned_uniform,
    make_ss_avoiding,
)

# chi-square quantiles for 255 degrees of freedom at 0.0005 / 0.9995
CHI2_255_LOW = 187.17080706331643
CHI2_255_HIGH = 335.91665041569155


def uniform_params(k=3, ell=16, b=32, seed=0):
    return HashParams(k=k, ell=ell, b=b, seed=seed)


def ss_params(k, s, seed=0):
    return HashParams(k=k, ell=1 << s, b=s * k, seed=seed, kind=HashKind.SS_AVOIDING)


def test_same_seed_and_key_is_deterministic():
    a = make_partitioned_uniform(uniform_params(seed=42))
    b = make_partitioned_uniform(uniform_params(seed=42))
    for key in (0, 1, 0xDEADBEEF, (1 << 32) - 1):
        assert a.indices(key) == a.indices(key)
        assert a.indices(key) == b.indices(key)


def test_different_seeds_differ_somewhere():
    a = make_partitioned_uniform(uniform_params(seed=1))
    b = make_partitioned_uniform(uniform_params(seed=2))
    assert any(a.indices(key) != b.indices(key) for key in range(64))


def test_single_cell_subtables_are_forced():
    scheme = make_partitioned_uniform(uniform_params(k=3, ell=1))
    for key in (0, 7, 123456):
        assert scheme.indices(key) == (0, 1, 2)


def test_indices_stay_inside_their_subtable():
    for scheme in (
        make_partitioned_uniform(uniform_params(k=4, ell=10, seed=9)),
        make_ss_avoiding(ss_params(k=3, s=3)),
    ):
        for key in range(200):
            for i, idx in enumerate(scheme.indices(key)):
                assert i * scheme.ell <= idx < (i + 1) * scheme.ell


def _constructions(params, changes):
    """Every way to build ``params`` with ``changes`` applied: by keyword,
    by position, by ``_make`` and by ``_replace``."""
    fields = {**params._asdict(), **changes}
    return (
        lambda: HashParams(**fields),
        lambda: HashParams(*fields.values()),
        lambda: HashParams._make(fields.values()),
        lambda: params._replace(**changes),
    )


def test_invalid_params_rejected():
    for changes, message in (
        (dict(k=0), "must be positive"),
        (dict(ell=0), "must be positive"),
        (dict(b=0), "must be positive"),
        (dict(b=65), "wider than 64 bits"),
    ):
        for build in _constructions(uniform_params(k=2, ell=4, b=8), changes):
            with pytest.raises(ValueError, match=message):
                build()


def test_seed_outside_64_bits_is_rejected():
    # Lanes mix only a seed's low 64 bits: -1 would hash like 2**64 - 1.
    for seed in (-1, 1 << 64, 5 * 2**64 + 7):
        for build in _constructions(uniform_params(), dict(seed=seed)):
            with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
                build()
    for seed in (0, 2**64 - 1):
        for build in _constructions(uniform_params(), dict(seed=seed)):
            assert build().seed == seed


def test_kind_mismatch_rejected():
    for build in (
        lambda: make_ss_avoiding(uniform_params()),
        lambda: make_partitioned_uniform(ss_params(k=2, s=3)),
        lambda: SsAvoidingScheme(uniform_params()),
        lambda: PartitionedUniformScheme(ss_params(k=2, s=3)),
    ):
        with pytest.raises(ValueError, match="params.kind"):
            build()


def test_factories_are_the_scheme_classes():
    # One home for the checks: the factories are the classes, not wrappers.
    assert make_partitioned_uniform is PartitionedUniformScheme
    assert make_ss_avoiding is SsAvoidingScheme


def test_ss_shape_constraints():
    for params, changes, message in (
        (ss_params(k=3, s=3), dict(b=8), r"b = s\*k"),  # b not s*k
        (ss_params(k=3, s=3), dict(ell=7), r"ell = 2\*\*\(b/k\) = 8"),  # ell not 2**s
        (uniform_params(k=3, ell=16, b=9), dict(kind=HashKind.SS_AVOIDING), "got 16"),
    ):
        for build in _constructions(params, changes):
            with pytest.raises(ValueError, match=message):
                build()


def test_hash_params_is_an_immutable_value_record():
    positional = HashParams(3, 16, 32, 7, HashKind.PARTITIONED_UNIFORM)
    keyword = HashParams(k=3, ell=16, b=32, seed=7)
    assert (keyword.k, keyword.ell, keyword.b, keyword.seed, keyword.kind) == (
        3, 16, 32, 7, HashKind.PARTITIONED_UNIFORM,
    )
    assert positional == keyword and hash(positional) == hash(keyword)
    defaults = HashParams(3, 16, 32)
    assert (defaults.seed, defaults.kind, defaults.m) == (0, HashKind.PARTITIONED_UNIFORM, 48)
    assert defaults != keyword
    assert len({positional, keyword, defaults}) == 2
    assert keyword._replace(seed=0) == defaults
    assert type(keyword._replace(seed=0)) is HashParams
    for name in ("k", "seed", "kind", "m", "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(keyword, name, 1)
    assert keyword == positional


def test_per_subtable_uniformity_chi_square():
    scheme = make_partitioned_uniform(uniform_params(k=3, ell=256, b=32, seed=2024))
    rng = np.random.Generator(np.random.PCG64(1))
    keys = rng.integers(0, 1 << 32, size=1_000_000, dtype=np.uint64)
    idx = scheme.indices_array(keys)
    expected = len(keys) / 256
    for i in range(3):
        counts = np.bincount(idx[i] - i * 256, minlength=256)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert CHI2_255_LOW < chi2 < CHI2_255_HIGH, f"subtable {i}: chi2={chi2}"


def test_cross_subtable_pairs_look_independent():
    # Under uniformity + independence the joint (idx0, idx1) is uniform on
    # 16x16 cells; same chi-square band, df = 255.
    scheme = make_partitioned_uniform(uniform_params(k=2, ell=16, b=32, seed=77))
    rng = np.random.Generator(np.random.PCG64(3))
    keys = rng.integers(0, 1 << 32, size=256_000, dtype=np.uint64)
    idx = scheme.indices_array(keys)
    joint = idx[0] * 16 + (idx[1] - 16)
    counts = np.bincount(joint, minlength=256)
    expected = len(keys) / 256
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert CHI2_255_LOW < chi2 < CHI2_255_HIGH, f"joint chi2={chi2}"


def test_ss_field_split_by_hand():
    # x = 0b101101 splits MSB-first into 2-bit fields (2, 3, 1); with
    # subtable offsets 0, 4, 8 that lands on global cells (2, 7, 9).
    scheme = make_ss_avoiding(ss_params(k=3, s=2))
    assert scheme.indices(0b101101) == (2, 7, 9)


def test_ss_tuples_injective_exhaustively():
    for k, s in ((2, 4), (3, 4)):
        scheme = make_ss_avoiding(ss_params(k=k, s=s))
        tuples = {scheme.indices(x) for x in range(1 << (s * k))}
        assert len(tuples) == 1 << (s * k)


def test_ss_single_table_is_identity():
    scheme = make_ss_avoiding(ss_params(k=1, s=6))
    for key in range(64):
        assert scheme.indices(key) == (key,)


def test_indices_array_matches_scalar_path():
    keys = np.arange(100, dtype=np.uint64)
    # 64-bit keys, the top bit set in the last ones.
    wide_keys = np.array(
        [*range(40), 2**32 - 1, 2**62 + 7, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1],
        dtype=np.uint64,
    )
    for scheme, scheme_keys in (
        (make_partitioned_uniform(uniform_params(k=3, ell=13, seed=5)), keys),
        # The array path reduces by h - h // ell * ell: moduli from 1 up to
        # just under 2**32, on keys of all 64 bits.
        *(
            (make_partitioned_uniform(uniform_params(k=3, ell=ell, b=64, seed=5)), wide_keys)
            for ell in (1, 2**16, 2**31 + 11, 2**32 - 5)
        ),
        (make_ss_avoiding(ss_params(k=3, s=3, seed=5)), keys),
        (make_ss_avoiding(ss_params(k=2, s=32, seed=5)), wide_keys),
    ):
        arr = scheme.indices_array(scheme_keys)
        assert arr.shape == (scheme.k, len(scheme_keys))
        for j, key in enumerate(scheme_keys):
            assert tuple(arr[:, j]) == scheme.indices(int(key))


@pytest.mark.parametrize("b", [8, 32, 64])
@pytest.mark.parametrize("ell", [1, 2, 256, 280, 2**20 + 1])
def test_indices_array_matches_the_per_lane_formula(ell, b):
    # The array path masks with ell - 1 when ell is a power of two (1, 2
    # and 256) and divides otherwise; both must give the contract's
    # mix64(key ^ lane) % ell at the extreme keys, whatever integer dtype
    # holds them.
    params = HashParams(k=3, ell=ell, b=b, seed=ell * b)
    scheme = make_partitioned_uniform(params)
    keys = [0, 1, 2**b - 1]
    expected = [partitioned_indices(params, key) for key in keys]
    dtypes = [np.uint64] if b == 64 else [np.uint64, np.int64]
    for dtype in dtypes:
        arr = scheme.indices_array(np.array(keys, dtype=dtype))
        assert arr.dtype == np.int64
        assert [tuple(column) for column in arr.T.tolist()] == expected


def test_explicit_scheme_mapping():
    scheme = ExplicitScheme(ell=4, k=2, mapping={1: (0, 5), 2: (0, 5)})
    assert scheme.indices(1) == scheme.indices(2) == (0, 5)
    assert scheme.m == 8
    with pytest.raises(ValueError):
        ExplicitScheme(ell=4, k=2, mapping={1: (0,)})


@pytest.mark.parametrize("b", [32, 64])
def test_packed_indices_match_the_per_lane_formula(b):
    # Every lane is mixed in its own 128-bit slot of one int; each must
    # equal the lane hashed alone.  Keys past b bits, past 64 bits and
    # negative pin how the key is masked to 64 bits first.
    rng = random.Random(f"packed lanes {b}")
    keys = [0, 1, 2**b - 1, 2**64 - 1, -1, 2**64 + 5]
    keys += [rng.getrandbits(b) for _ in range(200)]
    for k in range(1, 9):
        for ell in (1, 2, 3, 1000, 2**31 + 11):
            params = HashParams(k=k, ell=ell, b=b, seed=k * ell)
            scheme = make_partitioned_uniform(params)
            for key in keys:
                assert scheme.indices(key) == partitioned_indices(params, key), (k, ell, key)


def test_wide_partitioned_scheme_builds_in_linear_time():
    # The packed constants are built in one pass over the slots, by the
    # first `indices` call; summing shifted lanes into a growing int took
    # 16 s at this k (2-core x86 VM).  The build is timed alone: one
    # `indices` call here, whose slot loop is O(k**2), would dwarf it.
    params = HashParams(k=50_000, ell=2, b=32, seed=9)
    start = time.perf_counter()
    scheme = make_partitioned_uniform(params)
    scheme._pack_lanes()
    assert time.perf_counter() - start < 2
    ones, packed_lanes, m64 = scheme._packed
    for i in (0, 1, params.k - 1):
        assert ones >> 128 * i & (1 << 128) - 1 == 1
        assert packed_lanes >> 128 * i & (1 << 128) - 1 == scheme._lanes[i]
        assert m64 >> 128 * i & (1 << 128) - 1 == 2**64 - 1
    assert packed_lanes.bit_length() <= 128 * params.k


def test_wide_partitioned_scheme_packs_nothing_for_the_array_path():
    # The trial kernel hashes through `indices_array` alone; the packed
    # ints and slots of the scalar `indices` took about 180 MiB at
    # k = 10**6, so a scheme builds them only when `indices` is called.
    params = HashParams(k=2_000, ell=3, b=32, seed=4)
    scheme = make_partitioned_uniform(params)
    assert scheme._packed is None
    keys = [0, 1, 2**32 - 1, 12345]
    arr = scheme.indices_array(np.array(keys, dtype=np.uint64))
    assert scheme._packed is None
    assert [tuple(column) for column in arr.T.tolist()] == [scheme.indices(x) for x in keys]
    assert scheme._packed is not None


def test_indices_are_pinned():
    uniform = make_partitioned_uniform(HashParams(k=3, ell=1000, b=32, seed=5))
    assert uniform.indices(0) == (198, 1586, 2449)
    assert uniform.indices(1) == (303, 1797, 2561)
    assert uniform.indices(0xDEADBEEF) == (740, 1603, 2962)
    for k, pinned in (
        (1, [(470,), (13,), (653,)]),
        (2, [(470, 1337), (13, 1679), (653, 1332)]),
        (
            5,
            [
                (470, 1337, 2523, 3182, 4818),
                (13, 1679, 2853, 3303, 4344),
                (653, 1332, 2422, 3664, 4781),
            ],
        ),
    ):
        wide = make_partitioned_uniform(HashParams(k=k, ell=1000, b=64, seed=9))
        assert [wide.indices(key) for key in (0, 0xDEADBEEF, 2**64 - 1)] == pinned
    fields = make_ss_avoiding(HashParams(k=3, ell=256, b=24, kind=HashKind.SS_AVOIDING))
    assert fields.indices(0) == (0, 256, 512)
    assert fields.indices(1) == (0, 256, 513)
    assert fields.indices(0xABCDEF) == (0xAB, 256 + 0xCD, 512 + 0xEF)
