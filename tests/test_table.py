import copy
import hashlib
import itertools
import random

import pytest

from ibltlab import (
    ExplicitScheme,
    GetStatus,
    HashKind,
    HashParams,
    Iblt,
    ListingStatus,
    make_partitioned_uniform,
    make_ss_avoiding,
)
from reference import ThreeListTable


def small_scheme(seed=0):
    return make_partitioned_uniform(HashParams(k=3, ell=5, b=16, seed=seed))


def test_insert_touches_exactly_k_cells():
    scheme = small_scheme()
    t = Iblt(scheme)
    t.insert(0x1234, 0x5678)
    touched = [c for c in t.cells() if c.count]
    assert len(touched) == len(set(scheme.indices(0x1234))) == 3
    assert all(c.count == 1 and c.key_sum == 0x1234 and c.value_sum == 0x5678 for c in touched)


def test_double_insert_cancels_sums():
    t = Iblt(small_scheme())
    t.insert(7, 9)
    t.insert(7, 9)
    for c in t.scheme.indices(7):
        cell = t.cell(c)
        assert (cell.count, cell.key_sum, cell.value_sum) == (2, 0, 0)


def test_constructed_collision_in_one_cell():
    scheme = ExplicitScheme(ell=4, k=2, mapping={3: (0, 4), 5: (0, 6)})
    t = Iblt(scheme)
    t.insert(3, 1)
    t.insert(5, 1)
    assert t.cell(0).count == 2
    assert t.cell(0).key_sum == 3 ^ 5


def test_insert_then_delete_restores_empty():
    t = Iblt(small_scheme())
    t.insert(11, 22)
    t.delete(11, 22)
    assert t == Iblt(small_scheme())
    assert t.is_empty()


def test_delete_on_empty_goes_negative():
    t = Iblt(small_scheme())
    t.delete(11, 22)
    for c in t.scheme.indices(11):
        assert t.cell(c).count == -1
        assert t.cell(c).key_sum == 11


def test_update_order_never_matters():
    ops = [("i", 1, 10), ("i", 2, 20), ("d", 1, 10), ("i", 3, 30), ("d", 9, 90)]
    tables = []
    for perm in itertools.permutations(ops):
        t = Iblt(small_scheme())
        for op, x, y in perm:
            (t.insert if op == "i" else t.delete)(x, y)
        tables.append(t)
    assert all(t == tables[0] for t in tables)


def test_get_single_entry():
    t = Iblt(small_scheme())
    t.insert(42, 99)
    assert t.get(42) == (GetStatus.FOUND, 99)


def test_get_on_empty_table_is_absent():
    t = Iblt(small_scheme())
    assert t.get(42).status is GetStatus.ABSENT


def test_get_full_collision_is_inconclusive():
    scheme = ExplicitScheme(ell=4, k=2, mapping={3: (0, 4), 5: (0, 4)})
    t = Iblt(scheme)
    t.insert(3, 1)
    t.insert(5, 2)
    assert t.get(3).status is GetStatus.INCONCLUSIVE
    assert t.get(5).status is GetStatus.INCONCLUSIVE


def test_get_checks_key_before_returning():
    # Both cells reachable from key 2 have count 1 but hold other entries.
    scheme = ExplicitScheme(ell=4, k=2, mapping={1: (0, 6), 3: (1, 7), 2: (0, 7)})
    t = Iblt(scheme)
    t.insert(1, 100)
    t.insert(3, 300)
    assert t.get(2).status is GetStatus.INCONCLUSIVE


def test_listing_single_entry():
    t = Iblt(small_scheme())
    t.insert(6, 60)
    result = t.list_entries()
    assert result.complete
    assert result.entries == {(6, 60)}
    assert result.residual_cells == 0


def test_listing_full_collision_is_partial():
    scheme = ExplicitScheme(ell=4, k=3, mapping={3: (0, 4, 8), 5: (0, 4, 8)})
    t = Iblt(scheme)
    t.insert(3, 1)
    t.insert(5, 2)
    result = t.list_entries()
    assert result.status is ListingStatus.PARTIAL
    assert result.entries == frozenset()
    assert result.residual_cells == 3


# Two entries 1 and 2 and a deleted non-member whose cells overlap theirs
# in one cell, which nets a count of 1 with value sum 0 but is impure.
_IMPURE_CASES = [
    # Cell 0's key sum 1^2^3 = 0 is no key of the scheme.
    ({1: (0, 4), 2: (0, 5), 3: (0, 6)}, 3),
    # Cell 0's key sum 1^2^4 = 7 is a key, but 7 does not hash to cell 0.
    ({1: (0, 4), 2: (0, 5), 4: (0, 6), 7: (1, 7)}, 4),
    # The same two with the impure cell at 7.  Count-1 cells are tried
    # last in, first out, so listing tries cell 7 first, before peeling
    # 1 or 2 takes its count off 1; above, it never tries cell 0.
    ({1: (0, 7), 2: (1, 7), 3: (2, 7)}, 3),
    ({1: (0, 7), 2: (1, 7), 4: (2, 7), 7: (3, 6)}, 4),
]


class _RecordingScheme:
    """Passes ``indices`` through to a scheme and records each key asked."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.k, self.m, self.b = scheme.k, scheme.m, scheme.b
        self.keys = []

    def indices(self, key):
        self.keys.append(key)
        return self.scheme.indices(key)


@pytest.mark.parametrize("mapping, deleted", _IMPURE_CASES)
def test_listing_skips_impure_count_one_cells(mapping, deleted):
    t = Iblt(ExplicitScheme(ell=4, k=2, mapping=mapping))
    t.insert(1, 10)
    t.insert(2, 20)
    t.delete(deleted, 10 ^ 20)  # a non-member: cell 0 nets count 1, value sum 0
    result = t.list_entries()
    assert result.entries == {(1, 10), (2, 20)}
    assert result.status is ListingStatus.PARTIAL
    assert result.residual_cells == 2


@pytest.mark.parametrize(
    "case, tried", zip(_IMPURE_CASES, [[1, 2], [1, 2], [0, 1, 2], [1, 2, 7]])
)
def test_listing_hashes_once_per_peel_attempt(case, tried):
    # One indices call per count-1 cell tried: each entry peeled, and the
    # key sum of each impure cell, which is then skipped.
    mapping, deleted = case
    scheme = _RecordingScheme(ExplicitScheme(ell=4, k=2, mapping=mapping))
    t = Iblt(scheme)
    t.insert(1, 10)
    t.insert(2, 20)
    t.delete(deleted, 10 ^ 20)
    assert scheme.keys == [1, 2, deleted]
    scheme.keys.clear()
    assert t.list_entries().entries == {(1, 10), (2, 20)}
    assert sorted(scheme.keys) == tried


@pytest.mark.parametrize("ell, complete", [(40, True), (12, False)])
def test_one_indices_call_per_operation(ell, complete):
    scheme = _RecordingScheme(make_partitioned_uniform(HashParams(k=3, ell=ell, b=16, seed=3)))
    t = Iblt(scheme)
    keys = list(range(0, 300, 5))
    for x in keys:
        t.insert(x, x + 1)
    for x in range(100):
        t.get(x)
    for x in keys[:10]:
        t.delete(x, x + 1)
    assert scheme.keys == keys + list(range(100)) + keys[:10]
    scheme.keys.clear()
    result = t.list_entries()
    # In a table of inserted pairs every count-1 cell tried is pure, so
    # each try peels one entry.
    assert result.complete is complete and result.entries
    assert sorted(scheme.keys) == sorted(x for x, _ in result.entries)


def test_listing_pairs_never_fail_under_field_split_scheme():
    # Distinct keys cannot share a full index tuple, so any two entries peel.
    scheme = make_ss_avoiding(
        HashParams(k=3, ell=4, b=6, kind=HashKind.SS_AVOIDING)
    )
    for a, b in itertools.combinations(range(64), 2):
        t = Iblt(scheme)
        t.insert(a, a)
        t.insert(b, b)
        result = t.list_entries()
        assert result.complete and result.entries == {(a, a), (b, b)}


def test_listing_complete_recovers_exact_set():
    rng = random.Random(1)
    scheme = make_partitioned_uniform(HashParams(k=3, ell=40, b=24, seed=8))
    for _ in range(50):
        entries = {(rng.randrange(1 << 24), rng.randrange(1 << 24)) for _ in range(15)}
        if len({x for x, _ in entries}) != len(entries):
            continue
        t = Iblt(scheme)
        for x, y in entries:
            t.insert(x, y)
        result = t.list_entries()
        if result.complete:
            assert result.entries == entries


def test_listing_is_nonmutating_by_default():
    t = Iblt(small_scheme())
    t.insert(6, 60)
    before = t.cells()
    t.list_entries()
    assert t.cells() == before


def test_listing_inplace_consumes_table():
    t = Iblt(small_scheme())
    t.insert(6, 60)
    result = t.list_entries_inplace()
    assert result.complete
    assert t.is_empty()


def test_tables_combine_cellwise():
    scheme = small_scheme(seed=12)
    a, b, both = Iblt(scheme), Iblt(scheme), Iblt(scheme)
    for x in (1, 2, 3):
        a.insert(x, x * 10)
        both.insert(x, x * 10)
    for x in (3, 9):
        b.insert(x, x * 10)
        both.insert(x, x * 10)
    for i in range(scheme.m):
        ca, cb, cab = a.cell(i), b.cell(i), both.cell(i)
        assert cab.count == ca.count + cb.count
        assert cab.key_sum == ca.key_sum ^ cb.key_sum
        assert cab.value_sum == ca.value_sum ^ cb.value_sum


def _assert_same_table(t, ref, keys):
    assert t.cells() == ref.cells()
    assert t.nonzero_cells() == ref.nonzero_cells()
    assert t.is_empty() == (ref.nonzero_cells() == 0)
    for x in keys:
        assert t.get(x) == ref.get(x)


@pytest.mark.parametrize("b", [1, 7, 32, 64])
@pytest.mark.parametrize("k", [1, 3, 4])
def test_packed_cells_match_the_three_list_layout(k, b):
    # Random streams of inserts, member deletes and non-member deletes; at
    # b = 64 each packed key/value word is 128 bits.
    rng = random.Random(f"{k} {b}")
    scheme = make_partitioned_uniform(HashParams(k=k, ell=7, b=b, seed=b))
    t, ref = Iblt(scheme), ThreeListTable(scheme)
    stored, keys = [], set()
    snapshot, ref_snapshot = t.copy(), ref.cells()
    for step in range(400):
        roll = rng.random()
        if roll < 0.3 and stored:
            x, y = stored.pop(rng.randrange(len(stored)))
            sign = -1
        else:
            x, y = rng.getrandbits(b), rng.getrandbits(b)
            sign = -1 if roll < 0.4 else 1  # a non-member delete, or an insert
            if sign == 1:
                stored.append((x, y))
        (t.insert if sign == 1 else t.delete)(x, y)
        ref.update(x, y, sign)
        keys.add(x)
        if step % 20 == 19:
            _assert_same_table(t, ref, keys)
            assert (t == snapshot) == (ref.cells() == ref_snapshot)
            assert t == t.copy()
            snapshot, ref_snapshot = t.copy(), ref.cells()
            assert t.list_entries() == copy.deepcopy(ref).list_entries_inplace()
    assert t.list_entries_inplace() == ref.list_entries_inplace()
    _assert_same_table(t, ref, keys)


@pytest.mark.parametrize("scheme", [
    *(make_partitioned_uniform(HashParams(k=3, ell=4, b=b, seed=2)) for b in (7, 64)),
    make_ss_avoiding(HashParams(k=3, ell=4, b=6, kind=HashKind.SS_AVOIDING)),
], ids=["partitioned-7", "partitioned-64", "ss-avoiding-6"])
def test_get_never_finds_a_key_outside_the_width(scheme):
    # A negative key or one of b + 1 bits is never stored, so get must not
    # return FOUND for it, even where it hashes to the cells of a stored key
    # (x - 2**64 under the partitioned scheme, x | 2**b at b = 64 and under
    # the field-split scheme).
    b = scheme.b
    t, ref = Iblt(scheme), ThreeListTable(scheme)
    rng = random.Random(b)
    stored = sorted({rng.getrandbits(b) for _ in range(3)})
    for x in stored:
        t.insert(x, x ^ 1)
        ref.update(x, x ^ 1, 1)
    aliased = 0
    for x in stored:
        for alias in (x | 1 << b, x - (1 << b), x - (1 << 64), -1, ~x):
            got = t.get(alias)
            assert got.status is not GetStatus.FOUND
            assert got == ref.get(alias)
            if t.get(x).status is GetStatus.FOUND and scheme.indices(alias) == scheme.indices(x):
                aliased += got.status is GetStatus.INCONCLUSIVE
    assert aliased


def test_width_validation():
    # A negative or (b + 1)-bit key or value is refused before any cell
    # changes, with the reference's message.
    for b in (1, 7, 32, 64):
        scheme = make_partitioned_uniform(HashParams(k=3, ell=5, b=b, seed=1))
        t, ref = Iblt(scheme), ThreeListTable(scheme)
        t.insert(1, 1)
        before = t.copy()
        for x, y in ((1 << b, 0), (0, 1 << b), (-1, 0), (0, -1), (-1, 1 << b)):
            for op, sign in ((t.insert, 1), (t.delete, -1)):
                with pytest.raises(ValueError) as got:
                    op(x, y)
                with pytest.raises(ValueError) as expected:
                    ref.update(x, y, sign)
                assert str(got.value) == str(expected.value) == f"key/value must be {b}-bit values"
                assert t == before


def _churn_digest(scheme, n, seed):
    """sha256 of one seeded churn on ``scheme``: n inserts, a get of every
    present key and of n absent keys, a listing, n/2 deletes and one of a
    non-member, and a listing in place."""
    rng = random.Random(seed)
    keys = rng.sample(range(1 << scheme.b), 2 * n + 1)
    present, absent, stranger = keys[:n], keys[n : 2 * n], keys[-1]
    pairs = [(x, rng.getrandbits(scheme.b)) for x in present]
    t = Iblt(scheme)
    for x, y in pairs:
        t.insert(x, y)
    gets = [t.get(x) for x in present + absent]
    listed = t.list_entries()
    for x, y in pairs[: n // 2]:
        t.delete(x, y)
    t.delete(stranger, 0)
    remaining = t.list_entries_inplace()
    # Every get status occurs, so each branch of get is pinned.
    assert {got.status for got in gets} == set(GetStatus)
    digest = hashlib.sha256()
    for got in gets:
        digest.update(f"{got.status.value}:{got.value};".encode())
    for result in (listed, remaining):
        digest.update(f"{result.status.value}:{result.residual_cells}:".encode())
        digest.update(repr(sorted(result.entries)).encode())
    return digest.hexdigest(), listed.status, remaining.status


@pytest.mark.parametrize(
    "params, n, listed_status, digest",
    [
        # m = 1.5n: both listings peel every stored pair; the deleted
        # non-member is left in the residual.
        (
            HashParams(k=3, ell=1000, b=32, seed=5),
            2000,
            ListingStatus.COMPLETE,
            "a91d36da650063d5573d47dd65cc0d087f25d88095672fef8317a3c9b61cbdf3",
        ),
        # m = 1.1n, below the k = 3 peeling threshold: the first listing stops.
        (
            HashParams(k=3, ell=734, b=32, seed=6),
            2000,
            ListingStatus.PARTIAL,
            "bced4d37154b92d9dd001b29e90ae9a6817b2adf77cce423686d5ffc8ecf2738",
        ),
        # ell = 256 holds 768 cells: 500 pairs keep the load at m = 1.5n.
        (
            HashParams(k=3, ell=256, b=24, kind=HashKind.SS_AVOIDING),
            500,
            ListingStatus.COMPLETE,
            "a60c504fc2101ead349e1a6211f3d9e266b0f998435e4dad7db3de88a2efe4ff",
        ),
    ],
    ids=["complete", "partial", "ss-avoiding"],
)
def test_table_outcomes_are_pinned(params, n, listed_status, digest):
    # Recorded before the per-key paths of hashing and table were last
    # rewritten: a rewrite may make them faster, never change a result.
    if params.kind is HashKind.SS_AVOIDING:
        scheme = make_ss_avoiding(params)
    else:
        scheme = make_partitioned_uniform(params)
    assert _churn_digest(scheme, n, seed=11) == (
        digest,
        listed_status,
        ListingStatus.PARTIAL,
    )
