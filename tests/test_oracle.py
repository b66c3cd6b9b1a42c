import itertools
import random
from fractions import Fraction

import pytest

import ibltlab.oracle
from ibltlab import (
    ExplicitScheme,
    Iblt,
    ResourceGuardError,
    StateMatrix,
    contains_stopping_submatrix,
    exact_failure_probability,
    iter_state_matrices,
    peel_fixpoint,
)
from ibltlab.oracle import ORACLE_GUARD
from reference import Unpowered, peel_cells, weighted_failure_probability

ORDER_SHAPES = [(1, 3, 2), (3, 1, 2), (3, 2, 1), (2, 3, 2), (3, 2, 3), (2, 1, 4)]


def test_single_column_always_peels():
    for ell, k in ((1, 1), (3, 2), (4, 3)):
        for rows in itertools.product(range(ell), repeat=k):
            sm = StateMatrix(ell, tuple((r,) for r in rows))
            assert peel_fixpoint(sm) == set()


def test_two_columns_sharing_a_row_survive():
    sm = StateMatrix(3, ((1, 1),))
    assert peel_fixpoint(sm) == {0, 1}


def test_partial_peel_keeps_only_the_core():
    # Columns 0 and 1 collide in the single subtable; column 2 peels away.
    sm = StateMatrix(3, ((1, 1, 2),))
    assert peel_fixpoint(sm) == {0, 1}


def test_contains_examples():
    assert contains_stopping_submatrix(StateMatrix(1, ((0, 0),)))
    for rows in itertools.product(range(3), repeat=2):
        sm = StateMatrix(3, (tuple([rows[0]]), tuple([rows[1]])))
        assert not contains_stopping_submatrix(sm)


def test_exactly_half_of_2x2_single_block():
    stopping = [
        cols
        for cols in itertools.product(range(2), repeat=2)
        if contains_stopping_submatrix(StateMatrix(2, (cols,)))
    ]
    assert stopping == [(0, 0), (1, 1)]


def test_exact_probability_examples():
    assert exact_failure_probability(1, 2, 1) == 1
    assert exact_failure_probability(2, 2, 1) == Fraction(1, 2)
    assert exact_failure_probability(2, 2, 2) == Fraction(1, 4)


def test_one_row_fails_unless_it_holds_one_entry():
    # At ell = 1 the one state's partition code and residual set are n bits
    # wide; building either bit by bit took 1.4 s at n = 200,000.
    assert exact_failure_probability(1, 1, 1) == 0
    assert exact_failure_probability(1, 200_000, 1) == 1


def test_exact_probability_n2_is_full_collision_rate():
    for ell in range(1, 5):
        for k in range(1, 3):
            assert exact_failure_probability(ell, 2, k) == Fraction(1, ell**k)


def test_guard(monkeypatch):
    with pytest.raises(ResourceGuardError):
        exact_failure_probability(10, 4, 2)  # 10**8 state matrices
    monkeypatch.setattr(ibltlab.oracle, "ORACLE_GUARD", 10)
    with pytest.raises(ResourceGuardError):
        exact_failure_probability(2, 2, 2)


def test_guard_refuses_without_building_the_power():
    # 2**9000000 has 2.7 million digits: formatting it into the message
    # raised ValueError past CPython's limit on the digits of an integer.
    with pytest.raises(ResourceGuardError, match=r"2\*\*9000000"):
        exact_failure_probability(2, 3000, 3000)
    # 10**400000000 would take 166 MB and minutes to build.
    with pytest.raises(ResourceGuardError):
        exact_failure_probability(Unpowered(10), 20000, 20000)


def test_guard_refuses_exactly_the_states_past_it(monkeypatch):
    # n*k placements fill each state; they decide only at ell = 1.
    for guard in range(1, 70):
        monkeypatch.setattr(ibltlab.oracle, "ORACLE_GUARD", guard)
        for ell in range(1, 5):
            for states in range(1, 8):
                if ell**states > guard or states > guard:
                    with pytest.raises(ResourceGuardError):
                        ibltlab.oracle.check_states(ell, states, 1)
                else:
                    ibltlab.oracle.check_states(ell, states, 1)


def test_guard_counts_the_placements_of_the_one_state_at_ell_one(monkeypatch):
    # 1**(n*k) is one state, but it holds n*k placements: at n*k = 1.31e8
    # about 60 s and 5 GB to build.
    with pytest.raises(ResourceGuardError, match="placements"):
        ibltlab.oracle.check_states(1, 1, ORACLE_GUARD + 1)
    ibltlab.oracle.check_states(1, 1, ORACLE_GUARD)
    built = []
    monkeypatch.setattr(ibltlab.oracle, "iter_state_matrices", lambda *a: built.append(a) or [])
    with pytest.raises(ResourceGuardError, match="placements"):
        exact_failure_probability(1, 1, ORACLE_GUARD + 1)
    assert built == []


def test_enumeration_is_complete():
    matrices = list(iter_state_matrices(2, 2, 2))
    assert len(matrices) == 2 ** 4
    assert len(set(matrices)) == 2 ** 4


def test_peel_fixpoint_matches_cell_count_peel():
    # The memoised peel against the plain one-cell-at-a-time peel, on every
    # state of every small shape.
    shapes = [
        (ell, n, k)
        for ell in range(1, 5)
        for n in range(1, 6)
        for k in range(1, 4)
        if ell ** (n * k) <= 50_000
    ]
    assert len(shapes) == 52
    for ell, n, k in shapes:
        for sm in iter_state_matrices(ell, n, k):
            assert peel_fixpoint(sm) == peel_cells(ell, sm.placements), sm


def test_peel_fixpoint_returns_a_fresh_set():
    sm = StateMatrix(3, ((1, 1, 2), (0, 0, 1)))
    residual = peel_fixpoint(sm)
    assert residual == {0, 1}
    residual.clear()
    assert peel_fixpoint(sm) == {0, 1}
    peel_fixpoint(StateMatrix(3, ((0, 1, 2), (0, 1, 2)))).add(7)
    assert peel_fixpoint(StateMatrix(3, ((0, 1, 2), (0, 1, 2)))) == set()


@pytest.mark.parametrize("ell,n,k", ORDER_SHAPES)
def test_enumeration_order_is_mixed_radix(ell, n, k):
    digits = itertools.product(range(ell), repeat=n * k)
    expected = [tuple(d[i * n : (i + 1) * n] for i in range(k)) for d in digits]
    assert [sm.placements for sm in iter_state_matrices(ell, n, k)] == expected


@pytest.mark.parametrize("ell,n,k", ORDER_SHAPES)
def test_enumerated_states_equal_checked_ones(ell, n, k):
    # Enumerated states skip the row check; each must still be the state
    # the checking constructor builds from its placements.
    for sm in iter_state_matrices(ell, n, k):
        checked = StateMatrix(ell, sm.placements)
        assert sm == checked and hash(sm) == hash(checked)
        assert (sm.ell, sm.n, sm.k) == (ell, n, k)


def test_enumerated_states_are_frozen():
    sm = next(iter_state_matrices(2, 2, 2))
    for field, value in (("ell", 3), ("placements", ((1, 1), (1, 1)))):
        with pytest.raises(AttributeError):
            setattr(sm, field, value)
    assert sm == StateMatrix(2, ((0, 0), (0, 0)))


def test_make_and_replace_run_the_checks():
    sm = StateMatrix(ell=2, placements=((0, 1), (1, 1)))
    assert sm == StateMatrix(2, ((0, 1), (1, 1)))
    assert StateMatrix._make((2, ((0, 1),))) == StateMatrix(2, ((0, 1),))
    assert sm._replace(ell=3).ell == 3
    with pytest.raises(ValueError, match="out of range"):
        StateMatrix._make((2, ((0, 2),)))
    with pytest.raises(ValueError, match="out of range"):
        sm._replace(placements=((0, 2),))
    with pytest.raises(ValueError, match="ell"):
        sm._replace(ell=0)
    with pytest.raises(ValueError, match="entries"):
        sm._replace(placements=((0, 1), (1,)))


def test_partition_codes_name_the_grouping():
    # Two blocks get one code iff they group their entries alike, across
    # every ell: the reference is the set of row masks, in no order.
    for n in range(1, 6):
        pairs = set()
        for ell in range(1, 5):
            for block in itertools.product(range(ell), repeat=n):
                masks = {}
                for j, r in enumerate(block):
                    masks[r] = masks.get(r, 0) | 1 << j
                code = ibltlab.oracle._partition_code(block)
                # The residual memo reads n as a code's bit count.
                assert code.bit_count() == n, block
                pairs.add((tuple(sorted(masks.values())), code))
        groupings, codes = zip(*pairs)
        assert len(set(groupings)) == len(set(codes)) == len(pairs), n


def test_capped_memos_peel_exactly_and_stay_under_their_caps(monkeypatch):
    # The head layer counts the residuals in all its dicts together: at
    # k = 1 the head is empty and every state is a new block, so it keeps
    # none; (2, 2, 3) has more head codes than it takes, and each head of
    # (3, 3, 2) has 27 last blocks, more than it holds.  The heads it turns
    # away share one dict, which stays empty.
    oracle = ibltlab.oracle
    tails = oracle._tails
    memos = (oracle._codes, oracle._residuals, oracle._entry_sets)
    for memo, cap in zip(memos, (4, 8, 2)):
        memo.clear()
        monkeypatch.setattr(memo, "cap", cap)
    tails.clear()
    monkeypatch.setattr(tails, "cap", 16)
    monkeypatch.setattr(tails, "heads", 3)
    monkeypatch.setattr(oracle, "_head", ((), (), oracle._NO_TAILS))
    for ell, n, k in ((1, 3, 2), (4, 3, 1), (2, 2, 3), (3, 3, 2), (2, 4, 3)):
        for sm in iter_state_matrices(ell, n, k):
            residual = peel_cells(ell, sm.placements)
            assert peel_fixpoint(sm) == residual, sm
            assert contains_stopping_submatrix(sm) == bool(residual), sm
            assert all(len(memo) <= memo.cap for memo in memos)
            held = sum(map(len, tails.values()))
            assert held == tails.held <= tails.cap
            assert len(tails) <= tails.heads and () not in tails
            assert not oracle._NO_TAILS
    assert (len(tails), held) == (tails.heads, tails.cap)


def test_residuals_past_the_memo_cap_are_built_once(monkeypatch):
    # The 4,096 code tuples of (2, 5, 3) outnumber a 256-key residual memo,
    # which empties itself when full; looked up through that memo alone,
    # 7,936 were built.  The head layer keeps each one once built.
    residuals = ibltlab.oracle._residuals
    residuals.clear()
    monkeypatch.setattr(residuals, "cap", 256)
    built = []
    build = residuals.build
    monkeypatch.setattr(residuals, "build", lambda codes: built.append(codes) or build(codes))
    assert exact_failure_probability(2, 5, 3) == 1
    assert len(built) == len(set(built)) == 4096


def test_alternating_shapes_peel_exactly(monkeypatch):
    # A head dict serves every head with equal codes, across ell too, and a
    # residual memo key is the codes alone: peel the states of four shapes
    # in turn, so that every call changes the head, against the plain peel.
    ibltlab.oracle._tails.clear()
    monkeypatch.setattr(ibltlab.oracle, "_head", ((), (), ibltlab.oracle._NO_TAILS))
    shapes = [(2, 3, 1), (3, 3, 2), (2, 3, 3), (4, 2, 2)]
    for states in itertools.zip_longest(*(iter_state_matrices(*shape) for shape in shapes)):
        for sm in filter(None, states):
            assert peel_fixpoint(sm) == peel_cells(sm.ell, sm.placements), sm
    assert len(ibltlab.oracle._tails) > 1


@pytest.mark.parametrize("ell,n,k", [(3, 3, 2), (2, 3, 3), (4, 2, 1)])
def test_head_codes_never_go_stale(ell, n, k):
    # peel_fixpoint reuses the codes of the last state's first k - 1 blocks
    # when the next state's equal them; any state may follow any other.
    # Peel every state in enumeration order, shuffled, and rebuilt from
    # equal but distinct tuples, with a contains_stopping_submatrix call
    # on another state between any two.
    states = list(iter_state_matrices(ell, n, k))
    shuffled = random.Random(ell * n * k).sample(states, len(states))
    rebuilt = [StateMatrix(ell, tuple(tuple(list(b)) for b in sm.placements)) for sm in states]
    for order in (states, shuffled, rebuilt):
        for sm, other in zip(order, reversed(order)):
            assert peel_fixpoint(sm) == peel_cells(ell, sm.placements), sm
            assert contains_stopping_submatrix(other) == bool(peel_cells(ell, other.placements))


@pytest.mark.parametrize("ell,n,k", [(1, 2, 3), (2, 3, 2), (3, 3, 2), (4, 2, 2)])
def test_exact_probability_peels_each_state_once(ell, n, k, monkeypatch):
    # Benchmark tracing counts one peel_fixpoint call per state.
    expected = exact_failure_probability(ell, n, k)
    calls = []
    peel = ibltlab.oracle.peel_fixpoint
    monkeypatch.setattr(ibltlab.oracle, "peel_fixpoint", lambda sm: calls.append(sm) or peel(sm))
    assert exact_failure_probability(ell, n, k) == expected
    assert len(calls) == ell ** (n * k)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize(
    "ell,n,k",
    [
        (3, 4, 3), (4, 3, 3), (3, 3, 4), (2, 3, 6), (5, 4, 2), (3, 5, 2),
        (2, 4, 4), (6, 3, 2), (8, 5, 1), (2, 7, 2), (1, 5, 2), (2, 2, 2),
    ],
)
def test_weighted_set_partition_tuples_match_the_enumeration(ell, n, k):
    # Set-partition tuples, weighted, against every state matrix: the first
    # two shapes take 465 peels there and 793,585 here.
    assert weighted_failure_probability(ell, n, k) == exact_failure_probability(ell, n, k)


def test_listing_fails_exactly_on_stopping_submatrices():
    # Every incidence pattern (ell=2, n=3, k<=2), realized through a stub
    # scheme, must make listing fail exactly when the oracle says so.
    ell, n = 2, 3
    for k in (1, 2):
        for sm in iter_state_matrices(ell, n, k):
            scheme = ExplicitScheme(
                ell=ell,
                k=k,
                mapping={
                    j + 1: tuple(i * ell + sm.placements[i][j] for i in range(k))
                    for j in range(n)
                },
                b=8,
            )
            table = Iblt(scheme)
            for j in range(n):
                table.insert(j + 1, j + 101)
            result = table.list_entries()
            assert (not result.complete) == contains_stopping_submatrix(sm)
            if result.complete:
                assert result.entries == {(j + 1, j + 101) for j in range(n)}


def test_residual_matches_peel_fixpoint():
    ell, n, k = 3, 4, 2
    import random

    rng = random.Random(77)
    for _ in range(200):
        placements = tuple(
            tuple(rng.randrange(ell) for _ in range(n)) for _ in range(k)
        )
        sm = StateMatrix(ell, placements)
        residual = peel_fixpoint(sm)
        scheme = ExplicitScheme(
            ell=ell,
            k=k,
            mapping={
                j + 1: tuple(i * ell + placements[i][j] for i in range(k))
                for j in range(n)
            },
            b=8,
        )
        table = Iblt(scheme)
        for j in range(n):
            table.insert(j + 1, j + 101)
        listed = table.list_entries()
        recovered = {x - 1 for x, _ in listed.entries}
        assert recovered == set(range(n)) - residual


def test_listing_matches_oracle_on_real_scheme():
    # Incidence extracted from a real scheme must peel exactly like the table.
    import random

    from ibltlab import HashParams, make_partitioned_uniform

    rng = random.Random(11)
    scheme = make_partitioned_uniform(HashParams(k=2, ell=4, b=16, seed=3))
    for _ in range(300):
        keys = rng.sample(range(1 << 16), 6)
        placements = tuple(
            tuple(scheme.indices(x)[i] - i * 4 for x in keys) for i in range(2)
        )
        sm = StateMatrix(4, placements)
        table = Iblt(scheme)
        for x in keys:
            table.insert(x, x)
        assert (not table.list_entries().complete) == contains_stopping_submatrix(sm)


def test_state_matrix_validation():
    with pytest.raises(ValueError):
        StateMatrix(2, ((0, 2),))
    with pytest.raises(ValueError, match="out of range"):
        StateMatrix(2, ((0, -1), (1, 1)))
    # Entry 1 would have no row in block 1, and peeling would miss it.
    with pytest.raises(ValueError, match="entries"):
        StateMatrix(3, ((0, 0), (1,)))
    with pytest.raises(ValueError, match="entries"):
        StateMatrix(3, ((0,), (1, 2)))
    with pytest.raises(ValueError, match="ell"):
        StateMatrix(0, ((),))
    with pytest.raises(ValueError):
        exact_failure_probability(0, 1, 1)
