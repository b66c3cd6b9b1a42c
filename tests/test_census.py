import itertools
import math

import pytest

import ibltlab.census
from ibltlab import ResourceGuardError, StoppingCensus, count_stopping_bruteforce, stopping_row
from reference import (
    STOPPING_COUNTS_10X10,
    Unpowered,
    inclusion_exclusion_row,
    is_stopping_matrix,
    matrix_from_columns,
)


def count_by_literal_enumeration(ell, n):
    """The dumbest possible oracle: materialize every matrix and test it."""
    return sum(
        is_stopping_matrix(matrix_from_columns(ell, cols))
        for cols in itertools.product(range(ell), repeat=n)
    )


def test_stopping_predicate_examples():
    assert not is_stopping_matrix([[1], [0]])  # the weight-1 row
    assert is_stopping_matrix([[1, 1], [0, 0]])  # row weights 2 and 0
    assert is_stopping_matrix([])  # empty matrix, vacuously


def test_counts_match_frozen_10x10(census):
    for ell in range(1, 11):
        for n in range(1, 11):
            assert census.count(ell, n) == STOPPING_COUNTS_10X10[ell - 1][n - 1]


def test_closed_forms(census):
    for ell in range(1, 11):
        assert census.count(ell, 1) == 0
        assert census.count(ell, 2) == ell
        assert census.count(ell, 3) == ell
    assert census.count(1, 1) == 0
    for n in range(2, 12):
        assert census.count(1, n) == 1


def test_boundaries(census):
    assert census.count(0, 0) == 1
    for n in range(1, 6):
        assert census.count(0, n) == 0
    for ell in range(6):
        assert census.count(ell, 0) == 1


def test_bruteforce_examples():
    assert count_stopping_bruteforce(1, 1) == 0
    assert count_stopping_bruteforce(3, 4) == 21
    assert count_stopping_bruteforce(2, 4) == 8


def test_bruteforce_guard(monkeypatch):
    with pytest.raises(ResourceGuardError):
        count_stopping_bruteforce(10, 8)  # 10**9 row counts
    with pytest.raises(ResourceGuardError):
        count_stopping_bruteforce(3162, 2)  # 3.2e10 row counts, 1e7 matrices
    monkeypatch.setattr(ibltlab.census, "BRUTE_FORCE_GUARD", 80)
    with pytest.raises(ResourceGuardError):
        count_stopping_bruteforce(3, 4)


def test_bruteforce_guard_refuses_without_building_the_power(monkeypatch):
    # 2**100001 has 30,103 digits, past CPython's limit on the digits of
    # an integer it formats.
    with pytest.raises(ResourceGuardError):
        count_stopping_bruteforce(2, 10**5)
    with pytest.raises(ResourceGuardError):
        count_stopping_bruteforce(Unpowered(2), 10**5)
    for guard in (1, 7, 8, 9, 80, 81):
        monkeypatch.setattr(ibltlab.census, "BRUTE_FORCE_GUARD", guard)
        for ell in range(4):
            for n in range(5):
                if ell ** (n + 1) > guard:
                    with pytest.raises(ResourceGuardError):
                        count_stopping_bruteforce(ell, n)


def test_bruteforce_guard_message(monkeypatch):
    monkeypatch.setattr(ibltlab.census, "BRUTE_FORCE_GUARD", 80)
    with pytest.raises(ResourceGuardError) as exc:
        count_stopping_bruteforce(3, 4)
    assert str(exc.value) == "ell**(n+1) = 3**5 row counts exceeds the guard of 80"


def test_recursion_equals_bruteforce_small(census):
    shapes = [(ell, n) for ell in range(1, 6) for n in range(1, 6)]
    # Columns past the kernel's table, which at ell = 600 holds none.
    shapes += [(2, 19), (9, 6), (70, 3), (600, 1)]
    for ell, n in shapes:
        assert census.count(ell, n) == count_stopping_bruteforce(ell, n)


def test_recursion_equals_literal_enumeration(census):
    for ell in range(1, 5):
        for n in range(1, 6):
            assert census.count(ell, n) == count_by_literal_enumeration(ell, n)


def test_partition_identity_exact(census):
    # ell**n = count(ell,n) + sum_c c! C(ell,c) C(n,c) count(ell-c, n-c):
    # the paper's pivot recurrence, on counts far beyond 64 bits.
    for ell in range(1, 41):
        for n in range(1, 41):
            pivot_ways = sum(
                math.factorial(c)
                * math.comb(ell, c)
                * math.comb(n, c)
                * census.count(ell - c, n - c)
                for c in range(1, min(ell, n) + 1)
            )
            assert ell**n == census.count(ell, n) + pivot_ways


def test_counts_within_range(census):
    for ell in range(0, 15):
        for n in range(0, 15):
            assert 0 <= census.count(ell, n) <= max(1, ell**n)


def test_large_counts_are_exact_integers(census):
    # Spot values beyond float precision, equal to the closed form's.
    for ell, n in ((40, 40), (280, 320)):
        value = census.count(ell, n)
        assert isinstance(value, int)
        assert 0 < value < ell**n
        assert value == inclusion_exclusion_row(ell, n)[n]


def test_rows_equal_inclusion_exclusion():
    # The recurrence against the signed closed form: every column up to 150
    # for ell = 0..60, the benchmark's large shapes, a row wider than it is
    # long, and long rows at ell = 1 and 2.
    shapes = [(ell, 150) for ell in range(61)]
    shapes += [(140, 210), (280, 320), (1000, 500), (1, 5000), (2, 5000)]
    for ell, n_max in shapes:
        assert StoppingCensus().row(ell, n_max) == inclusion_exclusion_row(ell, n_max), (ell, n_max)


def test_row_is_the_counts_of_one_ell():
    census = StoppingCensus()
    assert census.row(5, 7) == [census.count(5, n) for n in range(8)]
    assert census.row(5, 3) == [1, 0, 5, 5]
    longer = census.row(5, 12)  # past the stored row: recomputed
    assert longer == [StoppingCensus().count(5, n) for n in range(13)]
    assert census.row(0, 3) == [1, 0, 0, 0]
    assert census.known() == {(5, n): longer[n] for n in range(13)} | {
        (0, n): int(n == 0) for n in range(4)
    }


def test_invalid_arguments(census):
    with pytest.raises(ValueError):
        census.count(-1, 2)
    with pytest.raises(ValueError):
        census.row(3, -1)
    census.count(5, 3)  # a stored row must not answer a negative column
    for call in (census.row, census.count):
        with pytest.raises(ValueError):
            call(5, -1)
    for ell, n_max in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            stopping_row(ell, n_max)
    with pytest.raises(ValueError):
        count_stopping_bruteforce(-1, 2)
