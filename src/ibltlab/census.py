"""Exact census of stopping matrices among column-weight-one binary matrices.

A column-weight-one matrix with ell rows and n columns places each column's
single 1 in one of ell rows, so there are ell**n of them.  A matrix is a
*stopping matrix* when no row has weight exactly 1: peeling cannot start.
Equivalently it is a map [n] -> [ell] with no fiber of size exactly 1,
whose exponential generating function is (e^x - x)^ell (Flajolet &
Sedgewick, *Analytic Combinatorics*, ch. II).  Inclusion-exclusion over
the rows forced to weight 1 gives the closed form

    count(ell, n) = sum_{c=0..min(ell,n)} (-1)^c C(ell,c) n!/(n-c)! (ell-c)^(n-c)

``StoppingCensus`` evaluates it one row at a time: for fixed ell, summand
c moves from column n-1 to column n by the exact integer step

    t_c <- t_c * (n * (ell-c)) // (n-c)

(the small factor n*(ell-c) is formed first, so the big summand takes
one multiplication), and summand c = n enters at column n.  Everything
is exact integer arithmetic; the alternating sum cancels huge terms and
would be destroyed by floating point.

Two independent computations hold the closed form in the tests: the
paper's pivot recurrence, as the partition identity

    ell**n = count(ell, n) + sum_{c=1..min(ell,n)}
             c! * C(ell,c) * C(n,c) * count(ell-c, n-c)

(``tests/test_census.py::test_partition_identity_exact`` and
``tests/test_acceptance.py::test_03_partition_identity``), and a brute
force that tests the row counts of every matrix, one by one
(``count_stopping_bruteforce``, in
``tests/test_acceptance.py::test_02_recurrence_equals_enumeration``).
"""

import math
from typing import Callable, Iterable, Sequence

from ibltlab.errors import ResourceGuardError

BRUTE_FORCE_GUARD = 10**8

# Census and union-bound requests estimated to take longer than this many
# seconds are refused with ResourceGuardError (exit 2 from the CLI).
COST_GUARD_S = 30.0


def is_stopping_matrix(rows: Sequence[Sequence[int]]) -> bool:
    """True iff no row has Hamming weight exactly 1 (any binary matrix)."""
    return all(sum(row) != 1 for row in rows)


def pivots(rows: Sequence[Sequence[int]]) -> set[tuple[int, int]]:
    """Positions (i, j) where entry (i, j) = 1 and row i has weight 1.

    Empty exactly when the matrix is a stopping matrix.
    """
    found = set()
    for i, row in enumerate(rows):
        if sum(row) == 1:
            found.add((i, list(row).index(1)))
    return found


def matrix_from_columns(ell: int, cols: Iterable[int]) -> list[list[int]]:
    """Materialize a column-weight-one matrix from its column row-indices."""
    cols = list(cols)
    rows = [[0] * len(cols) for _ in range(ell)]
    for j, r in enumerate(cols):
        rows[r][j] = 1
    return rows


def _stopping_row(ell: int, n_max: int) -> list[int]:
    """count(ell, n) for n = 0..n_max, by the closed form.

    terms[c] holds the signed c-th summand (-1)^c C(ell,c) n!/(n-c)!
    (ell-c)^(n-c) at the current column n.  Moving to column n advances
    every summand by the factor n (ell-c) / (n-c), which divides exactly
    because both ends are integers; summand c = n enters as
    (-1)^n C(ell,n) n! = (-1)^n ell!/(ell-n)!, and is zero once n > ell.
    """
    row = [1]
    terms = [1]
    entering = 1
    for n in range(1, n_max + 1):
        for c, term in enumerate(terms):
            terms[c] = term * (n * (ell - c)) // (n - c)
        if n <= ell:
            entering *= n - 1 - ell
            terms.append(entering)
        row.append(sum(terms))
    return row


def rows_cost_s(ell_min: int, ell_max: int, n_max: int) -> float:
    """Estimated seconds for ``_stopping_row(ell, n_max)`` summed over
    ell = ell_min..ell_max.

    n_max columns advance up to min(ell, n_max) summands of about
    n_max * log2(ell) bits each; the sum of min(ell, n_max) is exact and
    every log2(ell) is taken at ell_max.  The rate was fitted on a 2-core
    x86 VM under CPython 3.11.
    """
    def min_sum(top):  # sum of min(ell, n_max) over ell = 1..top
        below = min(top, n_max)
        return below * (below + 1) // 2 + (top - below) * n_max

    summands = min_sum(ell_max) - min_sum(ell_min - 1)
    return 2.2e-10 * n_max * n_max * summands * max(1, ell_max.bit_length())


def check_cost(what: str, estimate: Callable[[], float]):
    """Raise ResourceGuardError when ``estimate()`` seconds exceed
    ``COST_GUARD_S``; an estimate too large for a float counts as infinite."""
    try:
        seconds = estimate()
    except OverflowError:
        seconds = math.inf
    if seconds > COST_GUARD_S:
        raise ResourceGuardError(
            f"{what} is estimated at {seconds:.3g} s, over the "
            f"budget of {COST_GUARD_S:g} s"
        )


class StoppingCensus:
    """Exact stopping-matrix counts, kept as one row per ell.

    A row holds count(ell, n) for n = 0..n_max; a request beyond a stored
    row recomputes it at the new length.  Requests are not synchronized:
    populate from a single thread, after which the rows are effectively
    immutable and safe to share with concurrent readers.
    """

    def __init__(self):
        self._rows: dict[int, list[int]] = {}

    def row(self, ell: int, n_max: int) -> list[int]:
        """[count(ell, 0), count(ell, 1), ..., count(ell, n_max)]."""
        if ell < 0 or n_max < 0:
            raise ValueError("ell and n must be nonnegative")
        row = self._rows.get(ell)
        if row is None or len(row) <= n_max:
            row = self._rows[ell] = _stopping_row(ell, n_max)
        return row[: n_max + 1]

    def count(self, ell: int, n: int) -> int:
        """Number of stopping matrices with ell rows and n weight-one columns."""
        return self.row(ell, n)[n]

    def log_ratio(self, ell: int, n: int) -> float:
        """ln(count / ell**n): log-probability that a fixed column set stops.

        Returns -inf when the count is zero.  math.log takes the integer
        directly (bit length + leading mantissa), so there is no overflow
        for counts beyond float range.
        """
        if ell < 1 or n < 1:
            raise ValueError("ell and n must be positive")
        c = self.count(ell, n)
        if c == 0:
            return float("-inf")
        return math.log(c) - n * math.log(ell)

    def known(self) -> dict[tuple[int, int], int]:
        return {
            (ell, n): value
            for ell, row in self._rows.items()
            for n, value in enumerate(row)
        }


def count_stopping_bruteforce(
    ell: int, n: int, guard: int = BRUTE_FORCE_GUARD
) -> int:
    """Independent oracle: test the ell row counts of each of the ell**n
    matrices (``_kernels_py.count_stopping_matrices``) and count stoppers.

    Refuses when those ell**(n+1) row counts exceed ``guard``; the default
    1e8 admits ell <= 10**4 at n = 1, ell <= 100 at n = 3, n <= 25 at ell = 2.
    At ell >= 2 an exponent of at least guard.bit_length() puts the power
    past the guard, so it is refused before that power is built.
    """
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be nonnegative")
    if ell > 1 and n + 1 >= guard.bit_length() or ell ** (n + 1) > guard:
        raise ResourceGuardError(
            f"ell**(n+1) = {ell}**{n + 1} row counts exceeds the guard of {guard}"
        )
    if ell == 0 or n == 0:  # only the empty matrix, which stops
        return 1 if n == 0 else 0
    if ell == 1:
        return 0 if n == 1 else 1  # one matrix, its single row of weight n
    from ibltlab import _kernels_py  # numpy, loaded only for enumeration

    return _kernels_py.count_stopping_matrices(ell, n)
