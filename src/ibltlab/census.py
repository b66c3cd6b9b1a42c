"""Exact census of stopping matrices among column-weight-one binary matrices.

A column-weight-one matrix with ell rows and n columns places each column's
single 1 in one of ell rows, so there are ell**n of them.  A matrix is a
*stopping matrix* when no row has weight exactly 1: peeling cannot start.
Equivalently it is a map [n] -> [ell] with no fiber of size exactly 1,
whose exponential generating function is (e^x - x)^ell (Flajolet &
Sedgewick, *Analytic Combinatorics*, ch. II).

``stopping_row`` counts these maps, one row of n = 0..n_max for a fixed
ell, by the number j of rows they occupy; ``StoppingCensus`` keeps such
rows for callers that read them again.  Let R_j(n) be the number of maps
[n] -> [ell] that hit exactly j rows, each at least twice.  Then
R_0(0) = 1 and

    R_j(n) = j R_j(n-1) + (n-1) (ell-j+1) R_{j-1}(n-2),
    count(ell, n) = sum_{j=0..min(ell, n//2)} R_j(n).

Proof, by the row of entry n: if that row holds three or more entries,
removing entry n leaves a valid map on the same j rows, one of j; if it
holds exactly two, entry n has one of n-1 partners, and removing both
leaves a valid map on j-1 rows, with the pair's row one of the ell-j+1
rows that map leaves empty.  So R_j(n) = ell!/(ell-j)! S(n, j), with S
the associated Stirling numbers of the second kind (OEIS A008299).  Every
step multiplies by small integers and adds nonnegative terms: no
division and no cancellation, exact at any size.

Three independent computations hold the recurrence in the tests: the
inclusion-exclusion closed form

    count(ell, n) = sum_{c=0..min(ell,n)} (-1)^c C(ell,c) n!/(n-c)! (ell-c)^(n-c)

(``tests/reference.py::inclusion_exclusion_row``, in
``tests/test_census.py::test_rows_equal_inclusion_exclusion``), the
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
from typing import Callable

from ibltlab.errors import ResourceGuardError, check_power

BRUTE_FORCE_GUARD = 10**8

# Census and union-bound requests estimated to take longer than this many
# seconds are refused with ResourceGuardError (exit 2 from the CLI).
COST_GUARD_S = 30.0


def stopping_row(ell: int, n_max: int) -> list[int]:
    """count(ell, n) for n = 0..n_max, by the occupied-rows recurrence.

    ``before`` and ``last`` hold R_j at columns n-2 and n-1 for
    j = 0..min(ell, n//2); both grow by a zero when n//2 reaches a new j,
    where 2j > n-1.  Column n overwrites ``before`` from the top j down,
    so each step still reads R_{j-1}(n-2), and R_0(n) = 0 for n >= 1.
    """
    if ell < 0 or n_max < 0:
        raise ValueError("ell and n must be nonnegative")
    row = [1]
    before, last = [0], [1]
    for n in range(1, n_max + 1):
        top = min(ell, n // 2)
        if len(last) <= top:
            last.append(0)
            before.append(0)
        for j in range(top, 0, -1):
            before[j] = j * last[j] + (n - 1) * (ell - j + 1) * before[j - 1]
        before[0] = 0
        row.append(sum(before))
        before, last = last, before
    return row


def rows_cost_s(ell_min: int, ell_max: int, n_max: int) -> float:
    """Estimated seconds for ``stopping_row(ell, n_max)`` summed over
    ell = ell_min..ell_max.

    The model charges n_max columns of min(ell, n_max) big-integer steps
    on about n_max * log2(ell) bits each; the sum of min(ell, n_max) is
    exact and every log2(ell) is taken at ell_max.  The rate was fitted
    on a 2-core x86 VM under CPython 3.11 to the inclusion-exclusion loop
    (``tests/reference.py::inclusion_exclusion_row``), which takes one
    big division per step over up to min(ell, n_max) signed summands.
    The recurrence has at most min(ell, n_max//2) steps per column, with
    no division, so the estimate still bounds it; single rows on the same
    kind of host, in seconds:

        ell, n_max     estimate   incl.-excl.   recurrence
        1, 200000        8.80         0.07         0.11
        2, 100000        8.80         2.90         0.84
        10, 20000        3.52         1.68         0.73
        40, 8000         3.38         2.01         0.75
        1000, 1200       3.17         2.03         0.46

    At ell = 1 the recurrence pays a fixed cost per column on tiny
    counts, so it is slower than inclusion-exclusion there, and still far
    under the estimate.
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
    """Exact stopping-matrix counts, kept as one ``stopping_row`` per ell.

    A row holds count(ell, n) for n = 0..n_max; a request beyond a stored
    row recomputes it at the new length.  Every row stays until the census
    is dropped, so keep one only where rows are read again: ``ztable``
    calls ``stopping_row`` for each row and drops it once written, and
    each ``bound`` and ``simulate`` point builds a census of its own.
    Requests are not synchronized: populate from a single thread, after
    which the rows are effectively immutable and safe to share with
    concurrent readers.
    """

    def __init__(self):
        self._rows: dict[int, list[int]] = {}

    def row(self, ell: int, n_max: int) -> list[int]:
        """[count(ell, 0), count(ell, 1), ..., count(ell, n_max)]."""
        row = self._rows.get(ell)
        if row is None or not 0 <= n_max < len(row):
            row = self._rows[ell] = stopping_row(ell, n_max)
        return row[: n_max + 1]

    def count(self, ell: int, n: int) -> int:
        """Number of stopping matrices with ell rows and n weight-one columns."""
        return self.row(ell, n)[n]

    def known(self) -> dict[tuple[int, int], int]:
        return {
            (ell, n): value
            for ell, row in self._rows.items()
            for n, value in enumerate(row)
        }


def count_stopping_bruteforce(ell: int, n: int) -> int:
    """Independent oracle: test the ell row counts of each of the ell**n
    matrices (``_kernels_py.count_stopping_matrices``) and count stoppers.

    Refuses when those ell**(n+1) row counts exceed the fixed
    ``BRUTE_FORCE_GUARD`` of 1e8, which admits ell <= 10**4 at n = 1,
    ell <= 100 at n = 3 and n <= 25 at ell = 2.  ``check_power`` refuses
    them without building their count.
    """
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be nonnegative")
    check_power(ell, n + 1, BRUTE_FORCE_GUARD, f"ell**(n+1) = {ell}**{n + 1} row counts")
    if ell == 0 or n == 0:  # only the empty matrix, which stops
        return 1 if n == 0 else 0
    if ell == 1:
        return 0 if n == 1 else 1  # one matrix, its single row of weight n
    from ibltlab import _kernels_py  # numpy, loaded only for enumeration

    return _kernels_py.count_stopping_matrices(ell, n)
