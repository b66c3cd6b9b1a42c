"""Exhaustive ground truth for tiny parameters.

A state matrix records, for each of n entries and each of k subtables,
which of the ell rows the entry occupies.  Peeling removes any column that
is the unique 1 in some row of the stacked k*ell x n matrix; the residual
at fixpoint is nonempty exactly when a stopping sub-matrix is present.
Enumerating every state matrix gives the exact listing failure probability
as a rational -- no sampling, no rounding.  Clarity beats cleverness here;
this module is the reference the fast paths are checked against.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ibltlab.errors import ResourceGuardError

ORACLE_GUARD = 10_000_000


@dataclass(frozen=True)
class StateMatrix:
    """k blocks of ell rows; placements[i][j] = row of entry j in block i."""

    ell: int
    placements: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for block in self.placements:
            for r in block:
                if not 0 <= r < self.ell:
                    raise ValueError(f"row index {r} out of range [0, {self.ell})")

    @property
    def k(self) -> int:
        return len(self.placements)

    @property
    def n(self) -> int:
        return len(self.placements[0]) if self.placements else 0


def peel_fixpoint(sm: StateMatrix) -> set[int]:
    """Columns surviving peeling; empty iff no stopping sub-matrix exists."""
    ell, k, n = sm.ell, sm.k, sm.n
    count = [0] * (ell * k)
    colsum = [0] * (ell * k)
    for i, block in enumerate(sm.placements):
        for j, r in enumerate(block):
            c = i * ell + r
            count[c] += 1
            colsum[c] += j
    alive = [True] * n
    stack = [c for c in range(ell * k) if count[c] == 1]
    while stack:
        c = stack.pop()
        if count[c] != 1:
            continue
        j = colsum[c]  # the lone remaining column in this row
        alive[j] = False
        for i, block in enumerate(sm.placements):
            ci = i * ell + block[j]
            count[ci] -= 1
            colsum[ci] -= j
            if count[ci] == 1:
                stack.append(ci)
    return {j for j in range(n) if alive[j]}


def contains_stopping_submatrix(sm: StateMatrix) -> bool:
    return bool(peel_fixpoint(sm))


def iter_state_matrices(ell: int, n: int, k: int):
    """All ell**(n*k) state matrices, in mixed-radix order."""
    for digits in itertools.product(range(ell), repeat=n * k):
        yield StateMatrix(
            ell, tuple(digits[i * n : (i + 1) * n] for i in range(k))
        )


def exact_failure_probability(
    ell: int, n: int, k: int, guard: int = ORACLE_GUARD
) -> Fraction:
    """Exact probability that listing fails, by full enumeration.

    Raises ValueError for a guard below 1 and ResourceGuardError when the
    ell**(n*k) state matrices exceed ``guard``.
    """
    if ell < 1 or n < 1 or k < 1:
        raise ValueError("ell, n and k must be positive")
    if guard < 1:
        raise ValueError(f"guard must be at least 1, got {guard}")
    total = ell ** (n * k)
    if total > guard:
        raise ResourceGuardError(
            f"ell**(n*k) = {total} state matrices exceeds the guard of {guard}"
        )
    failing = sum(
        1 for sm in iter_state_matrices(ell, n, k) if contains_stopping_submatrix(sm)
    )
    return Fraction(failing, total)
