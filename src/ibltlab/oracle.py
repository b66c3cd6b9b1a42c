"""Exhaustive ground truth for tiny parameters.

A state matrix records, for each of n entries and each of k subtables,
which of the ell rows the entry occupies.  Peeling removes any column that
is the unique 1 in some row of the stacked k*ell x n matrix; the residual
at fixpoint is nonempty exactly when a stopping sub-matrix is present.
Enumerating every state matrix gives the exact listing failure probability
as a rational -- no sampling, no rounding.  This module is the reference
the fast paths are checked against.

Peeling sees only which entries share a row in each block, never the row
indices themselves: a block enters it as the set partition it induces on
the entries, one bit mask per occupied row.  So the peel is memoised on
the tuple of the k partitions, which makes it exact, not approximate:
states with equal tuples peel alike.  Of the 531,441 states at ell = 3,
n = 4, k = 3 only 2,744 tuples differ (Stanley, *Enumerative
Combinatorics* Vol. 1, ch. 3, on the set-partition lattice).

A ``StateMatrix`` built by a caller is checked: ell >= 1, blocks of one
length, rows in ``range(ell)``.  The states ``iter_state_matrices`` yields
skip that check, because their blocks are drawn from ``range(ell)`` with
one length by construction; re-checking the n*k rows of every state costs
more than peeling it.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ibltlab.errors import ResourceGuardError

if TYPE_CHECKING:
    from fractions import Fraction

ORACLE_GUARD = 10_000_000


@dataclass(frozen=True, slots=True)
class StateMatrix:
    """k blocks of ell rows; placements[i][j] = row of entry j in block i."""

    ell: int
    placements: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError(f"ell must be at least 1, got {self.ell}")
        n = self.n
        for block in self.placements:
            if len(block) != n:
                raise ValueError(f"a block of {len(block)} entries beside one of {n}")
            for r in block:
                if not 0 <= r < self.ell:
                    raise ValueError(f"row index {r} out of range [0, {self.ell})")

    @property
    def k(self) -> int:
        return len(self.placements)

    @property
    def n(self) -> int:
        return len(self.placements[0]) if self.placements else 0


_new_state = object.__new__
_set_ell = StateMatrix.ell.__set__
_set_placements = StateMatrix.placements.__set__


def _enumerated_state(ell: int, placements) -> StateMatrix:
    """A StateMatrix without ``__post_init__``: for ``iter_state_matrices``,
    whose blocks are equal-length tuples drawn from ``range(ell)``."""
    sm = _new_state(StateMatrix)
    _set_ell(sm, ell)
    _set_placements(sm, placements)
    return sm


# Bounded memos: the ell**n blocks and the tuples of partitions (at most
# Bell(n)**k) of most shapes under the guard fit; a full _residual holds
# about 11 MiB.
@functools.lru_cache(maxsize=1 << 12)
def _row_masks(block: tuple[int, ...]) -> tuple[int, ...]:
    """The set partition ``block`` induces on the entries: one bit mask per
    occupied row, ordered by each row's first entry, so that blocks which
    group the entries alike give equal tuples."""
    masks: dict[int, int] = {}
    for j, r in enumerate(block):
        masks[r] = masks.get(r, 0) | 1 << j
    return tuple(masks.values())


@functools.lru_cache(maxsize=1 << 15)
def _residual(partitions: tuple[tuple[int, ...], ...], n: int) -> int:
    """Bit mask of the entries left when every row that holds exactly one
    live entry is peeled until none does."""
    alive = (1 << n) - 1
    peeled = True
    while peeled:
        peeled = False
        for rows in partitions:
            for row in rows:
                live = row & alive
                if live and not live & (live - 1):
                    alive ^= live
                    peeled = True
    return alive


def peel_fixpoint(sm: StateMatrix) -> set[int]:
    """Columns surviving peeling, as a new set on every call; empty iff no
    stopping sub-matrix exists."""
    placements = sm.placements
    n = len(placements[0]) if placements else 0
    alive = _residual(tuple(map(_row_masks, placements)), n)
    return {j for j in range(n) if alive >> j & 1} if alive else set()


def contains_stopping_submatrix(sm: StateMatrix) -> bool:
    return bool(peel_fixpoint(sm))


def iter_state_matrices(ell: int, n: int, k: int):
    """All ell**(n*k) state matrices, in mixed-radix order: block 0 varies
    slowest, and within a block entry 0 does."""
    blocks = itertools.product(range(ell), repeat=n)
    # For k >= 2 the ell**n <= sqrt(states) blocks are listed once; k = 1
    # streams them, so it lists nothing.
    tuples = zip(blocks) if k == 1 else itertools.product(list(blocks), repeat=k)
    for placements in tuples:
        yield _enumerated_state(ell, placements)


def check_states(ell: int, n: int, k: int, guard: int = ORACLE_GUARD):
    """Raise ValueError for a nonpositive ell, n, k or guard, and
    ResourceGuardError when the ell**(n*k) state matrices, or the n*k
    placements of one state, exceed ``guard``.

    At ell >= 2 an exponent of at least guard.bit_length() puts the power
    past the guard, so it is refused before that power is built.  The
    placements only decide at ell = 1, where the one state holds them all.
    """
    if ell < 1 or n < 1 or k < 1:
        raise ValueError("ell, n and k must be positive")
    if guard < 1:
        raise ValueError(f"guard must be at least 1, got {guard}")
    if ell > 1 and n * k >= guard.bit_length() or ell ** (n * k) > guard:
        raise ResourceGuardError(
            f"ell**(n*k) = {ell}**{n * k} state matrices exceeds the guard of {guard}"
        )
    if n * k > guard:
        raise ResourceGuardError(
            f"n*k = {n * k} placements of a state exceed the guard of {guard}"
        )


def exact_failure_probability(
    ell: int, n: int, k: int, guard: int = ORACLE_GUARD
) -> "Fraction":
    """Exact probability that listing fails, by full enumeration, once
    ``check_states`` lets the ell**(n*k) state matrices through."""
    from fractions import Fraction  # with decimal, loaded only when an oracle runs

    check_states(ell, n, k, guard)
    failing = sum(map(bool, map(peel_fixpoint, iter_state_matrices(ell, n, k))))
    return Fraction(failing, ell ** (n * k))
