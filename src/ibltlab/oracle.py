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
the entries.  Each block maps to one integer that names that partition,
each part a bit mask in the n-bit slot of its least entry, and the peel
is memoised on the tuple of the k codes, which makes it exact, not
approximate: states with equal tuples peel alike.  Of the 531,441 states
at ell = 3, n = 4, k = 3 only 2,744 tuples differ (Stanley, *Enumerative
Combinatorics* Vol. 1, ch. 3, on the set-partition lattice).  The memos
are dicts, so a hit never leaves C, and a cap bounds each one's memory.
Consecutive states of ``iter_state_matrices`` share their first k - 1
blocks, the head, for ell**n states in a row.  So ``peel_fixpoint``
keeps the head from its last call, with its codes and a dict from last
block to residual, and a state whose head equals it costs one dict hit.
That dict is shared by every head with equal codes, in a layer keyed by
the head's codes.  Every state takes the one path: a head that the layer
turns away, and every head at k = 1, gets one shared empty dict that is
never written, so its lookup misses and the state looks up its last
block's code and then the k codes' residual.

A ``StateMatrix`` built by a caller, or by its ``_make`` and
``_replace``, is checked: ell >= 1, blocks of one length, rows in
``range(ell)``.  The states ``iter_state_matrices`` yields are built in C
by ``tuple.__new__`` and skip that check, because their blocks are drawn
from ``range(ell)`` with one length by construction; re-checking the n*k
rows of every state costs more than peeling it.
"""

import itertools
from collections import namedtuple
from typing import TYPE_CHECKING

from ibltlab.errors import ResourceGuardError, check_power

if TYPE_CHECKING:
    from fractions import Fraction

# The most state matrices, and placements of one state, that the oracle
# takes; fixed, so that each shape has one stated outcome.
ORACLE_GUARD = 10_000_000


class StateMatrix(namedtuple("StateMatrix", "ell placements")):
    """k blocks of ell rows; placements[i][j] = row of entry j in block i.

    An immutable record, compared and hashed by value, whose constructor
    checks the rows; ``_make`` and ``_replace`` go through that check too.
    """

    __slots__ = ()

    def __new__(cls, ell, placements):
        if ell < 1:
            raise ValueError(f"ell must be at least 1, got {ell}")
        n = len(placements[0]) if placements else 0
        for block in placements:
            if len(block) != n:
                raise ValueError(f"a block of {len(block)} entries beside one of {n}")
            for r in block:
                if not 0 <= r < ell:
                    raise ValueError(f"row index {r} out of range [0, {ell})")
        return super().__new__(cls, ell, placements)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def k(self) -> int:
        return len(self.placements)

    @property
    def n(self) -> int:
        return len(self.placements[0]) if self.placements else 0


class _Memo(dict):
    """A dict that fills a missing key with ``build(key)``, first emptying
    itself once it holds ``cap`` keys: a hit never leaves C, and memory
    stays bounded however many keys a shape has."""

    def __init__(self, build, cap: int):
        super().__init__()
        self.build = build
        self.cap = cap

    def __missing__(self, key):
        if len(self) >= self.cap:
            self.clear()
        value = self[key] = self.build(key)
        return value


def _partition_code(block: tuple[int, ...]) -> int:
    """The set partition ``block`` induces on its n entries, as one int:
    entry j sets bit n*i + j, where i is the first entry in j's row.  So
    each part is a bit mask in the n-bit slot of its least entry, and
    blocks that group the entries alike, and only those, get equal codes;
    each code sets exactly n bits.

    A block of one part, every block at ell = 1, is n set bits in one
    step.  Any other block sets its bits one by one, which copies the
    growing int on every entry, but the oracle's guard keeps such a block
    at n <= 23."""
    n = len(block)
    if not n or block.count(block[0]) == n:
        return (1 << n) - 1
    first = block.index
    code = 0
    for j, r in enumerate(block):
        code |= 1 << first(r) * n + j
    return code


def _residual(codes: tuple[int, ...]) -> frozenset[int]:
    """The entries left when every row that holds exactly one live entry is
    peeled until none does; ``codes`` are the k partition codes, and n is
    the first one's bit count."""
    n = codes[0].bit_count()
    alive = full = (1 << n) - 1
    rows = []
    for code in codes:
        while code:
            if code & full:
                rows.append(code & full)
            code >>= n
    peeled = True
    while peeled:
        peeled = False
        for row in rows:
            live = row & alive
            if live and not live & (live - 1):
                alive ^= live
                peeled = True
    return _entry_sets[alive]


def _entry_set(alive: int) -> frozenset[int]:
    # Read the bits from one binary string: testing ``alive >> j & 1`` for
    # each j would shift the whole mask every time, O(n**2) at ell = 1.
    return frozenset(itertools.compress(itertools.count(), map("1".__eq__, bin(alive)[:1:-1])))


class _Tails(dict):
    """Head codes -> {last block: residual}: for the states whose first
    k - 1 blocks have those partition codes, the residual of each last
    block seen.  A residual depends only on the k codes, so the dict of one
    head serves every head with equal codes, at any ell.

    It takes at most ``heads`` head codes, and its dicts store at most
    ``cap`` residuals in all, counted in ``held``: a dict of one residual
    takes about 300 bytes with its key, a residual in a big dict about 40.
    A full layer, at either cap, takes no new head codes, and past ``cap``
    residuals no dict stores more; but it is never emptied: where a
    shape's heads outnumber it, emptying and refilling it cost more than
    its hits saved (``oracle 3 7 2`` ran 17% slower than with no layer),
    while a head it turns away peels as with no layer."""

    def __init__(self, cap: int, heads: int):
        super().__init__()
        self.cap = cap
        self.heads = heads
        self.held = 0

    def clear(self) -> None:
        super().clear()
        self.held = 0


# The ell**n blocks and the tuples of partitions (at most Bell(n)**k) of
# most shapes under the guard fit.  Residuals share one frozenset per mask.
# The head layer's 2**12 dicts and 2**18 residuals, about 9 MiB full, hold
# every (head codes, last block) pair of the guard-scale ell = 7, n = 4,
# k = 2 (36,015 of them) but half of ell = 2, n = 7, k = 3: there the Python
# peel runs for 360,448 code tuples (262,144 differ), where it ran for
# 491,520 with no layer, and all the pairs would take about 19 MiB.
_codes = _Memo(_partition_code, 1 << 12)
_residuals = _Memo(_residual, 1 << 15)
_entry_sets = _Memo(_entry_set, 1 << 12)
_tails = _Tails(1 << 18, 1 << 12)

# The dict of every head that ``_tails`` turns away: every head at k = 1,
# where each enumerated state is a block of its own, and new head codes
# once the layer is full.  It is never written, so it stays empty and each
# of its lookups misses.
_NO_TAILS = {}

# The first k - 1 blocks of the last state peeled, their codes, and their
# dict of ``_tails`` or ``_NO_TAILS``.  It is replaced as one tuple and read
# once per call, and its blocks are compared by value (by identity first,
# as tuples compare items), so any state may follow any other.
_head = ((), (), _NO_TAILS)


def peel_fixpoint(sm: StateMatrix) -> set[int]:
    """Columns surviving peeling, as a new set on every call; empty iff no
    stopping sub-matrix exists."""
    global _head
    placements = sm[1]  # by position: a named field is a descriptor call
    blocks, codes, tails = _head
    head = placements[:-1]
    if head != blocks:
        codes = tuple(map(_codes.__getitem__, head))
        tails = _tails.get(codes, _NO_TAILS)
        full = len(_tails) >= _tails.heads or _tails.held >= _tails.cap
        if tails is _NO_TAILS and codes and not full:
            tails = _tails[codes] = {}
        _head = (head, codes, tails)
    try:
        last = placements[-1]
    except IndexError:  # a state of no blocks; the try is free for the rest
        return set()
    residual = tails.get(last)
    if residual is None:
        residual = _residuals[codes + (_codes[last],)]
        if tails is not _NO_TAILS and _tails.held < _tails.cap:
            tails[last] = residual
            _tails.held += 1
    return set(residual)


def contains_stopping_submatrix(sm: StateMatrix) -> bool:
    return bool(peel_fixpoint(sm))


def iter_state_matrices(ell: int, n: int, k: int):
    """All ell**(n*k) state matrices, in mixed-radix order: block 0 varies
    slowest, and within a block entry 0 does.

    With the last block fastest, each run of ell**n consecutive states
    shares its first k - 1 blocks, which ``peel_fixpoint`` uses to peel
    most states with one dict hit; that is for speed alone, and any order
    peels the same."""
    blocks = itertools.product(range(ell), repeat=n)
    # For k >= 2 the ell**n <= sqrt(states) blocks are listed once; k = 1
    # streams them, so it lists nothing.
    tuples = zip(blocks) if k == 1 else itertools.product(list(blocks), repeat=k)
    return map(tuple.__new__, itertools.repeat(StateMatrix), zip(itertools.repeat(ell), tuples))


def check_states(ell: int, n: int, k: int):
    """Raise ValueError for a nonpositive ell, n or k, and
    ResourceGuardError when the ell**(n*k) state matrices, or the n*k
    placements of one state, exceed ``ORACLE_GUARD``; ``check_power``
    refuses the states without building their count.  The placements only
    decide at ell = 1, where the one state holds them all.
    """
    if ell < 1 or n < 1 or k < 1:
        raise ValueError("ell, n and k must be positive")
    check_power(ell, n * k, ORACLE_GUARD, f"ell**(n*k) = {ell}**{n * k} state matrices")
    if n * k > ORACLE_GUARD:
        raise ResourceGuardError(
            f"n*k = {n * k} placements of a state exceed the guard of {ORACLE_GUARD}"
        )


def exact_failure_probability(ell: int, n: int, k: int) -> "Fraction":
    """Exact probability that listing fails, by full enumeration, once
    ``check_states`` lets the ell**(n*k) state matrices through."""
    from fractions import Fraction  # with decimal, loaded only when an oracle runs

    global _head
    check_states(ell, n, k)
    # Each enumeration starts with an empty head layer, so a layer that one
    # shape filled never turns away the next shape's heads.
    _tails.clear()
    _head = ((), (), _NO_TAILS)
    failing = sum(map(bool, map(peel_fixpoint, iter_state_matrices(ell, n, k))))
    return Fraction(failing, ell ** (n * k))
