"""Frozen reference values, and plain reference implementations, shared by
the unit and acceptance tests."""

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, perm, prod

from ibltlab._bits import lane_keys, mix64, stream_output
from ibltlab.table import GetStatus, ListingStatus

# Exact stopping-matrix counts for subtable sizes 1..10 (rows) and column
# counts 1..10 (columns).  Every value has been cross-checked against
# literal brute-force enumeration of all ell**n column-weight-one matrices.
STOPPING_COUNTS_10X10 = [
    [0, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 2, 2, 8, 22, 52, 114, 240, 494, 1004],
    [0, 3, 3, 21, 63, 243, 969, 3657, 12987, 43959],
    [0, 4, 4, 40, 124, 664, 3196, 15712, 79228, 396616],
    [0, 5, 5, 65, 205, 1405, 7425, 44385, 271205, 1666925],
    [0, 6, 6, 96, 306, 2556, 14286, 100176, 691146, 4916436],
    [0, 7, 7, 133, 427, 4207, 24409, 196105, 1471519, 11773699],
    [0, 8, 8, 176, 568, 6448, 38424, 347712, 2775032, 24547664],
    [0, 9, 9, 225, 729, 9369, 56961, 573057, 4794633, 46341081],
    [0, 10, 10, 280, 910, 13060, 80650, 892720, 7753510, 81163900],
]


def is_stopping_matrix(rows):
    """True iff no row has Hamming weight exactly 1 (any binary matrix)."""
    return all(sum(row) != 1 for row in rows)


def matrix_from_columns(ell, cols):
    """Materialize a column-weight-one matrix from its column row-indices."""
    cols = list(cols)
    rows = [[0] * len(cols) for _ in range(ell)]
    for j, r in enumerate(cols):
        rows[r][j] = 1
    return rows


def inclusion_exclusion_row(ell: int, n_max: int) -> list[int]:
    """count(ell, n) for n = 0..n_max, by the inclusion-exclusion closed form

        count(ell, n) = sum_{c=0..min(ell,n)} (-1)^c C(ell,c) n!/(n-c)! (ell-c)^(n-c)

    over the rows forced to weight 1: a signed sum, independent of the
    census's positive recurrence over occupied rows.

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


def partitioned_indices(params, key):
    """The partitioned-uniform contract, one lane at a time: cell
    ``i*ell + mix64(key ^ lane_i) % ell`` of subtable i."""
    lanes = lane_keys(params.seed, params.k)
    return tuple(i * params.ell + mix64(key ^ lane) % params.ell for i, lane in enumerate(lanes))


def peel_cells(ell, placements):
    """Columns left when peeling a state matrix one cell at a time.

    ``placements[i][j]`` is the row of entry j in block i.  Cell counts and
    column sums find each cell that holds one live entry, which is then
    removed from all of its cells; an independent check of the oracle's
    memoised peel.
    """
    k, n = len(placements), len(placements[0])
    count = [0] * (ell * k)
    colsum = [0] * (ell * k)
    for i, block in enumerate(placements):
        for j, r in enumerate(block):
            count[i * ell + r] += 1
            colsum[i * ell + r] += j
    alive = [True] * n
    stack = [c for c in range(ell * k) if count[c] == 1]
    while stack:
        c = stack.pop()
        if count[c] != 1:
            continue
        j = colsum[c]  # the lone remaining column in this cell
        alive[j] = False
        for i, block in enumerate(placements):
            ci = i * ell + block[j]
            count[ci] -= 1
            colsum[ci] -= j
            if count[ci] == 1:
                stack.append(ci)
    return {j for j in range(n) if alive[j]}


def stream_pairs(state, n, mask, distinct):
    """One trial's key-value pairs, read off its stream in the documented
    order: key, value, key, value, ...; under distinct keys a repeated key
    candidate consumes one output and is drawn again.  Also returns the
    number of rejected candidates."""
    pairs, seen, j = [], set(), 0
    while len(pairs) < n:
        x = stream_output(state, j) & mask
        j += 1
        if distinct and x in seen:
            continue
        seen.add(x)
        pairs.append((x, stream_output(state, j) & mask))
        j += 1
    return pairs, j - 2 * n


def batch_work(m, tables):
    """The trial kernel's work meter for one batch, without its replays.

    ``tables[r][j]`` holds the cells, in [0, m), of entry j of the batch's
    trial r.  The batch costs its entry cells once, and then each round of
    a plain round-by-round peel costs the batch's cells plus the cells of
    its live entries; a round drops every live entry alone in one of its
    cells, and the peel stops after a round that drops nothing.
    """
    live = [(r, cells) for r, table in enumerate(tables) for cells in table]
    work = sum(len(cells) for _, cells in live)
    while live:
        work += len(tables) * m + sum(len(cells) for _, cells in live)
        counts = Counter((r, c) for r, cells in live for c in cells)
        kept = [(r, cells) for r, cells in live if all(counts[r, c] > 1 for c in cells)]
        if len(kept) == len(live):
            break
        live = kept
    return work


def restricted_growth_strings(n, parts):
    """Every set partition of range(n) into at most ``parts`` parts, as its
    restricted growth string: s[0] = 0 and s[j] <= 1 + max(s[:j]), so the
    parts are numbered in the order of their least entries.  Read as a
    block of rows, each string is one block that induces its partition."""
    s = [0] * n
    while True:
        yield tuple(s)
        j = n - 1
        while j > 0 and s[j] >= min(parts - 1, max(s[:j]) + 1):
            j -= 1
        if j <= 0:
            return
        s[j] += 1
        s[j + 1 :] = [0] * (n - 1 - j)


def integer_partitions(n, parts):
    """The partitions of n into at most ``parts`` parts, each a
    nonincreasing tuple of part sizes."""
    # (sizes so far, what is left, the largest size allowed next)
    stack = [((), n, n)]
    while stack:
        sizes, left, largest = stack.pop()
        if not left:
            yield sizes
        elif len(sizes) < parts:
            for size in range(1, min(left, largest) + 1):
                stack.append((sizes + (size,), left - size, size))


def weighted_failure_probability(ell, n, k):
    """The oracle's exact listing failure probability, over weighted tuples
    of set partitions instead of the ell**(n*k) state matrices.

    Peeling sees a block only through the set partition it induces on the
    n entries, and a partition of p parts comes from ff(ell, p) blocks.
    Whether peeling fails is unchanged when the entries are relabelled or
    the blocks reordered.  So the first block runs over the integer
    partition types of n with at most ell parts, one canonical set
    partition each, weighted by the n!/(prod sizes! prod multiplicities!)
    set partitions of that type; blocks 2..k run over multisets of
    restricted growth strings, weighted by the multinomial of their
    multiplicities.  Exact integers throughout (Stanley, *Enumerative
    Combinatorics* Vol. 1, ch. 1 and 3)."""
    blocks = list(restricted_growth_strings(n, ell))
    failing = 0
    for sizes in integer_partitions(n, ell):
        first = tuple(part for part, size in enumerate(sizes) for _ in range(size))
        of_type = factorial(n) // prod(map(factorial, sizes))
        of_type //= prod(map(factorial, Counter(sizes).values()))
        for rest in itertools.combinations_with_replacement(blocks, k - 1):
            if peel_cells(ell, (first, *rest)):
                orders = factorial(k - 1) // prod(map(factorial, Counter(rest).values()))
                rows = prod(perm(ell, max(block) + 1) for block in (first, *rest))
                failing += of_type * orders * rows
    return Fraction(failing, ell ** (n * k))


class ThreeListTable:
    """An IBLT in its first layout: a count list, a key-sum list and a
    value-sum list, updated one field at a time.  ``Iblt`` must match it
    cell for cell, and result for result, as tuples."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.counts = [0] * scheme.m
        self.key_sums = [0] * scheme.m
        self.value_sums = [0] * scheme.m

    def update(self, x, y, sign):
        """Insert (x, y) with sign 1, delete it with sign -1."""
        mask = (1 << self.scheme.b) - 1
        if not 0 <= x <= mask or not 0 <= y <= mask:
            raise ValueError(f"key/value must be {self.scheme.b}-bit values")
        for c in self.scheme.indices(x):
            self.counts[c] += sign
            self.key_sums[c] ^= x
            self.value_sums[c] ^= y

    def cells(self):
        return list(zip(self.counts, self.key_sums, self.value_sums))

    def nonzero_cells(self):
        return sum(map(any, self.cells()))

    def get(self, x):
        cells = self.scheme.indices(x)
        if any(self.counts[c] == 0 for c in cells):
            return (GetStatus.ABSENT, None)
        for c in cells:
            if self.counts[c] == 1 and self.key_sums[c] == x:
                return (GetStatus.FOUND, self.value_sums[c])
        return (GetStatus.INCONCLUSIVE, None)

    def list_entries_inplace(self):
        """Peel count-1 cells, last in first out, as ``Iblt`` does."""
        entries = set()
        stack = [c for c, count in enumerate(self.counts) if count == 1]
        while stack:
            c = stack.pop()
            x, y = self.key_sums[c], self.value_sums[c]
            if self.counts[c] != 1 or c not in self.scheme.indices(x):
                continue
            entries.add((x, y))
            self.update(x, y, -1)
            stack.extend(ci for ci in self.scheme.indices(x) if self.counts[ci] == 1)
        residual = self.nonzero_cells()
        status = ListingStatus.COMPLETE if residual == 0 else ListingStatus.PARTIAL
        return (frozenset(entries), status, residual)


class Unpowered(int):
    """An integer that fails the test if a guard raises it to a power."""

    def __pow__(self, exponent):
        raise AssertionError(f"built {int(self)}**{exponent}")
