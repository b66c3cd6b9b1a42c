"""The invertible lookup table: insert, delete, get, and peeling-based listing.

Each cell holds a signed count, a key XOR-accumulator and a value
XOR-accumulator.  Updates form an abelian group, so any interleaving of
inserts and deletes of the same multiset produces the same table, and the
table of a union is the cellwise combination of the tables.

The table stores the counts in one list of small ints and both sums in a
second list of one word per cell: ``key_sum << b | value_sum``, the XOR of
``x << b | y`` over the cell's pairs.  So an update is one XOR per cell,
not two, and a further XOR field, such as a checksum of the keys, can join
that word rather than add a list.  ``Cell`` still reports the three fields.
The counts stay apart: packed into the word too, every count test of
``get`` and of the peel would read a wide int instead of a cached small
one, and ``get`` measured 14-30% slower that way.
"""

import enum
from typing import NamedTuple

from ibltlab.errors import ResourceGuardError

# The most hash functions a table takes.  The partitioned scheme's scalar
# ``indices``, one call per insert, delete and get, costs O(k**2) per key
# (each shift copies the whole packed int): 19-20 us per call at k = 64
# against 1.1 us at k = 3, 55 us at k = 128 and 155 us at k = 256 (2-core
# x86 VM, CPython 3.11).  64 admits every ss-avoiding shape, whose k
# divides b <= 64.
TABLE_K_GUARD = 64


class Cell(NamedTuple):
    count: int
    key_sum: int
    value_sum: int


class GetStatus(enum.Enum):
    FOUND = "found"
    ABSENT = "absent"
    INCONCLUSIVE = "inconclusive"


class GetResult(NamedTuple):
    status: GetStatus
    value: int | None


# The two valueless results, shared by every get that returns one.
_ABSENT = GetResult(GetStatus.ABSENT, None)
_INCONCLUSIVE = GetResult(GetStatus.INCONCLUSIVE, None)


class ListingStatus(enum.Enum):
    COMPLETE = "complete"
    PARTIAL = "partial"


class ListingResult(NamedTuple):
    entries: frozenset
    status: ListingStatus
    residual_cells: int

    @property
    def complete(self) -> bool:
        return self.status is ListingStatus.COMPLETE


class Iblt:
    """Cell array driven by a hash scheme (anything with k, m, b and indices()).

    A table is single-writer; concurrent reads of an unchanging table are
    safe.  An all-zero table represents the empty set.  Insert, delete and
    get each hash their key once, with one ``scheme.indices`` call, and
    listing hashes once per count-1 cell it tries.  A cell is stored as a
    count and one word ``key_sum << b | value_sum`` (see the module
    docstring); ``cell`` and ``cells`` split the word back into fields.

    Results are certain only while the table holds pairs that were
    inserted.  Deleting a pair that was never inserted (a non-member)
    leaves cells with negative counts, or with several keys under a net
    count of 1.  Listing peels a count-1 cell only when its key sum hashes
    to that cell, the purity test of Goodrich and Mitzenmacher
    (arXiv:1101.2245).  Under the partitioned-uniform scheme most such
    cells stay in the residual, but a key sum that happens to be a key
    hashing to its cell passes, so a listed pair is then likely, not
    certain.  Under the ss-avoiding scheme the test rejects no cell
    holding an odd number of keys: keys that share a cell agree on that
    subtable's field, so their XOR does too and hashes back to the cell,
    and listing may return pairs that were never inserted.  ``get`` may
    then return ABSENT for a stored key or FOUND with a wrong value.
    """

    def __init__(self, scheme):
        """Raises ResourceGuardError, before any cell is allocated, when
        ``scheme.k`` exceeds ``TABLE_K_GUARD``."""
        if scheme.k > TABLE_K_GUARD:
            raise ResourceGuardError(
                f"k = {scheme.k} hash functions exceed the table's guard of {TABLE_K_GUARD}"
            )
        self.scheme = scheme
        self.m = scheme.m
        self._b = scheme.b
        self._mask = (1 << scheme.b) - 1
        self._counts = [0] * self.m
        self._sums = [0] * self.m

    def insert(self, x: int, y: int):
        """Add the pair (x, y); touches exactly k cells."""
        b = self._b
        if (x | y) >> b:  # nonzero when x or y is negative or wider than b bits
            raise ValueError(f"key/value must be {b}-bit values")
        xy = x << b | y
        counts, sums = self._counts, self._sums
        for c in self.scheme.indices(x):
            counts[c] += 1
            sums[c] ^= xy

    def delete(self, x: int, y: int):
        """Exact inverse of insert; no membership check, counts may go negative."""
        b = self._b
        if (x | y) >> b:
            raise ValueError(f"key/value must be {b}-bit values")
        xy = x << b | y
        counts, sums = self._counts, self._sums
        for c in self.scheme.indices(x):
            counts[c] -= 1
            sums[c] ^= xy

    def get(self, x: int) -> GetResult:
        """Look up the value stored under key x.

        Any count-0 cell proves absence.  A count-1 cell yields the value
        only when its key accumulator equals x; a count-1 cell reachable
        from x but holding a different entry is reported INCONCLUSIVE
        rather than returned as a wrong value.
        """
        cells = self.scheme.indices(x)
        counts = self._counts
        for c in cells:
            if counts[c] == 0:
                return _ABSENT
        sums, b = self._sums, self._b
        for c in cells:
            if counts[c] == 1 and sums[c] >> b == x:
                return GetResult(GetStatus.FOUND, sums[c] & self._mask)
        return _INCONCLUSIVE

    def cell(self, i: int) -> Cell:
        xy = self._sums[i]
        return Cell(self._counts[i], xy >> self._b, xy & self._mask)

    def cells(self) -> list[Cell]:
        b, mask = self._b, self._mask
        return [Cell(count, xy >> b, xy & mask) for count, xy in zip(self._counts, self._sums)]

    def nonzero_cells(self) -> int:
        return sum(map(any, zip(self._counts, self._sums)))

    def is_empty(self) -> bool:
        return self.nonzero_cells() == 0

    def copy(self) -> "Iblt":
        dup = Iblt.__new__(Iblt)
        dup.scheme = self.scheme
        dup.m = self.m
        dup._b = self._b
        dup._mask = self._mask
        dup._counts = self._counts[:]
        dup._sums = self._sums[:]
        return dup

    def __eq__(self, other):
        if not isinstance(other, Iblt):
            return NotImplemented
        return self._counts == other._counts and self._sums == other._sums

    def list_entries(self) -> ListingResult:
        """Recover all stored pairs by peeling count-1 cells; non-mutating.

        While no non-member has been deleted, the final status and the
        recovered set do not depend on the order of the peels.
        """
        return self.copy().list_entries_inplace()

    def list_entries_inplace(self) -> ListingResult:
        """Destructive listing: recovered pairs are deleted from this table.

        Count-1 cells wait on one stack, last in first out.
        """
        counts, sums, b, mask = self._counts, self._sums, self._b, self._mask
        indices = self.scheme.indices
        # A list, not a set: frozenset() would copy a set's hash table, and
        # both tables would be held at once.
        entries = []
        stack = [c for c, count in enumerate(counts) if count == 1]
        while stack:
            c = stack.pop()
            if counts[c] != 1:
                continue
            xy = sums[c]
            x = xy >> b
            try:
                cells = indices(x)
            except KeyError:  # x is no key of an ExplicitScheme: impure
                continue
            if c not in cells:  # several keys net to a count of 1: impure
                continue
            entries.append((x, xy & mask))
            for ci in cells:
                counts[ci] -= 1
                sums[ci] ^= xy
                if counts[ci] == 1:
                    stack.append(ci)
        residual = self.nonzero_cells()
        status = ListingStatus.COMPLETE if residual == 0 else ListingStatus.PARTIAL
        return ListingResult(frozenset(entries), status, residual)
