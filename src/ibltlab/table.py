"""The invertible lookup table: insert, delete, get, and peeling-based listing.

Each cell holds a signed count, a key XOR-accumulator and a value
XOR-accumulator.  Updates form an abelian group, so any interleaving of
inserts and deletes of the same multiset produces the same table, and the
table of a union is the cellwise combination of the tables.
"""

import enum
from typing import NamedTuple


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
    listing hashes once per count-1 cell it tries.

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
        self.scheme = scheme
        self.m = scheme.m
        self._mask = (1 << scheme.b) - 1
        self._counts = [0] * self.m
        self._key_sums = [0] * self.m
        self._value_sums = [0] * self.m

    def _check(self, x: int, y: int):
        if not 0 <= x <= self._mask or not 0 <= y <= self._mask:
            raise ValueError(f"key/value must be {self.scheme.b}-bit values")

    def insert(self, x: int, y: int):
        """Add the pair (x, y); touches exactly k cells."""
        self._check(x, y)
        counts, key_sums, value_sums = self._counts, self._key_sums, self._value_sums
        for c in self.scheme.indices(x):
            counts[c] += 1
            key_sums[c] ^= x
            value_sums[c] ^= y

    def delete(self, x: int, y: int):
        """Exact inverse of insert; no membership check, counts may go negative."""
        self._check(x, y)
        counts, key_sums, value_sums = self._counts, self._key_sums, self._value_sums
        for c in self.scheme.indices(x):
            counts[c] -= 1
            key_sums[c] ^= x
            value_sums[c] ^= y

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
        key_sums = self._key_sums
        for c in cells:
            if counts[c] == 1 and key_sums[c] == x:
                return GetResult(GetStatus.FOUND, self._value_sums[c])
        return _INCONCLUSIVE

    def cell(self, i: int) -> Cell:
        return Cell(self._counts[i], self._key_sums[i], self._value_sums[i])

    def cells(self) -> list[Cell]:
        return [self.cell(i) for i in range(self.m)]

    def nonzero_cells(self) -> int:
        return sum(map(any, zip(self._counts, self._key_sums, self._value_sums)))

    def is_empty(self) -> bool:
        return self.nonzero_cells() == 0

    def copy(self) -> "Iblt":
        dup = Iblt.__new__(Iblt)
        dup.scheme = self.scheme
        dup.m = self.m
        dup._mask = self._mask
        dup._counts = self._counts[:]
        dup._key_sums = self._key_sums[:]
        dup._value_sums = self._value_sums[:]
        return dup

    def __eq__(self, other):
        if not isinstance(other, Iblt):
            return NotImplemented
        return (
            self._counts == other._counts
            and self._key_sums == other._key_sums
            and self._value_sums == other._value_sums
        )

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
        counts, key_sums, value_sums = self._counts, self._key_sums, self._value_sums
        indices = self.scheme.indices
        entries = set()
        stack = [c for c, count in enumerate(counts) if count == 1]
        while stack:
            c = stack.pop()
            if counts[c] != 1:
                continue
            x = key_sums[c]
            try:
                cells = indices(x)
            except KeyError:  # x is no key of an ExplicitScheme: impure
                continue
            if c not in cells:  # several keys net to a count of 1: impure
                continue
            y = value_sums[c]
            entries.add((x, y))
            for ci in cells:
                counts[ci] -= 1
                key_sums[ci] ^= x
                value_sums[ci] ^= y
                if counts[ci] == 1:
                    stack.append(ci)
        residual = self.nonzero_cells()
        status = ListingStatus.COMPLETE if residual == 0 else ListingStatus.PARTIAL
        return ListingResult(frozenset(entries), status, residual)
