"""Key-to-cell hash schemes.

A scheme maps a b-bit key to k cell indices, one per subtable; subtable i
owns the global index range [i*ell, (i+1)*ell).  Indices are 0-based
throughout (formulations that number cells from 1 correspond via g -> g+1).

Two families are provided:

* partitioned-uniform -- k independently keyed invocations of a 64-bit
  mixer, reduced modulo the subtable size.  This is the conventional
  construction: for uniform random keys every coordinate is uniform over
  its subtable and coordinates are independent across subtables.
* collision-avoiding ("ss-avoiding") -- the key is split into k
  consecutive s-bit fields, so two distinct keys can never agree on the
  full index tuple.  Requires b = s*k and ell = 2**s.

Each scheme class checks when built that ``params.kind`` names it.  The
factories ``make_partitioned_uniform`` and ``make_ss_avoiding`` are the
two classes.  Schemes are immutable after construction and safe to share
across workers; evaluation is a pure function of (scheme, key).
``indices`` is plain integer arithmetic.  The ss-avoiding scheme takes one
field shift per subtable.  The partitioned scheme mixes all k lanes in one
pass over a single int (SIMD within a register; Lamport, CACM 1975): lane
i holds ``key ^ lane_i`` in its own 128-bit slot, and the mix64 finalizer
runs once on the packed int.  Each shift right by s < 64 is masked to the low
64 bits of every slot, which drops the bits it moves down from the slot
above (they land at bit 128 - s), and each multiply is cut back to those
64 bits; a 64x64-bit product fits in 128 bits, so no carry crosses into
the next slot.  Every index is bit for bit
``i*ell + mix64(key ^ lane_i) % ell``.  The scheme keeps no list of
its lanes; each path builds its constants once, on first use, as a cached
property.  The scalar constants (``_packed``) are built on the first
``indices`` call, which packs ``lane_keys``: the trial kernel calls only
``indices_array``, and at k = 10**6 the packed ints and slots take about
170 MiB.  The numpy constants (``_array_constants``) are built on the
first ``indices_array`` call, which takes the lanes as one uint64 column
from ``lane_keys_array``, 7.6 MiB at k = 10**6, where a tuple of the k
ints took 42 MiB.  Only the vectorized ``indices_array`` uses numpy,
which it imports when called.  The partitioned scheme's
``indices_array`` reduces modulo ell with the mask ``h & (ell - 1)``
when ell is a power of two, and otherwise as
``h - h // ell * ell``; both equal ``h % ell`` on unsigned integers, and
numpy masks, or divides by a scalar, several times faster than it takes a
remainder.  The trial kernel calls ``indices_array`` once per batch of
trials (see ``_kernels_py``), and once per trial it replays.
"""

import enum
import functools
from collections import namedtuple
from typing import TYPE_CHECKING, Sequence

from ibltlab._bits import (
    KEYS_DISTINCT,
    KEYS_IID,
    MASK64,
    MUL1,
    MUL2,
    SCHEME_PARTITIONED,
    SCHEME_SS_AVOIDING,
    lane_keys,
    lane_keys_array,
    mix64_array,
)

if TYPE_CHECKING:
    import numpy as np


class HashKind(enum.Enum):
    PARTITIONED_UNIFORM = SCHEME_PARTITIONED
    SS_AVOIDING = SCHEME_SS_AVOIDING


class KeyModel(enum.Enum):
    """How simulated keys are drawn: iid uniform (repeats allowed) or
    distinct uniform."""

    IID_UNIFORM = KEYS_IID
    DISTINCT_UNIFORM = KEYS_DISTINCT


class HashParams(namedtuple("HashParams", "k ell b seed kind")):
    """Shape of a hash scheme: k subtables of ell cells, b-bit keys.

    An immutable record, compared and hashed by value, whose constructor
    checks the shape; ``_make`` and ``_replace`` go through that check too.
    """

    __slots__ = ()

    def __new__(cls, k, ell, b, seed=0, kind=HashKind.PARTITIONED_UNIFORM):
        # Lanes mix only the seed's low 64 bits, so any other seed would
        # hash exactly like one inside the range.
        if not 0 <= seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if k < 1 or ell < 1 or b < 1:
            raise ValueError("k, ell and b must be positive")
        if b > 64:
            raise ValueError("keys wider than 64 bits are not supported")
        if kind is HashKind.SS_AVOIDING:
            if b % k != 0:
                raise ValueError("ss-avoiding needs b = s*k for integer s")
            s = b // k
            if ell != 1 << s:
                raise ValueError(
                    f"ss-avoiding needs ell = 2**(b/k) = {1 << s}, got {ell}"
                )
        return super().__new__(cls, k, ell, b, seed, kind)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def m(self) -> int:
        return self.k * self.ell


# Bits per lane of the packed hash in PartitionedUniformScheme.indices.
_SLOT = 128


def _pack(values: Sequence[int]) -> int:
    """The int whose slot i, bits [128*i, 128*i + 128), holds values[i]."""
    return int.from_bytes(b"".join(v.to_bytes(_SLOT // 8, "little") for v in values), "little")


class PartitionedUniformScheme:
    """k keyed mixers, one per subtable, each reduced modulo ell.

    The mixer output is 64 bits wide before the modulo, so the reduction
    bias is at most ell * 2**-64.
    """

    def __init__(self, params: HashParams):
        if params.kind is not HashKind.PARTITIONED_UNIFORM:
            raise ValueError(f"params.kind is {params.kind}, expected PARTITIONED_UNIFORM")
        self.params = params
        self.k = params.k
        self.ell = params.ell
        self.b = params.b
        self.m = params.m

    @functools.cached_property
    def _packed(self) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
        """``(ones, packed lanes, m64, slots)``, built by the first
        ``indices`` call.  Lane i owns bits [128*i, 128*i + 128) of one
        packed int; see the module docstring.  `ones` has a 1 at the bottom
        of every slot, and `m64` the low 64 bits of every slot set, each
        built in one pass; `slots` holds the (first cell, slot shift) of
        each subtable."""
        ones = _pack([1] * self.k)
        slots = tuple((i * self.ell, _SLOT * i) for i in range(self.k))
        return ones, _pack(lane_keys(self.params.seed, self.k)), MASK64 * ones, slots

    def indices(self, key: int) -> tuple[int, ...]:
        # mix64(key ^ lane) of every lane in one pass over the packed int.
        ones, packed_lanes, m64, slots = self._packed
        x = (key & MASK64) * ones ^ packed_lanes
        x ^= x >> 30 & m64
        x = x * MUL1 & m64
        x ^= x >> 27 & m64
        x = x * MUL2 & m64
        x ^= x >> 31 & m64
        ell = self.ell
        cells = []
        for offset, shift in slots:
            cells.append(offset + (x >> shift & MASK64) % ell)
        return tuple(cells)

    @functools.cached_property
    def _array_constants(self):
        """The lane and offset columns, ell as a numpy scalar, and the mask
        ell - 1 when ell is a power of two (else None)."""
        import numpy as np

        lanes = lane_keys_array(self.params.seed, self.k)[:, None]
        offsets = np.arange(0, self.m, self.ell, dtype=np.uint64)[:, None]
        mask = np.uint64(self.ell - 1) if self.ell & (self.ell - 1) == 0 else None
        return lanes, offsets, np.uint64(self.ell), mask

    def indices_array(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorized indices: shape (k, len(keys)), dtype int64."""
        import numpy as np

        lanes, offsets, ell, mask = self._array_constants
        keys = keys.astype(np.uint64, copy=False)
        hashed = mix64_array(keys[None, :] ^ lanes)
        # hashed % ell, see the module docstring.
        if mask is None:
            hashed -= hashed // ell * ell
        else:
            hashed &= mask
        hashed += offsets
        return hashed.view(np.int64)


class SsAvoidingScheme:
    """The key split into k fields of s bits, most significant first.

    Field i (counting from the most significant end) addresses subtable i,
    so the global index is q_i + i * 2**s.  Distinct b-bit keys differ in
    at least one field, so no two share their index tuple.

    ``params.kind`` must be SS_AVOIDING.
    """

    def __init__(self, params: HashParams):
        if params.kind is not HashKind.SS_AVOIDING:
            raise ValueError(f"params.kind is {params.kind}, expected SS_AVOIDING")
        self.params = params
        self.k = params.k
        self.ell = params.ell
        self.b = params.b
        self.m = params.m
        self.s = params.b // params.k
        # (first cell, field shift) of each subtable.
        self._subtables = tuple(
            (i * self.ell, self.s * (self.k - 1 - i)) for i in range(self.k)
        )

    def indices(self, key: int) -> tuple[int, ...]:
        mask = self.ell - 1
        cells = []
        for offset, shift in self._subtables:
            cells.append(offset + ((key >> shift) & mask))
        return tuple(cells)

    @functools.cached_property
    def _array_constants(self):
        """The shift and offset columns, and the field mask as a numpy scalar."""
        import numpy as np

        shifts = np.array([s for _, s in self._subtables], dtype=np.uint64)[:, None]
        offsets = np.arange(0, self.m, self.ell, dtype=np.uint64)[:, None]
        return shifts, offsets, np.uint64(self.ell - 1)

    def indices_array(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorized indices: shape (k, len(keys)), dtype int64."""
        import numpy as np

        shifts, offsets, mask = self._array_constants
        fields = keys.astype(np.uint64, copy=False)[None, :] >> shifts
        fields &= mask
        fields += offsets
        return fields.view(np.int64)


class ExplicitScheme:
    """Scheme backed by an explicit key -> cells table.

    Used to construct collisions and to realize arbitrary incidence
    patterns in tests; never produced by the factory functions.
    """

    def __init__(self, ell: int, k: int, mapping: dict[int, Sequence[int]], b: int = 32):
        self.ell = ell
        self.k = k
        self.b = b
        self.m = ell * k
        self._mapping = {key: tuple(cells) for key, cells in mapping.items()}
        for key, cells in self._mapping.items():
            if len(cells) != k:
                raise ValueError(f"key {key} maps to {len(cells)} cells, expected {k}")

    def indices(self, key: int) -> tuple[int, ...]:
        return self._mapping[key]


make_partitioned_uniform = PartitionedUniformScheme
make_ss_avoiding = SsAvoidingScheme
