"""Key-to-cell hash schemes.

A scheme maps a b-bit key to k cell indices, one per subtable; subtable i
owns the global index range [i*ell, (i+1)*ell).  Indices are 0-based
throughout (formulations that number cells from 1 correspond via g -> g+1).

Two families are provided:

* partitioned-uniform -- k independently keyed invocations of a 64-bit
  mixer, reduced modulo the subtable size.  This is the conventional
  construction: for uniform random keys every coordinate is uniform over
  its subtable and coordinates are independent across subtables.
* collision-avoiding ("ss-avoiding") -- a bijection of the key is split
  into k consecutive s-bit fields, so two distinct keys can never agree on
  the full index tuple.  Requires b = s*k and ell = 2**s.

Each scheme class checks its parameters when built: ``params.kind`` must
name it, and a custom bijection is spot-checked.  The factories
``make_partitioned_uniform`` and ``make_ss_avoiding`` are the two classes.
Schemes are immutable after construction and safe to share across workers;
evaluation is a pure function of (scheme, key).  ``indices`` is plain
integer arithmetic, one step per subtable over (first cell, lane key or
field shift) pairs built with the scheme; only the vectorized
``indices_array`` uses numpy, which it imports when called.  A scheme
builds its numpy constants once, on its first ``indices_array`` call.  The
partitioned scheme's ``indices_array`` reduces modulo ell as
``h - h // ell * ell``, equal to ``h % ell`` on unsigned integers, because
numpy divides by a scalar several times faster than it takes a remainder.
"""

import enum
import functools
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Sequence

from ibltlab._bits import lane_keys, mix64, mix64_array

if TYPE_CHECKING:
    import numpy as np


class HashKind(enum.Enum):
    PARTITIONED_UNIFORM = "partitioned-uniform"
    SS_AVOIDING = "ss-avoiding"


class KeyModel(enum.Enum):
    """How simulated keys are drawn: iid uniform (repeats allowed) or
    distinct uniform."""

    IID_UNIFORM = "iid"
    DISTINCT_UNIFORM = "distinct"


class HashParams(namedtuple("HashParams", "k ell b seed kind")):
    """Shape of a hash scheme: k subtables of ell cells, b-bit keys.

    An immutable record, compared and hashed by value, whose constructor
    checks the shape; ``_make`` and ``_replace`` go through that check too.
    """

    __slots__ = ()

    def __new__(cls, k, ell, b, seed=0, kind=HashKind.PARTITIONED_UNIFORM):
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
        self._lanes = lane_keys(params.seed, params.k)
        # (first cell, lane key) of each subtable.
        self._subtables = tuple(zip(range(0, self.m, self.ell), self._lanes))

    def indices(self, key: int) -> tuple[int, ...]:
        ell = self.ell
        cells = []
        for offset, lane in self._subtables:
            cells.append(offset + mix64(key ^ lane) % ell)
        return tuple(cells)

    @functools.cached_property
    def _array_constants(self):
        """The lane and offset columns, and ell as a numpy scalar."""
        import numpy as np

        lanes = np.array(self._lanes, dtype=np.uint64)[:, None]
        offsets = np.arange(0, self.m, self.ell, dtype=np.uint64)[:, None]
        return lanes, offsets, np.uint64(self.ell)

    def indices_array(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorized indices: shape (k, len(keys)), dtype int64."""
        import numpy as np

        lanes, offsets, ell = self._array_constants
        keys = keys.astype(np.uint64, copy=False)
        hashed = mix64_array(keys[None, :] ^ lanes)
        hashed -= hashed // ell * ell  # hashed % ell, see the module docstring
        hashed += offsets
        return hashed.view(np.int64)


class SsAvoidingScheme:
    """Bijection output split into k fields of s bits, most significant first.

    Field i (counting from the most significant end) addresses subtable i,
    so the global index is q_i + i * 2**s.  Tuple injectivity follows from
    the bijection: distinct keys always differ in at least one field.

    ``params.kind`` must be SS_AVOIDING.  ``bijection`` must permute b-bit
    values; None means the identity map.  A custom bijection gets a
    deterministic spot-check (distinct outputs in range over a key sample)
    -- cheap insurance, not a proof.
    """

    def __init__(self, params: HashParams, bijection: Callable[[int], int] | None = None):
        if params.kind is not HashKind.SS_AVOIDING:
            raise ValueError(f"params.kind is {params.kind}, expected SS_AVOIDING")
        if bijection is not None:
            limit = 1 << params.b
            sample = range(limit) if limit <= 512 else (
                (mix64(i) % limit) for i in range(512)
            )
            seen = {}
            for x in sample:
                y = bijection(x)
                if not 0 <= y < limit:
                    raise ValueError(f"bijection({x}) = {y} is not a {params.b}-bit value")
                if y in seen and seen[y] != x:
                    raise ValueError(f"bijection collides: {seen[y]} and {x} -> {y}")
                seen[y] = x
        self.params = params
        self.k = params.k
        self.ell = params.ell
        self.b = params.b
        self.m = params.m
        self.s = params.b // params.k
        self._bijection = bijection
        # (first cell, field shift) of each subtable.
        self._subtables = tuple(
            (i * self.ell, self.s * (self.k - 1 - i)) for i in range(self.k)
        )

    def indices(self, key: int) -> tuple[int, ...]:
        y = key if self._bijection is None else self._bijection(key)
        mask = self.ell - 1
        cells = []
        for offset, shift in self._subtables:
            cells.append(offset + ((y >> shift) & mask))
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
        if self._bijection is None:
            y = keys.astype(np.uint64, copy=False)
        else:
            y = np.array([self._bijection(int(x)) for x in keys], dtype=np.uint64)
        fields = y[None, :] >> shifts
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
