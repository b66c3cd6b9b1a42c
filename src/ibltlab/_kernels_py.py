"""The numpy kernels: brute-force stopping-matrix enumeration and the
Monte Carlo trial loop.

Keys come from the counter streams of ``_bits`` and cell indices from the
hash schemes of ``hashing``, so the kernel holds no hash layout of its own.
"""

import numpy as np

from ibltlab._bits import (
    KEYS_DISTINCT,
    MASK64,
    PHI64,
    SCHEME_PARTITIONED,
    mix64,
    mix64_array,
    trial_state,
)
from ibltlab.hashing import (
    HashKind,
    HashParams,
    PartitionedUniformScheme,
    SsAvoidingScheme,
)


def count_stopping_matrices(ell: int, n: int) -> int:
    """Count stopping matrices by enumerating all ell**n column placements.

    Matrices are generated as chunks of mixed-radix column indices; a
    matrix stops when no row value occurs exactly once, detected on the
    sorted columns (a lone value differs from both neighbors).
    """
    if n == 0:
        return 1
    if n == 1:
        return 0  # every single weight-one column is itself a weight-1 row
    total = ell**n
    powers = ell ** np.arange(n, dtype=np.int64)
    chunk = 1 << 15
    count = 0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cols = (idx[:, None] // powers) % ell
        cols.sort(axis=1)
        neq = cols[:, 1:] != cols[:, :-1]
        has_single = neq[:, 0] | neq[:, -1]
        if n > 2:
            has_single |= (neq[:, :-1] & neq[:, 1:]).any(axis=1)
        count += int((~has_single).sum())
    return count


def _distinct_keys_replay(state: int, n: int, mask: int) -> list[int]:
    """Sequential key draw with rejection: the stream order behind distinct keys.

    Per entry: draw key candidates until unseen (each rejection consumes
    one stream output), then consume one output for the value.
    """
    keys: list[int] = []
    seen = set()
    ctr = 0
    for _ in range(n):
        while True:
            ctr += 1
            x = mix64((state + ctr * PHI64) & MASK64) & mask
            if x not in seen:
                break
        seen.add(x)
        keys.append(x)
        ctr += 1  # value draw
    return keys


def run_trials(
    seed: int,
    t_lo: int,
    t_hi: int,
    n: int,
    ell: int,
    k: int,
    b: int,
    scheme: int,
    key_model: int,
) -> tuple[int, int]:
    """Run listing trials [t_lo, t_hi); returns (failures, size-2 residuals).

    A trial draws n key-value pairs from the trial's counter stream,
    builds the table, peels to fixpoint, and fails when any entry is left
    unrecovered.  The second counter is the number of failing trials with
    exactly two entries left, which at fixpoint forces their index tuples
    to coincide.
    """
    mask = (1 << b) - 1
    m = ell * k
    steps = np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(PHI64)
    np_mask = np.uint64(mask)
    if scheme == SCHEME_PARTITIONED:
        hasher = PartitionedUniformScheme(HashParams(k, ell, b, seed))
    else:
        params = HashParams(k, ell, b, seed, HashKind.SS_AVOIDING)
        hasher = SsAvoidingScheme(params, None)

    failures = 0
    two_left = 0
    for t in range(t_lo, t_hi):
        st = trial_state(seed, t)
        outs = mix64_array(np.uint64(st) + steps)
        keys = outs[0::2] & np_mask
        if key_model == KEYS_DISTINCT and np.unique(keys).size != n:
            keys = np.array(_distinct_keys_replay(st, n, mask), dtype=np.uint64)
        idx = hasher.indices_array(keys)

        counts = [0] * m
        key_sums = [0] * m
        cells_of = {}
        key_list = keys.tolist()
        cell_lists = idx.T.tolist()
        for j in range(n):
            x = key_list[j]
            cs = cell_lists[j]
            cells_of[x] = cs
            for c in cs:
                counts[c] += 1
                key_sums[c] ^= x
        stack = [c for c in range(m) if counts[c] == 1]
        recovered = 0
        while stack:
            c = stack.pop()
            if counts[c] != 1:
                continue
            x = key_sums[c]
            recovered += 1
            for ci in cells_of[x]:
                counts[ci] -= 1
                key_sums[ci] ^= x
                if counts[ci] == 1:
                    stack.append(ci)
        left = n - recovered
        if left > 0:
            failures += 1
            if left == 2:
                two_left += 1
    return failures, two_left
