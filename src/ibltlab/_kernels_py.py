"""The numpy kernels: brute-force stopping-matrix enumeration and the
Monte Carlo trial loop.

Keys come from the counter streams of ``_bits`` and cell indices from the
hash schemes of ``hashing``, so the kernel holds no hash layout of its own.
This is the one module that imports numpy when it is imported; ``census``
and ``simulate`` import it only where they call it, so the package starts
without numpy.

The trial loop peels a batch of trials at once.  Their tables sit side by
side in one cell array, and each round counts the live entries per cell
with ``np.bincount`` and drops every live entry that has a cell of count
one.  Peeling is confluent: any order of peels ends at the same fixpoint,
the largest stopping set, so the rounds leave exactly the entries a
one-cell-at-a-time peeler leaves (Jiang, Mitzenmacher and Thaler,
"Parallel Peeling Algorithms", arXiv:1302.7014).  A batch holds about
``BATCH_CELLS`` cells and entry cells, which bounds its memory; a table
wider than that runs one trial per batch.
"""

import numpy as np

from ibltlab._bits import (
    KEYS_DISTINCT,
    MASK64,
    PHI64,
    SCHEME_PARTITIONED,
    TRIAL_SALT,
    mix64,
    mix64_array,
)
from ibltlab.hashing import (
    HashKind,
    HashParams,
    PartitionedUniformScheme,
    SsAvoidingScheme,
)

# Cells plus entry cells (m + n*k per trial) of one batch of trials.
BATCH_CELLS = 1 << 15


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


def peel_rounds(cells: np.ndarray, m: int) -> np.ndarray:
    """Peel to the fixpoint in rounds; returns the indices of unpeeled entries.

    ``cells`` has shape (k, entries): column e holds entry e's k cells, all
    in [0, m).  A round drops every live entry that is alone in one of its
    cells; peeling stops after a round that drops nothing.
    """
    alive = np.arange(cells.shape[1])
    while alive.size:
        counts = np.bincount(cells.ravel(), minlength=m)
        keep = ~(counts[cells] == 1).any(axis=0)
        if keep.all():
            break
        cells = cells[:, keep]
        alive = alive[keep]
    return alive


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

    Trials run in batches; each batch's tables sit side by side in one
    cell array, trial r of the batch owning cells [r*m, (r+1)*m).
    """
    mask = (1 << b) - 1
    m = ell * k
    batch = max(1, BATCH_CELLS // (n * k + m))
    base = np.uint64(mix64(seed ^ TRIAL_SALT))
    steps = np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(PHI64)
    np_mask = np.uint64(mask)
    if scheme == SCHEME_PARTITIONED:
        hasher = PartitionedUniformScheme(HashParams(k, ell, b, seed))
    else:
        params = HashParams(k, ell, b, seed, HashKind.SS_AVOIDING)
        hasher = SsAvoidingScheme(params, None)

    failures = 0
    two_left = 0
    for lo in range(t_lo, t_hi, batch):
        trials = min(batch, t_hi - lo)
        # trial_state(seed, t) for the batch's trials t = lo, lo+1, ...
        counters = np.arange(lo + 1, lo + trials + 1, dtype=np.uint64)
        states = mix64_array(base + counters * np.uint64(PHI64))
        keys = mix64_array(states[:, None] + steps)[:, 0::2] & np_mask
        if key_model == KEYS_DISTINCT:
            ordered = np.sort(keys, axis=1)
            repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            for r in np.flatnonzero(repeats):
                keys[r] = _distinct_keys_replay(int(states[r]), n, mask)
        cells = hasher.indices_array(keys.ravel()).reshape(k, trials, n)
        cells += np.arange(0, trials * m, m, dtype=np.int64)[:, None]
        unpeeled = peel_rounds(cells.reshape(k, trials * n), trials * m)
        left = np.bincount(unpeeled // n, minlength=trials)
        failures += int(np.count_nonzero(left))
        two_left += int(np.count_nonzero(left == 2))
    return failures, two_left
