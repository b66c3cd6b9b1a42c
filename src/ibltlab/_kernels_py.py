"""The numpy kernels: the brute-force stopping-matrix count, which tests
row counts a table of matrices at a time, and the Monte Carlo trial loop.

Keys come from the counter streams of ``_bits`` and cell indices from the
hash schemes of ``hashing``, so the kernel holds no hash layout of its own.
This is the one module that imports numpy when it is imported; ``census``
and ``simulate`` import it only where they call it, so the package starts
without numpy.

The trial loop mixes only the key outputs of each trial's counter stream
(the values play no part in peeling) and runs its trials in batches of
about ``_bits.BATCH_CELLS`` cells and entry cells, which bounds its memory;
a table wider than that runs one trial per batch.  One set of numpy calls
draws a batch's keys, finds the trials whose keys repeat and computes every
cell index, and the batch then peels at once.  Its tables sit side by side
in one cell array, and each round counts the live entries per cell with
``np.bincount`` and drops every live entry whose least cell count is one.
The rounds carry only the cells of the live entries: a survivor's trial
is read from its first cell, which lies in that trial's table.
Peeling is confluent: any order of peels ends at the same fixpoint, the
largest stopping set, so the rounds leave exactly the entries a
one-cell-at-a-time peeler leaves, whichever trials share a batch (Jiang,
Mitzenmacher and Thaler, "Parallel Peeling Algorithms", arXiv:1302.7014).
Under distinct keys a trial whose keys repeat is replayed before its batch
peels: its keys are drawn again one candidate at a time, each a scalar
``_bits.stream_output``, in the stream order that
``tests/reference.py::stream_pairs`` reads.

The trial loop also meters its work W: per batch, its entry cells once;
per peeling round, the batch's cells plus k per live entry; and
``REPLAY_UNITS`` per key candidate a distinct-key replay draws.  W is a
sum over batches, and a range's batches start at its first trial, so
ranges cut at multiples of ``batch_trials`` peel the batches of one range
from trial 0 and sum to its W.
"""

import itertools
import math

import numpy as np

from ibltlab._bits import (
    BATCH_CELLS,
    KEYS_DISTINCT,
    PHI64,
    TRIAL_SALT,
    batch_trials,
    mix64,
    mix64_array,
    stream_output,
)
from ibltlab.hashing import (
    HashKind,
    HashParams,
    PartitionedUniformScheme,
    SsAvoidingScheme,
)

# Work units per key candidate of a distinct-key replay; 100 units are
# 1.6 us at simulate's 16 ns per unit.  A replay draws each candidate by
# one scalar stream_output, which took 0.65-0.93 us per candidate on one
# pinned vCPU of a 2-core x86 VM (CPython 3.11), in replays of 107 to
# 36,373 candidates, and 0.8-1.5 us in an earlier measurement on the same
# kind of host.
REPLAY_UNITS = 100

# Bytes of a block that run_trials allocates and frees before its first
# batch: four times a batch's largest index array.  glibc serves an
# allocation past its mmap threshold, 128 KiB at first, with fresh pages,
# and gives the top of its heap back once that passes twice the threshold;
# freeing a block past the threshold raises it to that block's size
# (mallopt(3), "dynamic mmap threshold").  A batch's index arrays and a
# peel round's counts, 100-500 KiB each at narrow shapes, then reuse heap
# pages.  Without it, a 12,000-trial kernel call at mc-floor's shape took
# anywhere from 100 to 35,000 page faults, as earlier allocations had left
# the heap, at about 2.5 us each on a 2-core x86 VM; with it, under 500.
THRESHOLD_BLOCK_BYTES = 4 * 8 * BATCH_CELLS

# Row counts in the brute-force census's table (ell per placement).
TABLE_CELLS = 1 << 18


def count_stopping_matrices(ell: int, n: int) -> int:
    """Count stopping matrices: test the row counts of all ell**n placements.

    Column t of ``table`` holds the row counts of the t-th placement of
    the first ``low`` columns.  Under one placement of the other columns,
    matrix t has a weight-1 row where its table count is 1 minus that
    placement's row count; a matrix stops when no row does.
    """
    low = 0
    while low < n and ell ** (low + 2) <= TABLE_CELLS:
        low += 1
    rows = ell**low
    lows = np.indices((ell,) * low).reshape(low, rows) * rows + np.arange(rows)
    table = np.bincount(lows.ravel(), minlength=ell * rows).reshape(ell, rows)
    count = 0
    for high in itertools.product(range(ell), repeat=n - low):
        lone = 1 - np.bincount(high, minlength=ell)[:, None]
        count += rows - int(np.count_nonzero((table == lone).any(axis=0)))
    return count


def _distinct_keys_replay(
    state: int, n: int, mask: int, spare: float = math.inf
) -> tuple[list[int], int]:
    """Sequential key draw with rejection: the stream order behind distinct keys.

    Per entry: draw key candidates, one scalar ``stream_output`` each,
    until unseen (each rejection consumes one stream output), then skip
    one output for the value.  Returns the keys and the replay's work,
    ``REPLAY_UNITS`` per candidate; once that work passes ``spare`` the
    draw stops, before its next entry, with fewer than n keys.
    """
    keys: list[int] = []
    seen = set()
    j = 0  # outputs read: every candidate, and one value per key
    for _ in range(n):
        if REPLAY_UNITS * (j - len(keys)) > spare:
            break
        x = stream_output(state, j) & mask
        while x in seen:
            j += 1
            x = stream_output(state, j) & mask
        seen.add(x)
        keys.append(x)
        j += 2  # past the key and its value
    return keys, REPLAY_UNITS * (j - len(keys))


def peel_rounds(cells: np.ndarray, m: int, budget: float = math.inf) -> tuple[np.ndarray, int]:
    """Peel to the fixpoint in rounds; returns the cells of the unpeeled
    entries, their columns in input order, and the work of the rounds, m
    cells plus ``cells.size`` live entry cells each.

    ``cells`` has shape (k, entries): column e holds entry e's k cells, all
    in [0, m).  A round drops every live entry that is alone in one of its
    cells; peeling stops after a round that drops nothing, or once the
    work passes ``budget``.  Each cell of a live entry counts at least that
    entry, so the entry is alone in one of its cells exactly when the
    least of their counts is 1.
    """
    work = 0
    while cells.size and work <= budget:
        work += m + cells.size
        counts = np.bincount(cells.ravel(), minlength=m)
        keep = (counts.take(cells).min(axis=0) > 1).nonzero()[0]
        if keep.size == cells.shape[1]:
            break
        cells = cells.take(keep, axis=1)
    return cells, work


def run_trials(
    seed: int,
    t_lo: int,
    t_hi: int,
    n: int,
    ell: int,
    k: int,
    b: int,
    scheme: str,
    key_model: str,
    *,
    budget: float = math.inf,
) -> tuple[int, int, int]:
    """Run listing trials [t_lo, t_hi); returns (failures, size-2
    residuals, work).

    A trial draws the keys of n key-value pairs from the trial's counter
    stream (outputs 0, 2, 4, ...; the values at the odd outputs are never
    mixed), builds the table, peels to fixpoint, and fails when any entry
    is left unrecovered.  The second counter is the number of failing
    trials with exactly two entries left, which at fixpoint forces their
    index tuples to coincide.

    Trials run in batches of ``batch_trials`` trials counted from t_lo.
    Each batch draws and hashes its keys at once, and its tables sit side
    by side in one cell array, trial r of the batch owning cells
    [r*m, (r+1)*m), so an entry left by the peel belongs to the trial its
    first cell names.  Under distinct keys a trial whose keys repeat is
    replayed, and hashed again, in order, from the budget left once the
    batch's entry cells are charged.  Once the work passes ``budget`` the
    call returns at once, with the counts of the batches it finished.
    """
    mask = (1 << b) - 1
    m = ell * k
    batch = batch_trials(n, m, k)
    offsets = np.arange(0, batch * m, m, dtype=np.int64)[:, None]
    base = np.uint64(mix64(seed ^ TRIAL_SALT))
    steps = np.arange(1, 2 * n, 2, dtype=np.uint64) * np.uint64(PHI64)
    np_mask = np.uint64(mask)
    params = HashParams(k, ell, b, seed, HashKind(scheme))
    if params.kind is HashKind.SS_AVOIDING:
        hasher = SsAvoidingScheme(params)
    else:
        hasher = PartitionedUniformScheme(params)

    np.empty(THRESHOLD_BLOCK_BYTES, dtype=np.uint8)  # freed at once; see its comment
    failures = two_left = work = 0
    for first in range(t_lo, t_hi, batch):
        trials = min(batch, t_hi - first)
        # The batch's trial states: output t of the stream rooted at base,
        # for its trials t = first, first+1, ...
        counters = np.arange(first + 1, first + trials + 1, dtype=np.uint64)
        states = mix64_array(base + counters * np.uint64(PHI64))
        keys = mix64_array(states[:, None] + steps)
        keys &= np_mask
        repeats = []
        if key_model == KEYS_DISTINCT:
            ordered = np.sort(keys, axis=1)
            repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1).nonzero()[0].tolist()
        cells = hasher.indices_array(keys.ravel()).reshape(k, trials, n)
        work += trials * n * k
        for r in repeats:
            replayed, spent = _distinct_keys_replay(int(states[r]), n, mask, budget - work)
            work += spent
            if work > budget:
                return failures, two_left, work
            cells[:, r] = hasher.indices_array(np.array(replayed, dtype=np.uint64))
        cells += offsets[:trials]  # trial r owns cells [r*m, (r+1)*m)
        unpeeled, spent = peel_rounds(cells.reshape(k, trials * n), trials * m, budget - work)
        work += spent
        if work > budget:
            return failures, two_left, work
        left = np.bincount(unpeeled[0] // m, minlength=trials)
        failures += int(np.count_nonzero(left))
        two_left += int(np.count_nonzero(left == 2))
    return failures, two_left, work
