"""table-churn: library calls on one ``Iblt``, run as its own process.

Usage: PYTHONPATH=src python perfbench/churn.py --seed S --keys N

Prints one JSON object: phase timings, operation counts, failed checks and
a digest of every result, so a traced run can show it returned the same.
"""

import argparse
import hashlib
import json
import random
import time

K = 3
B = 32


def make_inputs(seed: int, n: int):
    """n distinct present keys with values, n distinct absent keys, a hash seed.

    Drawn with the benchmark's own RNG, not ibltlab's streams, so a change
    to the package's bit mixing cannot change the inputs.
    """
    rng = random.Random(f"perfbench table-churn {seed}")
    keys, seen = [], set()
    while len(keys) < 2 * n:
        x = rng.getrandbits(B)
        if x not in seen:
            seen.add(x)
            keys.append(x)
    present, absent = keys[:n], keys[n:]
    values = [rng.getrandbits(B) for _ in present]
    return present, values, absent, rng.getrandbits(64)


def run_churn(seed: int, n: int) -> dict:
    """Insert every pair, get present and absent keys, list, delete half, list in place."""
    from ibltlab import GetStatus, HashParams, Iblt, ListingStatus, make_partitioned_uniform

    present, values, absent, hash_seed = make_inputs(seed, n)
    ell = (3 * n // 2 + K - 1) // K  # m ~ 1.5 n cells
    table = Iblt(make_partitioned_uniform(HashParams(k=K, ell=ell, b=B, seed=hash_seed)))
    pairs = list(zip(present, values))
    kept = pairs[n // 2 :]
    clock = time.perf_counter

    t0 = clock()
    for x, y in pairs:
        table.insert(x, y)
    t1 = clock()
    got_present = [table.get(x) for x in present]
    got_absent = [table.get(x) for x in absent]
    t2 = clock()
    listed = table.list_entries()
    t3 = clock()
    for x, y in pairs[: n // 2]:
        table.delete(x, y)
    t4 = clock()
    remaining = table.list_entries_inplace()
    t5 = clock()

    failed = 0
    for (x, y), got in zip(pairs, got_present):
        if got.status is GetStatus.FOUND and got.value != y:
            failed += 1
    failed += sum(1 for got in got_absent if got.status is GetStatus.FOUND)
    partial = 0
    for result, truth in ((listed, pairs), (remaining, kept)):
        truth = frozenset(truth)
        if result.status is ListingStatus.COMPLETE:
            failed += result.entries != truth or result.residual_cells != 0
        else:
            # A stopping set leaves entries unpeeled: a legitimate partial
            # listing, unless it returned a pair that was never stored.
            partial += 1
            failed += not result.entries < truth or result.residual_cells == 0

    digest = hashlib.sha256()
    for got in got_present + got_absent:
        digest.update(f"{got.status.value}:{got.value};".encode())
    for result in (listed, remaining):
        digest.update(f"{result.status.value}:{result.residual_cells}:".encode())
        digest.update(repr(sorted(result.entries)).encode())

    write_ops = len(pairs) + n // 2
    get_ops = len(got_present) + len(got_absent)
    return {
        "write_ops": write_ops,
        "get_ops": get_ops,
        "write_s": (t1 - t0) + (t4 - t3),
        "get_s": t2 - t1,
        "list_s": (t3 - t2) + (t5 - t4),
        "attempted": write_ops + get_ops + 2,
        "failed": failed,
        "partial_listings": partial,
        "digest": digest.hexdigest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--keys", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(run_churn(args.seed, args.keys)))


if __name__ == "__main__":
    main()
