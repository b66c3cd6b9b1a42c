"""64-bit mixing primitives shared by the hash schemes and the trial kernels.

Everything downstream (hash lanes, per-trial key streams, sweep seeds) is
derived from one finalizer; the scalar ``mix64`` and the numpy
``mix64_array`` compute it bit for bit alike.

The scalar functions are plain integer arithmetic.  Only the vector
function ``mix64_array`` uses numpy, and it imports it when called, so the
census, the bounds, the oracle and the table run without loading it.  The
trial kernel's batch size lives here too, so ``simulate`` reads it without
loading numpy.  The kernel's scheme and key-model codes are the values of
``hashing.HashKind`` and ``hashing.KeyModel``, written once, here.
"""

import functools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

MASK64 = (1 << 64) - 1

# Weyl increment for the splitmix-style counter stream.
PHI64 = 0x9E3779B97F4A7C15

# Domain-separation salts: hash lanes, per-trial streams, per-sweep-point seeds.
LANE_SALT = 0x85EBCA77C2B2AE63
TRIAL_SALT = 0xC2B2AE3D27D4EB4F
SWEEP_SALT = 0x165667B19E3779F9

# The trial kernel's scheme and key-model codes: the HashKind and KeyModel values.
SCHEME_PARTITIONED = "partitioned-uniform"
SCHEME_SS_AVOIDING = "ss-avoiding"
KEYS_IID = "iid"
KEYS_DISTINCT = "distinct"

# Cells plus entry cells (m + n*k per trial) of one batch of kernel trials,
# which the kernel draws, hashes and peels together; a batch's arrays stay
# within a few MiB.  At mc-floor's shape (n = 210, m = 768, k = 3) a batch
# is 46 trials.  Measured there on one pinned vCPU of a 2-core x86 VM
# (CPython 3.11, numpy 2.4), a 12,000-trial kernel call took 9-14% less
# time than when it peeled batches of half this size, and the same at the
# peeling threshold.
BATCH_CELLS = 1 << 16

MUL1 = 0xBF58476D1CE4E5B9
MUL2 = 0x94D049BB133111EB


def batch_trials(n: int, m: int, k: int) -> int:
    """Trials the kernel peels side by side in one batch of about
    ``BATCH_CELLS`` cells and entry cells; at least one."""
    return max(1, BATCH_CELLS // (n * k + m))


def mix64(x: int) -> int:
    """Splitmix64 finalizer: a fast invertible 64-bit mix with strong avalanche."""
    x &= MASK64
    x ^= x >> 30
    x = (x * MUL1) & MASK64
    x ^= x >> 27
    x = (x * MUL2) & MASK64
    x ^= x >> 31
    return x


def stream_output(state: int, j: int) -> int:
    """j-th output (0-based) of the counter stream rooted at ``state``."""
    return mix64((state + (j + 1) * PHI64) & MASK64)


def trial_state(seed: int, trial: int) -> int:
    """Root state of the random stream for one simulation trial."""
    return stream_output(mix64(seed ^ TRIAL_SALT), trial)


def lane_keys(seed: int, k: int) -> tuple[int, ...]:
    """Per-subtable keys that turn one mixer into k independent keyed hashes."""
    base = mix64(seed ^ LANE_SALT)
    return tuple(stream_output(base, i) for i in range(k))


def sweep_point_seed(seed: int, m: int) -> int:
    """Derived seed for the sweep point with m total cells."""
    return stream_output(mix64(seed ^ SWEEP_SALT), m - 1)


@functools.cache
def _mix64_constants() -> tuple:
    """mix64's shifts and multipliers as numpy scalars, built once."""
    import numpy as np

    return tuple(np.uint64(c) for c in (30, MUL1, 27, MUL2, 31))


def mix64_array(x: "np.ndarray") -> "np.ndarray":
    """Vectorized mix64 over a uint64 array (wrapping arithmetic), into a
    new array; ``x`` is left as it was.  The three shifts share one
    scratch array."""
    import numpy as np

    shift1, mul1, shift2, mul2, shift3 = _mix64_constants()
    x = np.asarray(x, dtype=np.uint64)
    shifted = x >> shift1
    x = x ^ shifted
    x *= mul1
    x ^= np.right_shift(x, shift2, out=shifted)
    x *= mul2
    x ^= np.right_shift(x, shift3, out=shifted)
    return x
