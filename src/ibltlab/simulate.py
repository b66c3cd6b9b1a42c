"""Monte Carlo estimation of the listing failure probability.

Determinism contract: a report is a pure function of the config.  Trial t
draws its keys and values from a counter stream rooted at
mix64(mix64(seed ^ TRIAL_SALT) + (t+1)*PHI64); outputs are interleaved
key, value, key, value, ... with rejected distinct-key candidates each
consuming one output.  Trials are therefore independent of execution
order, and splitting the trial range across workers cannot change the
result.  Sweep points at m cells run with the derived seed
mix64(mix64(seed ^ SWEEP_SALT) + m*PHI64).
"""

import enum
import functools
import math
import os
from dataclasses import dataclass, replace

from ibltlab._bits import (
    KEYS_DISTINCT,
    KEYS_IID,
    MASK64,
    SCHEME_PARTITIONED,
    SCHEME_SS_AVOIDING,
    sweep_point_seed,
)
from ibltlab.bounds import check_bound_cost, size2_asymptote, union_bound
from ibltlab.census import StoppingCensus, check_cost
from ibltlab.errors import ResourceGuardError
from ibltlab.hashing import HashKind, HashParams


class KeyModel(enum.Enum):
    IID_UNIFORM = "iid"
    DISTINCT_UNIFORM = "distinct"


_SCHEME_CODES = {
    HashKind.PARTITIONED_UNIFORM: SCHEME_PARTITIONED,
    HashKind.SS_AVOIDING: SCHEME_SS_AVOIDING,
}
_KEY_CODES = {KeyModel.IID_UNIFORM: KEYS_IID, KeyModel.DISTINCT_UNIFORM: KEYS_DISTINCT}

# 97.5th normal percentile: two-sided 95% score interval.
_WILSON_Z = 1.959963984540054

# Peak bytes of one kernel process at a table too wide to batch: per cell,
# a round's int64 counts and the previous round's, alive together while the
# new ones are counted; per entry, its two stream outputs and key, and per
# entry cell, the int64 cell index, its gathered count and the hashing
# temporaries.  Fitted to the resident set of trials with up to 6e6 cells
# or 1e6 entries.  Narrower tables batch to about BATCH_CELLS cells, a few
# MiB at most.
TRIAL_MEMORY_GUARD_BYTES = 1 << 30
_CELL_BYTES = 16
_ENTRY_BYTES = 32
_ENTRY_CELL_BYTES = 48

# Kernel seconds per unit of trial work, trials * (n*k + m) units in all,
# against x, the load n/m over the peeling threshold of k (see
# _trial_unit_s); trials estimated over COST_GUARD_S are refused.  Far
# below the threshold a trial peels in a few rounds; near it the rounds
# grow, most at x = 1, and past it the peel stops early.  Each rate is
# about 1.6 times the slowest measured near its x on a 2-core x86 VM under
# CPython 3.11, over k = 1, 2, 3, 4, 6 at 60, 768 and 30,000 cells, with a
# kernel that has since become 1.5-3 times faster.  At k >= 3 the spike at
# x = 1 grows with the table, so past _PEAK_CELLS cells the peak rate grows
# as m**_PEAK_GROWTH (see _peak_rate).  With the current kernel, on one
# pinned vCPU of the same VM, the slowest k = 3 trials near x = 1 took
# 0.17 us at 30,000 cells, 0.75 us at 300,000, 1.9 us at 1e6 and 4.1 us at
# 3e6, against peak rates of 1, 1.33, 3.1 and 6.6 us; k = 4 took 2.9 us at
# 3e6 cells, and k = 2, whose rounds do not pile up, 0.12 us.  The
# sequential key replay of distinct-key trials is charged on top, at
# _REPLAY_CANDIDATE_S per key candidate it draws (see _replay_seconds): on
# the same VM one candidate, a scalar mix64 and a set lookup, took
# 1.1-1.5 us on one pinned vCPU.
_PEAK_RATE = 1.0e-6
_PEAK_CELLS = 200_000
_PEAK_GROWTH = 0.7
_TRIAL_RATES = (
    (0.0, 2.5e-8),
    (0.55, 5.0e-8),
    (0.75, 1.0e-7),
    (0.9, 1.8e-7),
    (0.97, 3.4e-7),
    (0.985, _PEAK_RATE),
    (1.015, _PEAK_RATE),
    (1.06, 4.0e-7),
    (1.2, 2.6e-7),
    (1.5, 2.3e-7),
    (3.0, 2.0e-7),
    (10.0, 1.2e-7),
)
_REPLAY_CANDIDATE_S = 1.7e-6


@dataclass(frozen=True)
class TrialConfig:
    n: int
    m: int
    k: int
    b: int = 32
    trials: int = 100_000
    seed: int = 0
    scheme: HashKind = HashKind.PARTITIONED_UNIFORM
    key_model: KeyModel = KeyModel.IID_UNIFORM

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.k < 1 or self.trials < 1:
            raise ValueError("n, m, k and trials must be positive")
        if self.m % self.k != 0:
            raise ValueError(f"m = {self.m} must be divisible by k = {self.k}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        # The scheme's own checks: the key width b and the ss-avoiding shape.
        HashParams(self.k, self.ell, self.b, self.seed, self.scheme)
        distinct = self.key_model is KeyModel.DISTINCT_UNIFORM
        if self.scheme is HashKind.SS_AVOIDING and not distinct:
            raise ValueError("the ss-avoiding scheme requires distinct keys")
        if distinct and self.n > (1 << self.b):
            raise ValueError("cannot draw n distinct keys from fewer than n values")

    @property
    def ell(self) -> int:
        return self.m // self.k


@dataclass(frozen=True)
class SimReport:
    m: int
    ell: int
    n: int
    k: int
    b: int
    scheme: HashKind
    seed: int
    trials: int
    failures: int
    size2_residual_failures: int
    p_hat: float
    ci_low: float
    ci_high: float
    bound: float  # clamped union bound at (ell, n, k)
    p2: float  # size-2 error-floor asymptote


def wilson_interval(failures: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """95% score interval for a binomial proportion; exact-count friendly."""
    if trials < 1:
        raise ValueError("trials must be positive")
    p = failures / trials
    zz = z * z / trials
    center = (p + zz / 2) / (1 + zz)
    half = z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials)) / (1 + zz)
    # The score interval always contains the point estimate; pin that down
    # against rounding at the extremes.
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def _kernel_processes(trials: int, workers: int) -> int:
    """Processes that run the trial kernel for ``workers`` requested: at
    most one per CPU and one per trial.  Raises ValueError for workers < 1."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return min(workers, os.cpu_count() or 1, trials)


def check_trial_memory(cfg: TrialConfig, workers: int = 1):
    """Raise ResourceGuardError when the kernel processes that run ``cfg``
    would together take more than ``TRIAL_MEMORY_GUARD_BYTES``."""
    processes = _kernel_processes(cfg.trials, workers)
    per_process = (
        _CELL_BYTES * cfg.m + (_ENTRY_BYTES + _ENTRY_CELL_BYTES * cfg.k) * cfg.n
    )
    need = processes * per_process
    if need > TRIAL_MEMORY_GUARD_BYTES:
        raise ResourceGuardError(
            f"trials at m = {cfg.m} cells and n = {cfg.n} entries need about "
            f"{need / 2**30:.3g} GiB in {processes} process(es), over the budget "
            f"of {TRIAL_MEMORY_GUARD_BYTES / 2**30:g} GiB"
        )


@functools.cache
def _peeling_threshold(k: int) -> float:
    """Load n/m below which peeling a large random table with k >= 2 cells
    per entry succeeds: the minimum over y > 0 of
    y / (k (1 - e^-y)^(k-1)), 0.5 at k = 2 and 0.818 at k = 3.  The
    function is unimodal in y, so a ternary search finds it."""
    def load(y):
        return y / (k * (-math.expm1(-y)) ** (k - 1))

    lo, hi = 1e-9, 2.0 * k
    for _ in range(100):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if load(a) < load(b):
            hi = b
        else:
            lo = a
    return load(lo)


def _peak_rate(cfg: TrialConfig) -> float:
    """The rate at the peeling threshold: ``_PEAK_RATE`` up to
    ``_PEAK_CELLS`` cells, growing as m**_PEAK_GROWTH past them at k >= 3,
    where the rounds at the threshold pile up with the table."""
    if cfg.k < 3 or cfg.m <= _PEAK_CELLS:
        return _PEAK_RATE
    return _PEAK_RATE * (cfg.m / _PEAK_CELLS) ** _PEAK_GROWTH


def _trial_unit_s(cfg: TrialConfig) -> float:
    """Kernel seconds per unit of ``cfg``'s trial work, interpolated in
    ``_TRIAL_RATES`` at its load over the peeling threshold, with its
    peak entries at ``_peak_rate``.  A k = 1 table peels in one round at
    any load and is charged the last rate."""
    if cfg.k == 1:
        return _TRIAL_RATES[-1][1]
    x = cfg.n / cfg.m / _peeling_threshold(cfg.k)
    peak = _peak_rate(cfg)
    rates = [(x0, peak if r == _PEAK_RATE else r) for x0, r in _TRIAL_RATES]
    for (x0, r0), (x1, r1) in zip(rates, rates[1:]):
        if x < x1:
            return r0 + (r1 - r0) * (x - x0) / (x1 - x0)
    return rates[-1][1]


def _replay_seconds(cfg: TrialConfig) -> float:
    """Estimated seconds of sequential key replay in all of ``cfg``'s trials.

    Under distinct keys a trial whose n vector-drawn keys repeat one, with
    probability at most C(n, 2)/N among N = 2**b keys, draws its keys
    again one candidate at a time, N (H_N - H_(N-n)) candidates on average.
    That is at most N (1/L + ln(N/L)) with L = N - n + 1, about n for
    n << N and N ln N for n = N.
    """
    if cfg.key_model is not KeyModel.DISTINCT_UNIFORM:
        return 0.0
    keys, n = 1 << cfg.b, cfg.n
    repeats = min(1.0, n * (n - 1) / (2 * keys))
    low = keys - n + 1
    candidates = keys * (1 / low - math.log1p(-(n - 1) / keys))
    return cfg.trials * repeats * candidates * _REPLAY_CANDIDATE_S


def check_trials(cfg: TrialConfig, workers: int = 1):
    """Decide whether ``cfg`` may run, before any trial work: raise
    ValueError for workers < 1, and ResourceGuardError when its kernel
    processes would exceed the memory guard, its trials the time guard
    or its union bound the cost guard."""
    check_trial_memory(cfg, workers)
    processes = _kernel_processes(cfg.trials, workers)
    check_cost(
        f"{cfg.trials} trials at m = {cfg.m} cells and n = {cfg.n} entries",
        lambda: (
            _trial_unit_s(cfg) * cfg.trials * (cfg.n * cfg.k + cfg.m)
            + _replay_seconds(cfg)
        )
        / processes,
    )
    check_bound_cost(cfg.ell, cfg.n, cfg.k)


def sweep_configs(
    base: TrialConfig, m_values: list[int], workers: int = 1
) -> list[TrialConfig]:
    """The sweep point of each m value, with its derived seed; every point
    is validated and checked with ``check_trials`` before any is returned."""
    configs = [replace(base, m=m, seed=sweep_point_seed(base.seed, m)) for m in m_values]
    for cfg in configs:
        check_trials(cfg, workers)
    return configs


def _run_range(args) -> tuple[int, int]:
    from ibltlab import _kernels_py  # numpy, loaded only to run trials

    seed, lo, hi, n, ell, k, b, scheme_code, key_code = args
    return _kernels_py.run_trials(seed, lo, hi, n, ell, k, b, scheme_code, key_code)


def _trial_ranges(trials: int, processes: int) -> list[tuple[int, int]]:
    """Split the trials into ranges, at least one per process."""
    if processes <= 1:
        return [(0, trials)]
    step = max(1, math.ceil(trials / (processes * 4)))
    return [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]


def run_trials(
    cfg: TrialConfig,
    census: StoppingCensus | None = None,
    workers: int = 1,
) -> SimReport:
    """Estimate the listing failure probability for one configuration.

    A trial fails when listing leaves any entry unrecovered.  The report
    pairs the estimate with the union bound and the floor asymptote at
    ell = m/k, and carries the count of failures that left exactly two
    entries -- those necessarily had identical index tuples.  Trials run
    in min(workers, CPUs, trials) processes, in-process when that is 1.
    ``check_trials`` decides, before any trial runs, whether it may run.
    """
    check_trials(cfg, workers)
    processes = _kernel_processes(cfg.trials, workers)
    args = [
        (
            cfg.seed,
            lo,
            hi,
            cfg.n,
            cfg.ell,
            cfg.k,
            cfg.b,
            _SCHEME_CODES[cfg.scheme],
            _KEY_CODES[cfg.key_model],
        )
        for lo, hi in _trial_ranges(cfg.trials, processes)
    ]
    if processes == 1:
        results = [_run_range(a) for a in args]
    else:
        # Imported here: concurrent.futures loads multiprocessing, which an
        # in-process run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_run_range, args))
    failures = sum(r[0] for r in results)
    two_left = sum(r[1] for r in results)
    ci_low, ci_high = wilson_interval(failures, cfg.trials)
    if census is None:
        census = StoppingCensus()
    bound = union_bound(census, cfg.ell, cfg.n, cfg.k).total_clamped
    return SimReport(
        m=cfg.m,
        ell=cfg.ell,
        n=cfg.n,
        k=cfg.k,
        b=cfg.b,
        scheme=cfg.scheme,
        seed=cfg.seed,
        trials=cfg.trials,
        failures=failures,
        size2_residual_failures=two_left,
        p_hat=failures / cfg.trials,
        ci_low=ci_low,
        ci_high=ci_high,
        bound=bound,
        p2=size2_asymptote(cfg.ell, cfg.n, cfg.k),
    )


def sweep(
    base: TrialConfig,
    m_values: list[int],
    census: StoppingCensus | None = None,
    workers: int = 1,
) -> list[SimReport]:
    """Run one report per m value, each with its derived seed, after every
    point has been checked."""
    configs = sweep_configs(base, m_values, workers)
    if census is None:
        census = StoppingCensus()
    return [run_trials(cfg, census=census, workers=workers) for cfg in configs]
