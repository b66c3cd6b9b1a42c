"""Monte Carlo estimation of the listing failure probability.

Determinism contract: a report is a pure function of the config.  Trial t
draws its keys and values from a counter stream rooted at
mix64(mix64(seed ^ TRIAL_SALT) + (t+1)*PHI64); outputs are interleaved
key, value, key, value, ... with rejected distinct-key candidates each
consuming one output.  Trials are therefore independent of execution
order, and splitting the trial range across workers cannot change the
result.  Sweep points at m cells run with the derived seed
mix64(mix64(seed ^ SWEEP_SALT) + m*PHI64).  A refusal is a pure function
of the config and the worker count: the guards never read the host's CPU
count, which only caps the pool of kernel processes.
"""

import contextlib
import math
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

from ibltlab._bits import batch_trials, sweep_point_seed
from ibltlab.bounds import check_bound_cost, size2_asymptote, union_bound
from ibltlab.census import COST_GUARD_S, StoppingCensus
from ibltlab.errors import ResourceGuardError
from ibltlab.hashing import HashKind, HashParams, KeyModel

# 97.5th normal percentile: two-sided 95% score interval.
_WILSON_Z = 1.959963984540054

# Peak bytes of one kernel process at a table too wide to batch: per cell,
# a round's int64 counts and the previous round's, alive together while the
# new ones are counted; per entry, its two stream outputs and key, and per
# entry cell, the int64 cell index, its gathered count and the hashing
# temporaries.  Fitted to the resident set of trials with up to 6e6 cells
# or 1e6 entries, which the kernel hashes and peels one trial at a time.
# Narrower tables batch to about BATCH_CELLS cells and entry cells, drawn,
# hashed and peeled together, a few MiB at most.
TRIAL_MEMORY_GUARD_BYTES = 1 << 30
_CELL_BYTES = 16
_ENTRY_BYTES = 32
_ENTRY_CELL_BYTES = 48

# Sweeps over more m values than this are refused before any point is
# built; ``sweep`` builds and plans every point when it is called.
SWEEP_POINT_GUARD = 10**4

# Kernel seconds per unit of trial work W (see _kernels_py.run_trials); a
# run whose W passes COST_GUARD_S seconds' worth is refused, whatever its
# worker count, as W is the same under any split.  On one pinned vCPU of a
# 2-core x86 VM under CPython 3.11, over k = 1-4, 768 to 300,000 cells and
# loads 0.13-2.4 times the peeling threshold, a unit took 1.2-8 ns at
# k >= 2 and up to 30,000 cells, and up to 16 ns at k >= 2 (300,000 cells,
# far past the threshold), the rate charged here; single trials at the
# threshold with 3 million cells took 0.8-15 ns.  At k = 1, where a trial
# peels in one round and drawing its keys dominates, a unit took up to
# 24 ns.  At mc-floor's shape (n = 210, m = 768, k = 3; 12,000 trials of
# each scheme on one pinned vCPU), a unit took 2.1-2.9 ns with peel batches
# of half of ``BATCH_CELLS``; batches of ``BATCH_CELLS`` meter about 5%
# more units there in about 11% less time, so the charged rate stays.
_WORK_UNIT_S = 1.6e-8
TRIAL_WORK_BUDGET = int(COST_GUARD_S / _WORK_UNIT_S)


@dataclass(frozen=True)
class TrialConfig:
    n: int
    m: int
    k: int
    b: int = 32
    trials: int = 100_000
    seed: int = 0
    scheme: HashKind = HashKind.PARTITIONED_UNIFORM
    # None picks the scheme's key model: distinct under ss-avoiding, else iid.
    key_model: KeyModel | None = None

    def __post_init__(self):
        if self.key_model is None:
            model = (
                KeyModel.DISTINCT_UNIFORM
                if self.scheme is HashKind.SS_AVOIDING
                else KeyModel.IID_UNIFORM
            )
            object.__setattr__(self, "key_model", model)
        if self.n < 1 or self.m < 1 or self.k < 1 or self.trials < 1:
            raise ValueError("n, m, k and trials must be positive")
        if self.m % self.k != 0:
            raise ValueError(f"m = {self.m} must be divisible by k = {self.k}")
        # The scheme's own checks: the seed, the key width b and the
        # ss-avoiding shape.
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
    config: TrialConfig
    failures: int
    size2_residual_failures: int
    p_hat: float
    ci_low: float
    ci_high: float
    bound: float  # clamped union bound at (ell, n, k)
    p2: float  # size-2 error-floor asymptote
    work: int  # trial work W the kernel metered


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion; exact-count friendly."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= failures <= trials:
        raise ValueError(f"failures must be in [0, {trials}], got {failures}")
    p = failures / trials
    zz = _WILSON_Z * _WILSON_Z / trials
    center = (p + zz / 2) / (1 + zz)
    half = _WILSON_Z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials)) / (1 + zz)
    # The score interval always contains the point estimate; pin that down
    # against rounding at the extremes.
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, so a pinned process counts only the CPUs it is pinned to."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work_refusal(cfg: TrialConfig, what: str) -> ResourceGuardError:
    return ResourceGuardError(
        f"{cfg.trials} trials at m = {cfg.m} cells and n = {cfg.n} entries "
        f"{what} the budget of {TRIAL_WORK_BUDGET} units of trial work "
        f"({COST_GUARD_S:g} s)"
    )


def plan_trials(
    cfg: TrialConfig, workers: int = 1
) -> tuple[int, list[tuple[int, int]]]:
    """Decide from ``cfg`` and ``workers`` alone, before any trial work,
    whether ``cfg`` may run; then pick its kernel processes and the trial
    ranges they run.

    Raises ValueError for workers < 1, and ResourceGuardError when
    min(workers, kernel batches) processes would together pass the memory
    guard, the trial work W would pass ``TRIAL_WORK_BUDGET`` for certain,
    or the union bound the cost guard.  Every trial counts its n*k entry
    cells and peels at least one round over its m cells and n*k entry
    cells, so W >= trials * (m + 2*n*k); ``run_trials`` meters the rest.
    The usable CPUs cap the processes, which changes speed only.  Ranges
    end at batch multiples, so every split meters the same work, and each
    process has a range (one range when there is one process).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    batch = batch_trials(cfg.n, cfg.m, cfg.k)
    batches = math.ceil(cfg.trials / batch)
    charged = min(workers, batches)
    need = charged * (
        _CELL_BYTES * cfg.m + (_ENTRY_BYTES + _ENTRY_CELL_BYTES * cfg.k) * cfg.n
    )
    if need > TRIAL_MEMORY_GUARD_BYTES:
        raise ResourceGuardError(
            f"trials at m = {cfg.m} cells and n = {cfg.n} entries need about "
            f"{need / 2**30:.3g} GiB in {charged} process(es), over the budget "
            f"of {TRIAL_MEMORY_GUARD_BYTES / 2**30:g} GiB"
        )
    least = cfg.trials * (cfg.m + 2 * cfg.n * cfg.k)
    if least > TRIAL_WORK_BUDGET:
        raise _work_refusal(cfg, f"need at least {least} units, over")
    check_bound_cost(cfg.ell, cfg.n, cfg.k)
    processes = min(charged, _cpu_count())
    step = batch * math.ceil(batches / (processes * 4)) if processes > 1 else cfg.trials
    ranges = [(lo, min(lo + step, cfg.trials)) for lo in range(0, cfg.trials, step)]
    return processes, ranges


def _run_range(args) -> tuple[int, int, int]:
    from ibltlab import _kernels_py  # numpy, loaded only to run trials

    *kernel_args, budget = args
    return _kernels_py.run_trials(*kernel_args, budget=budget)


def run_trials(
    cfg: TrialConfig,
    census: StoppingCensus | None = None,
    workers: int = 1,
) -> SimReport:
    """Estimate the listing failure probability for one configuration.

    A trial fails when listing leaves any entry unrecovered.  The report
    carries ``cfg``, pairs the estimate with the union bound and the floor
    asymptote at ell = m/k, and counts the failures that left exactly two
    entries -- those necessarily had identical index tuples.  Trials run
    in the processes ``plan_trials`` picks, in-process when that is 1.
    ``plan_trials`` decides, before any trial runs, whether they may
    start; the kernel then meters their work W, and ResourceGuardError is
    raised iff W passes ``TRIAL_WORK_BUDGET``, whatever ``workers`` is.  A
    refused run stops once the work summed so far passes it: each kernel
    call returns once its own work does, and a pool cancels the ranges not
    yet started.
    """
    processes, ranges = plan_trials(cfg, workers)
    shape = (cfg.n, cfg.ell, cfg.k, cfg.b, cfg.scheme.value, cfg.key_model.value)
    args = [(cfg.seed, lo, hi, *shape, TRIAL_WORK_BUDGET) for lo, hi in ranges]
    failures = two_left = work = 0
    with contextlib.ExitStack() as stack:
        results = map(_run_range, args)  # one range, in-process
        if processes > 1:
            # Imported here: concurrent.futures loads multiprocessing, which an
            # in-process run never uses.
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=processes))
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_run_range, args)
        for range_failures, range_two_left, range_work in results:
            failures += range_failures
            two_left += range_two_left
            work += range_work
            if work > TRIAL_WORK_BUDGET:
                raise _work_refusal(cfg, "passed")
    ci_low, ci_high = wilson_interval(failures, cfg.trials)
    if census is None:
        census = StoppingCensus()
    bound = union_bound(census, cfg.ell, cfg.n, cfg.k).total_clamped
    return SimReport(
        config=cfg,
        failures=failures,
        size2_residual_failures=two_left,
        p_hat=failures / cfg.trials,
        ci_low=ci_low,
        ci_high=ci_high,
        bound=bound,
        p2=size2_asymptote(cfg.ell, cfg.n, cfg.k),
        work=work,
    )


def sweep(
    base: TrialConfig,
    m_values: Sequence[int],
    workers: int = 1,
) -> Iterator[SimReport]:
    """One report per m value, each point run with its derived seed.

    A grid of more than ``SWEEP_POINT_GUARD`` points raises
    ResourceGuardError before any point is built.  Every point is then
    validated and planned with ``plan_trials`` when this is called, so a
    bad or refused point raises before any trial runs; the returned
    iterator then runs the points in order, one ``run_trials`` call each,
    and yields each report as its point finishes.  Each point builds its
    own census row for its bound and frees it when done."""
    # A slice, not len(): the length of a range can pass sys.maxsize.
    if m_values[SWEEP_POINT_GUARD : SWEEP_POINT_GUARD + 1]:
        raise ResourceGuardError(
            f"sweeps of more than {SWEEP_POINT_GUARD} points exceed the guard"
        )
    configs = [replace(base, m=m, seed=sweep_point_seed(base.seed, m)) for m in m_values]
    for cfg in configs:
        plan_trials(cfg, workers)
    return (run_trials(cfg, workers=workers) for cfg in configs)
