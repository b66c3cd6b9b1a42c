import dataclasses

import pytest
from reference import stream_pairs

from ibltlab import (
    HashKind,
    HashParams,
    Iblt,
    KeyModel,
    ResourceGuardError,
    TrialConfig,
    exact_failure_probability,
    make_partitioned_uniform,
    make_ss_avoiding,
    run_trials,
    size2_asymptote,
    sweep,
    union_bound,
    wilson_interval,
)
from ibltlab._bits import (
    KEYS_DISTINCT,
    KEYS_IID,
    SCHEME_PARTITIONED,
    SCHEME_SS_AVOIDING,
    batch_trials,
    trial_state,
)
from ibltlab import _kernels_py, simulate


def tiny_cfg(**kw):
    base = dict(n=2, m=4, k=2, b=32, trials=20_000, seed=3)
    base.update(kw)
    return TrialConfig(**base)


def test_single_entry_never_fails():
    report = run_trials(TrialConfig(n=1, m=6, k=3, trials=500, seed=1))
    assert report.failures == 0
    assert report.p_hat == 0.0


def test_estimate_consistent_with_exact_oracle(census):
    exact = float(exact_failure_probability(2, 2, 2))
    report = run_trials(tiny_cfg(), census=census)
    assert report.ci_low <= exact <= report.ci_high


def test_interval_coverage_across_seeds(census):
    # Exact value 1/4 should land inside the 95% interval nearly always.
    exact = float(exact_failure_probability(2, 2, 2))
    covered = 0
    for seed in range(20):
        report = run_trials(tiny_cfg(trials=4000, seed=seed), census=census)
        covered += report.ci_low <= exact <= report.ci_high
    assert covered >= 18


def test_phat_respects_bound_on_sweep():
    base = TrialConfig(n=20, m=60, k=3, trials=4000, seed=11)
    for report in sweep(base, [60, 90, 120, 150]):
        half_width = (report.ci_high - report.ci_low) / 2
        assert report.p_hat <= report.bound + 3 * half_width


def test_sweeps_are_reproducible():
    base = TrialConfig(n=10, m=30, k=3, trials=2000, seed=21)
    first = list(sweep(base, [30, 60]))
    second = list(sweep(base, [30, 60]))
    assert first == second


def test_sweep_without_a_census_builds_one_row_per_point(monkeypatch):
    # Record, for each point's bound, the ells its census holds rows for
    # once the bound has read its row.
    rows = []
    real = simulate.union_bound

    def spy(census, ell, n, k):
        result = real(census, ell, n, k)
        rows.append((ell, {row_ell for row_ell, _ in census.known()}))
        return result

    monkeypatch.setattr(simulate, "union_bound", spy)
    base = TrialConfig(n=10, m=30, k=3, trials=200, seed=21)
    list(sweep(base, [30, 60, 90]))
    assert rows == [(10, {10}), (20, {20}), (30, {30})]


def test_workers_do_not_change_results(census):
    cfg = tiny_cfg(trials=9000, seed=5)
    serial = run_trials(cfg, census=census, workers=1)
    parallel = run_trials(cfg, census=census, workers=3)
    assert serial == parallel


def test_report_pairs_bound_and_asymptote(census):
    report = run_trials(tiny_cfg(seed=9), census=census)
    assert report.bound == union_bound(census, 2, 2, 2).total_clamped
    assert report.p2 == size2_asymptote(2, 2, 2)


def test_ss_avoiding_has_no_size2_residuals(census):
    cfg = TrialConfig(
        n=210,
        m=768,
        k=3,
        b=24,
        trials=10_000,
        seed=17,
        scheme=HashKind.SS_AVOIDING,
        key_model=KeyModel.DISTINCT_UNIFORM,
    )
    report = run_trials(cfg, census=census)
    assert report.size2_residual_failures == 0


def test_distinct_keys_with_conventional_scheme(census):
    report = run_trials(
        tiny_cfg(key_model=KeyModel.DISTINCT_UNIFORM, seed=13), census=census
    )
    assert report.config.trials == 20_000


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(n=2, m=5, k=2)  # m not divisible by k
    with pytest.raises(ValueError):
        TrialConfig(n=2, m=4, k=2, b=0)
    with pytest.raises(ValueError):
        TrialConfig(n=2, m=4, k=2, b=65)
    with pytest.raises(ValueError):
        TrialConfig(n=2, m=4, k=2, trials=0)
    with pytest.raises(ValueError):
        TrialConfig(n=5, m=4, k=2, b=2, key_model=KeyModel.DISTINCT_UNIFORM)
    # ss-avoiding: needs distinct keys, b = s*k and m/k = 2**s
    with pytest.raises(ValueError):
        TrialConfig(
            n=2, m=8, k=2, b=4,
            scheme=HashKind.SS_AVOIDING, key_model=KeyModel.IID_UNIFORM,
        )
    with pytest.raises(ValueError):
        TrialConfig(
            n=2, m=8, k=2, b=5,
            scheme=HashKind.SS_AVOIDING, key_model=KeyModel.DISTINCT_UNIFORM,
        )
    with pytest.raises(ValueError):
        TrialConfig(
            n=2, m=6, k=2, b=4,
            scheme=HashKind.SS_AVOIDING, key_model=KeyModel.DISTINCT_UNIFORM,
        )
    ok = TrialConfig(
        n=2, m=8, k=2, b=4,
        scheme=HashKind.SS_AVOIDING, key_model=KeyModel.DISTINCT_UNIFORM,
    )
    assert ok.ell == 4


def test_key_model_defaults_to_the_schemes():
    ss = TrialConfig(n=2, m=8, k=2, b=4, scheme=HashKind.SS_AVOIDING)
    assert ss.key_model is KeyModel.DISTINCT_UNIFORM
    assert ss == TrialConfig(
        n=2, m=8, k=2, b=4,
        scheme=HashKind.SS_AVOIDING, key_model=KeyModel.DISTINCT_UNIFORM,
    )
    assert tiny_cfg().key_model is KeyModel.IID_UNIFORM
    # Derived configs keep the resolved model.
    assert dataclasses.replace(ss, seed=5).key_model is KeyModel.DISTINCT_UNIFORM


def test_run_trials_guards_trial_memory():
    # 16 bytes per cell: 4e9 cells would need about 60 GiB per trial.
    with pytest.raises(ResourceGuardError):
        run_trials(TrialConfig(n=5, m=4_000_000_000, k=1, trials=1))


def test_trial_memory_guard_counts_the_kernel_processes(monkeypatch):
    # About 0.6 GiB of cells: one process fits the 1 GiB budget, two do
    # not.  Two workers are charged as two processes even on one CPU,
    # where their ranges would share one process.
    cfg = TrialConfig(n=5, m=40_000_000, k=1, trials=2)
    for cpus in (1, 2):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        assert simulate.plan_trials(cfg, workers=1)[0] == 1
        with pytest.raises(ResourceGuardError, match="in 2 process"):
            simulate.plan_trials(cfg, workers=2)
    # A single trial runs in one process, whatever was asked for.
    assert simulate.plan_trials(dataclasses.replace(cfg, trials=1), workers=8)[0] == 1


def test_kernel_processes_count_only_the_cpus_this_process_may_use(monkeypatch):
    # Pinned to one CPU of eight, two workers share that CPU: one process.
    # Four kernel batches.
    cfg = TrialConfig(n=20, m=60, k=3, trials=4 * batch_trials(20, 60, 3))
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert simulate.plan_trials(cfg, workers=2)[0] == 1
    # Without an affinity call, every CPU counts.
    monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
    assert simulate._cpu_count() == 8
    assert simulate.plan_trials(cfg, workers=2)[0] == 2


def test_refusals_come_before_any_kernel_call(monkeypatch):
    # n = 3000 at m = 15000 puts the union bound over budget.
    calls = []
    monkeypatch.setattr(
        _kernels_py, "run_trials", lambda *a, **kw: calls.append(a) or (0, 0, 0)
    )
    with pytest.raises(ResourceGuardError):
        run_trials(TrialConfig(n=3000, m=15000, k=3, trials=10))
    with pytest.raises(ResourceGuardError):
        sweep(TrialConfig(n=3000, m=30, k=3, trials=10), [30, 15000])
    assert calls == []


def test_kernel_takes_the_enum_values_of_scheme_and_key_model(monkeypatch):
    # Arguments 7 and 8 of a kernel call are the config's HashKind and
    # KeyModel values; perfbench's tracer reads argument 7.
    calls = []
    monkeypatch.setattr(
        _kernels_py, "run_trials", lambda *a, **kw: calls.append(a) or (0, 0, 0)
    )
    run_trials(TrialConfig(n=2, m=30, k=3, trials=10))
    run_trials(TrialConfig(n=2, m=8, k=2, b=4, trials=10, scheme=HashKind.SS_AVOIDING))
    assert [call[7:9] for call in calls] == [
        ("partitioned-uniform", "iid"),
        ("ss-avoiding", "distinct"),
    ]


def test_sweep_checks_every_point_at_call_time_and_runs_when_iterated(monkeypatch):
    calls = []
    monkeypatch.setattr(
        _kernels_py, "run_trials", lambda *a, **kw: calls.append(a) or (0, 0, 0)
    )
    base = TrialConfig(n=3000, m=30, k=3, trials=10)
    with pytest.raises(ResourceGuardError):
        sweep(base, [30, 15000])  # the second point's bound is over budget
    assert calls == []
    reports = sweep(base, [30, 60])
    assert calls == []
    assert [report.config.m for report in reports] == [30, 60]
    assert len(calls) == 2


def test_sweep_guard_counts_points_before_building_any(monkeypatch):
    planned = []
    monkeypatch.setattr(simulate, "plan_trials", lambda cfg, workers: planned.append(cfg))
    base = TrialConfig(n=5, m=30, k=1, b=64, trials=1)
    guard = simulate.SWEEP_POINT_GUARD
    with pytest.raises(ResourceGuardError, match="guard"):
        sweep(base, range(30, 31 + guard))
    assert planned == []
    sweep(base, range(30, 30 + guard))
    assert len(planned) == guard


def test_sweep_guard_refuses_huge_grids_without_building_them(capped_python):
    # 4e9 points, or more than sys.maxsize: building one config per point
    # would exhaust memory, so the interpreter's address space is capped.
    script = """
from ibltlab import ResourceGuardError, TrialConfig, sweep
base = TrialConfig(n=5, m=30, k=1, b=64, trials=1)
for stop in (4_000_000_000, 10**30):
    try:
        sweep(base, range(30, stop + 1))
    except ResourceGuardError as exc:
        print("refused:", exc)
"""
    result = capped_python(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("refused:") == 2


def test_trial_time_guard_shares_the_work_among_processes(census, monkeypatch):
    # The kernel processes share one budget of COST_GUARD_S seconds' worth:
    # work that passes it is refused at workers 1 and 2 alike.
    assert simulate.TRIAL_WORK_BUDGET == int(
        simulate.COST_GUARD_S / simulate._WORK_UNIT_S
    )
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = tiny_cfg(trials=9000, seed=5)
    work = run_trials(cfg, census=census).work
    monkeypatch.setattr(simulate, "TRIAL_WORK_BUDGET", int(0.75 * work))
    for workers in (1, 2):
        with pytest.raises(ResourceGuardError, match="passed the budget"):
            run_trials(cfg, census=census, workers=workers)
    assert _RecordingPool.sizes == [2]


def test_refusal_does_not_depend_on_the_cpu_count(census, monkeypatch):
    # 10**6 trials at the paper's shape need at least 2.028e9 units, past
    # the budget of 1.875e9, however many CPUs could run two workers; and
    # an admitted run reports the same on any of them.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    big = TrialConfig(n=210, m=768, k=3, trials=10**6)
    small = tiny_cfg(trials=9000, seed=5)
    refusals, reports = [], []
    for cpus in (1, 2, 64):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        with pytest.raises(ResourceGuardError, match="need at least") as refused:
            simulate.plan_trials(big, workers=2)
        refusals.append(str(refused.value))
        reports.append(run_trials(small, census=census, workers=2))
    assert refusals == refusals[:1] * 3
    assert reports == reports[:1] * 3


def test_work_and_refusal_do_not_depend_on_workers(census, monkeypatch):
    # Trial ranges end where the kernel's batches end, so every worker
    # count meters the same work, and a run is refused iff that work
    # passes the budget.
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 4)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = TrialConfig(n=20, m=60, k=3, trials=9000, seed=5)
    work = run_trials(cfg, census=census).work
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulate, "TRIAL_WORK_BUDGET", work)
        assert run_trials(cfg, census=census, workers=workers).work == work
        monkeypatch.setattr(simulate, "TRIAL_WORK_BUDGET", work - 1)
        with pytest.raises(ResourceGuardError, match="passed the budget"):
            run_trials(cfg, census=census, workers=workers)
    assert _RecordingPool.sizes == [2, 2, 3, 3]


def test_trial_time_guard_charges_distinct_key_replay(census):
    # At n = 2**b every distinct-key trial draws its keys again one
    # candidate at a time, at least n candidates of REPLAY_UNITS each.
    # Both key models peel this overloaded table in one round.
    cfg = TrialConfig(n=256, m=48, k=3, b=8, trials=40)
    iid = run_trials(cfg, census=census).work
    assert iid == cfg.trials * (cfg.m + 2 * cfg.n * cfg.k)
    distinct = run_trials(
        dataclasses.replace(cfg, key_model=KeyModel.DISTINCT_UNIFORM), census=census
    ).work
    assert distinct - iid >= cfg.trials * cfg.n * _kernels_py.REPLAY_UNITS


def test_peeling_thresholds():
    # Large tables peel completely below the load threshold of k and
    # fail above it: 0.818 at k = 3 and 0.772 at k = 4.
    for k, threshold in ((3, 0.8185), (4, 0.7723)):
        m = 12_000
        for load, failures in ((0.9, 0), (1.1, 10)):
            n = int(load * threshold * m)
            got = _kernels_py.run_trials(7, 0, 10, n, m // k, k, 32, SCHEME_PARTITIONED, KEYS_IID)
            assert got[0] == failures, (k, load)


def test_trial_rate_peaks_at_the_peeling_threshold():
    # The meter counts the peeling rounds, which pile up near the peeling
    # threshold: per trial, load 0.82 (the threshold of k = 3) meters many
    # times the work of load 0.27 (the paper's shape), and more than load
    # 2, past it, where peeling stops at once.
    def work(n):
        return _kernels_py.run_trials(0, 0, 115, n, 256, 3, 32, SCHEME_PARTITIONED, KEYS_IID)[2]

    assert work(628) > 10 * work(210)
    assert work(628) > 2 * work(1536)
    works = [work(n) for n in range(10, 629, 103)]
    assert works == sorted(works)


# (k, m, n, kernel seconds per unit of metered work): the slowest trials
# measured near the peeling threshold of k, on one pinned vCPU of a 2-core
# x86 VM.  Their rounds pile up with the table at k >= 3, but the meter
# counts them.
THRESHOLD_UNIT_SECONDS = [
    (3, 30_000, 24_554, 7.0e-9),
    (3, 300_000, 245_050, 4.6e-9),
    (3, 999_999, 819_287, 5.9e-9),
    (3, 3_000_000, 2_455_407, 1.05e-8),
    (4, 3_000_000, 2_316_840, 1.5e-8),
    (2, 3_000_000, 1_498_500, 8.1e-10),
]


@pytest.mark.parametrize("k, m, n, measured", THRESHOLD_UNIT_SECONDS)
def test_work_unit_covers_the_slowest_at_the_threshold(k, m, n, measured):
    assert simulate._WORK_UNIT_S > measured


def test_time_guard_refuses_one_wide_trial_at_the_threshold(monkeypatch):
    # This trial took 42 s.  It meters about 4e9 units, past the budget,
    # but the union bound's cost guard refuses the shape before it runs.
    calls = []
    monkeypatch.setattr(
        _kernels_py, "run_trials", lambda *a, **kw: calls.append(a) or (0, 0, 0)
    )
    cfg = TrialConfig(n=2_455_407, m=3_000_000, k=3, trials=1)
    with pytest.raises(ResourceGuardError):
        run_trials(cfg)
    assert calls == []


@pytest.mark.parametrize("workers", [0, -3])
def test_run_trials_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError):
        run_trials(tiny_cfg(trials=10), workers=workers)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items):
        return list(map(fn, items))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize(
    "cpus, workers, batches, pool_size",
    [(4, 10**6, 3, 3), (4, 3, 3, 3), (64, 10**6, 1, None), (1, 8, 3, None)],
)
def test_pool_is_capped_by_cpus_and_batches(
    census, monkeypatch, cpus, workers, batches, pool_size
):
    monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
    # run_trials imports the pool class when it starts one.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = tiny_cfg(seed=5)
    # That many kernel batches, the last of them 5 trials.
    cfg = dataclasses.replace(cfg, trials=(batches - 1) * batch_trials(cfg.n, cfg.m, cfg.k) + 5)
    report = run_trials(cfg, census=census, workers=workers)
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    assert report == run_trials(cfg, census=census, workers=1)


def test_every_process_has_a_trial_range(monkeypatch):
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 64)
    batch = batch_trials(20, 60, 3)
    for trials in (1, batch - 1, batch, batch + 1, 1000, 4 * batch * 64, 10**5):
        cfg = TrialConfig(n=20, m=60, k=3, trials=trials)
        for workers in (1, 2, 3, 64):
            processes, ranges = simulate.plan_trials(cfg, workers)
            assert processes == min(workers, -(-trials // batch))
            assert len(ranges) >= processes
            assert (len(ranges) == 1) == (processes == 1)
            assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
            assert ranges[-1][1] == trials
            assert all(hi % batch == 0 for _, hi in ranges[:-1])


def test_config_is_frozen():
    cfg = tiny_cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n = 3


def test_sweep_uses_documented_derived_seeds(census):
    from ibltlab._bits import sweep_point_seed

    base = TrialConfig(n=10, m=30, k=3, trials=1500, seed=77)
    reports = sweep(base, [30, 60])
    for m, report in zip([30, 60], reports):
        direct = run_trials(
            dataclasses.replace(base, m=m, seed=sweep_point_seed(77, m)),
            census=census,
        )
        assert report == direct


def test_distinct_keys_can_exhaust_the_key_space(census):
    # n = 2**b: rejection sampling must still terminate, drawing every key.
    cfg = TrialConfig(
        n=16, m=16, k=1, b=4, trials=200, seed=31,
        scheme=HashKind.SS_AVOIDING, key_model=KeyModel.DISTINCT_UNIFORM,
    )
    report = run_trials(cfg, census=census)
    # k=1 field split maps key -> cell bijectively, so listing always works.
    assert report.failures == 0


def _check_kernel_against_table_replay(kind, key_code, n, ell, k, b):
    # Replay each trial's documented stream through the Iblt object and the
    # real hash scheme; the kernel must reach the same failure verdict, one
    # trial at a time and over the whole range at once.
    seed, trials = 99, 250
    params = HashParams(k=k, ell=ell, b=b, seed=seed, kind=kind)
    if kind is HashKind.SS_AVOIDING:
        scheme, scheme_code = make_ss_avoiding(params), SCHEME_SS_AVOIDING
    else:
        scheme, scheme_code = make_partitioned_uniform(params), SCHEME_PARTITIONED
    mask = (1 << b) - 1
    failed = rejections = 0
    for t in range(trials):
        pairs, rejected = stream_pairs(trial_state(seed, t), n, mask, key_code == KEYS_DISTINCT)
        rejections += rejected
        table = Iblt(scheme)
        for x, y in pairs:
            table.insert(x, y)
        listed = table.list_entries()
        object_failed = not listed.complete or listed.entries != frozenset(pairs)
        kernel = _kernels_py.run_trials(seed, t, t + 1, n, ell, k, b, scheme_code, key_code)
        assert object_failed == (kernel[0] == 1), t
        failed += object_failed
    assert 0 < failed < trials
    assert (rejections > 0) == (key_code == KEYS_DISTINCT)
    whole = _kernels_py.run_trials(seed, 0, trials, n, ell, k, b, scheme_code, key_code)
    assert whole[0] == failed


def test_kernel_matches_table_object_replay():
    _check_kernel_against_table_replay(HashKind.PARTITIONED_UNIFORM, KEYS_IID, 12, 8, 3, 16)


def test_kernel_matches_table_object_replay_ss_avoiding():
    # 8-bit keys: about a quarter of the trials reject a repeated key.
    _check_kernel_against_table_replay(HashKind.SS_AVOIDING, KEYS_DISTINCT, 12, 16, 2, 8)


def test_wilson_interval_properties():
    for failures, trials in [(0, 100), (100, 100), (1, 7), (50, 1000), (3, 10)]:
        low, high = wilson_interval(failures, trials)
        p = failures / trials
        assert 0.0 <= low <= p <= high <= 1.0
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and high > 0.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    for failures in (-1, 11):
        with pytest.raises(ValueError, match=rf"failures must be in \[0, 10\], got {failures}$"):
            wilson_interval(failures, 10)
